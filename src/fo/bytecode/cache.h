// Program cache for the FO bytecode engine, the one FO evaluator of
// every verification path.
//
// Each FO leaf, input-option formula and update rule is compiled once
// per process per distinct structure. The cache is keyed by structure
// only: a formula's fingerprint (common/fingerprint.h; for queries, the
// fingerprint and the head-variable list) finds the candidate entry, and
// a deep structural comparison with the entry's exemplar formula
// confirms it (the collision guard: a rejected candidate counts
// fo/bytecode_fp_collisions and compiles separately). So a re-parsed
// spec, a re-verified request in a replay, or a rule that two pages
// share reuses the compiled program, and the cache holds one exemplar
// per distinct structure however many formula objects were looked up.
//
// A lookup fingerprints the formula, so it is not for hot paths. The
// owners of formulas compile their programs once, when they are built
// (runtime/successor's Stepper, verify/ltl_verifier's database check,
// ltl/run_semantics' lasso evaluator), hold them, and run them through
// fo/bytecode/vm.h. A formula that does not compile fails its owner's
// construction with the compile's Status. Only witness validation and
// the tests evaluate without a program, on the plan-free oracle of
// fo/evaluator.h.

#ifndef WSV_FO_BYTECODE_CACHE_H_
#define WSV_FO_BYTECODE_CACHE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "fo/bytecode/program.h"
#include "fo/formula.h"

namespace wsv {
namespace fobc {

/// Occupancy of the process-wide program cache, for --stats and the
/// mem/fo_* gauges. Byte figures are footprint estimates (vector
/// capacities + node overheads), not allocator ground truth.
struct CacheStats {
  uint64_t entries = 0;         // distinct structures incl. failed compiles
  uint64_t program_bytes = 0;   // compiled code + slot tables
  uint64_t formula_bytes = 0;   // pinned exemplar formula trees
};
CacheStats ProgramCacheStats();

/// Returns the program for `f`'s structure, compiling on first use; the
/// compile's error when it failed (every later lookup returns the same
/// error). Never a null program. Thread-safe.
StatusOr<std::shared_ptr<const Program>> GetOrCompileBool(
    const FormulaPtr& f);

/// Same for query programs with head variables `head_vars`; the head
/// list is part of the key. A compiled query assumes its heads are
/// unbound on entry.
StatusOr<std::shared_ptr<const Program>> GetOrCompileQuery(
    const FormulaPtr& f, const std::vector<std::string>& head_vars);

/// Test hook: when forced, every formula reports the same fingerprint,
/// so the structural collision guard must carry the entire load —
/// verdicts stay correct and fo/bytecode_fp_collisions counts up.
void ForceFingerprintCollisionsForTest(bool force);

}  // namespace fobc
}  // namespace wsv

#endif  // WSV_FO_BYTECODE_CACHE_H_
