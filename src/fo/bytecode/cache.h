// Program cache and gating for the FO bytecode engine.
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
// owners of formulas resolve their programs once, when they are built
// (runtime/successor's Stepper, verify/ltl_verifier's database check,
// ltl/run_semantics' lasso evaluator), hold them, and run them through
// fo/bytecode/vm.h.
//
// The engine is on by default. It is one process-wide value, fixed
// before any work starts, and either of two switches turns it off for
// the whole process; the tree-walking interpreter then runs instead:
//
//   * environment: WSV_DISABLE_FO_BYTECODE=1 (read once per process,
//     common/env.h's rule),
//   * SetBytecodeEnabled(false) (the CLI's --no-fo-bytecode flag).
//
// Owners decide at resolution time: ResolveBool and ResolveQuery return
// nullptr while the engine is off, and an owner runs the programs it
// holds without asking again. A caller that needs the interpreter for
// one evaluation (witness validation, the independent oracle) asks for
// it explicitly (ltl/run_semantics.h's FoEngine). The program cache key
// omits the setting: it changes no observable number.

#ifndef WSV_FO_BYTECODE_CACHE_H_
#define WSV_FO_BYTECODE_CACHE_H_

#include <memory>
#include <string>
#include <vector>

#include "fo/bytecode/program.h"
#include "fo/formula.h"

namespace wsv {
namespace fobc {

/// True iff owners resolve compiled programs (the process value).
bool BytecodeEnabled();

/// Process-wide switch (the env var still wins when set). Set it before
/// any owner resolves programs.
void SetBytecodeEnabled(bool enabled);

/// Occupancy of the process-wide program cache, for --stats and the
/// mem/fo_* gauges. Byte figures are footprint estimates (vector
/// capacities + node overheads), not allocator ground truth.
struct CacheStats {
  uint64_t entries = 0;         // distinct structures incl. failed compiles
  uint64_t program_bytes = 0;   // compiled code + slot tables
  uint64_t formula_bytes = 0;   // pinned exemplar formula trees
};
CacheStats ProgramCacheStats();

/// Returns the program for `f`'s structure, compiling on first use.
/// nullptr when compilation failed (callers fall back to the
/// interpreter). Thread-safe.
std::shared_ptr<const Program> GetOrCompileBool(const FormulaPtr& f);

/// Same for query programs with head variables `head_vars`; the head
/// list is part of the key. A compiled query assumes its heads are
/// unbound on entry.
std::shared_ptr<const Program> GetOrCompileQuery(
    const FormulaPtr& f, const std::vector<std::string>& head_vars);

/// GetOrCompileBool / GetOrCompileQuery when BytecodeEnabled(), else
/// nullptr: what an owner holds for a formula it evaluates.
std::shared_ptr<const Program> ResolveBool(const FormulaPtr& f);
std::shared_ptr<const Program> ResolveQuery(
    const FormulaPtr& f, const std::vector<std::string>& head_vars);

/// Test hook: when forced, every formula reports the same fingerprint,
/// so the structural collision guard must carry the entire load —
/// verdicts stay correct and fo/bytecode_fp_collisions counts up.
void ForceFingerprintCollisionsForTest(bool force);

}  // namespace fobc
}  // namespace wsv

#endif  // WSV_FO_BYTECODE_CACHE_H_
