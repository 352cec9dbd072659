// Bytecode VM: a tight switch-loop over a compiled Program.
//
// All mutable execution state — registers, resolved constant and
// relation tables, loop frames, the tuple scratch buffer — lives in a
// thread-local arena that is reused across executions, so steady-state
// evaluation allocates nothing and touches no strings. Each Execute
// binds the program to an EvalContext once (relation and constant-symbol
// lookup by name), then runs string-free.
//
// Execution is metered by an explicit step budget (instructions plus
// tuples tested in scans); exceeding it fails with ResourceExhausted.
// The default budget is large enough that real verifications never trip
// it; tests lower it to exercise the limit.

#ifndef WSV_FO_BYTECODE_VM_H_
#define WSV_FO_BYTECODE_VM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "fo/bytecode/program.h"
#include "fo/evaluator.h"

namespace wsv {
namespace fobc {

/// Default per-execution step budget (2^34 steps: effectively unlimited
/// for real formulas, but a hard stop against pathological blowup).
inline constexpr uint64_t kDefaultStepBudget = uint64_t{1} << 34;

/// The per-execution step budget. Process-wide; settable for tests.
uint64_t GetStepBudget();
void SetStepBudget(uint64_t budget);

/// Runs a boolean program. `valuation` binds the program's free
/// variables (a missing binding fails with Internal "unbound variable"
/// if and only if the variable is actually used).
StatusOr<bool> Execute(const Program& program, const EvalContext& ctx,
                       const Valuation& valuation = {});

/// Runs a query program, returning the satisfying head tuples as a
/// relation of arity head_vars.size(): sorted rows without repeats. The
/// entry valuation must not bind any head variable.
StatusOr<Relation> ExecuteQuery(const Program& program, const EvalContext& ctx,
                                const Valuation& valuation = {});

/// Runs a query program with no entry bindings, appending each emitted
/// head tuple to `rows` as head_vars.size() consecutive values. Skips the
/// ordering of the relation overload; a tuple emitted twice (e.g. by two
/// disjuncts) appears twice.
Status ExecuteQuery(const Program& program, const EvalContext& ctx,
                    std::vector<Value>* rows);

}  // namespace fobc
}  // namespace wsv

#endif  // WSV_FO_BYTECODE_VM_H_
