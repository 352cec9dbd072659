// One-shot compiler from fo::Formula to register bytecode.
//
// Compilation follows the join plan of fo/plan.h: existential
// quantifiers become relation scans over the first positive atom
// conjunct that binds a quantified variable (guard-driven join), then an
// equality pin, with an active-domain loop as the fallback; universal
// quantifiers compile as the negated existential of the NNF'd negated
// body; a query enumerates each disjunct by the same plan over its head
// variables and re-checks the whole branch at an explicit emit
// instruction. Conjuncts evaluate left to right with short-circuiting,
// and a term is resolved (and can fail as unbound) only when an
// instruction reads it.

#ifndef WSV_FO_BYTECODE_COMPILER_H_
#define WSV_FO_BYTECODE_COMPILER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "fo/bytecode/program.h"
#include "fo/formula.h"

namespace wsv {
namespace fobc {

/// Compiles `f` as a sentence: Execute() returns its truth value under
/// an EvalContext and entry valuation.
StatusOr<std::shared_ptr<const Program>> CompileBool(const FormulaPtr& f);

/// Compiles `f` as a query with head variables `head_vars` (must be
/// distinct): ExecuteQuery() returns the satisfying head tuples. The
/// compiled program assumes no head variable is bound by the entry
/// valuation.
StatusOr<std::shared_ptr<const Program>> CompileQuery(
    const FormulaPtr& f, const std::vector<std::string>& head_vars);

}  // namespace fobc
}  // namespace wsv

#endif  // WSV_FO_BYTECODE_COMPILER_H_
