// The join plan shared by both FO evaluators: the tree-walker
// (fo/evaluator.cc) and the bytecode compiler (fo/bytecode/compiler.cc)
// choose how to bind a quantifier's or query head's variables with these
// functions, so the two cannot drift apart.
//
// One planning step, over the flattened conjuncts of a body and the set
// of still-unbound variables:
//   1. guard: the first positive atom conjunct with a variable term in
//      the set binds those variables by scanning its relation;
//   2. pin: otherwise, the first equality conjunct `v = t` or `t = v`
//      with v in the set and t a literal, a constant symbol, or a
//      variable outside the set binds v to t's value alone (no binding
//      when that value lies outside the active domain; an active-domain
//      loop over v when t does not resolve at run time);
//   3. otherwise the lexicographically first variable takes an
//      active-domain loop.

#ifndef WSV_FO_PLAN_H_
#define WSV_FO_PLAN_H_

#include <set>
#include <string>
#include <vector>

#include "fo/formula.h"

namespace wsv {

/// Appends the conjuncts of nested conjunctions of `f` to `out`, left to
/// right; a non-conjunction is its own single conjunct.
void FlattenAnd(const Formula& f, std::vector<const Formula*>* out);

/// The guard among `conjuncts` for `vars`: the first atom conjunct with
/// a variable term in `vars`; nullptr when there is none.
const Formula* FindGuard(const std::vector<const Formula*>& conjuncts,
                         const std::set<std::string>& vars);

/// An equality pin: `var` (a variable in the planned set) equals `value`
/// (a literal, a constant symbol, or a variable outside the set).
struct Pin {
  const Term* var = nullptr;
  const Term* value = nullptr;
};

/// The pin among `conjuncts` for `vars`: the first equality conjunct
/// that pins one of `vars` (its left side first); `var` is nullptr when
/// there is none.
Pin FindPin(const std::vector<const Formula*>& conjuncts,
            const std::set<std::string>& vars);

}  // namespace wsv

#endif  // WSV_FO_PLAN_H_
