// The join plan of the FO engine: the bytecode compiler
// (fo/bytecode/compiler.cc) chooses how to bind a quantifier's or query
// head's variables with these functions, and QueryDomainLoops prices the
// plan it follows.
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

/// The query enumeration plan's cost in active-domain loops: how many of
/// `vars` the compiled query binds by iterating the whole active domain
/// rather than scanning a positive guard atom or pinning it by an
/// equality, on the costliest disjunct (a disjunction enumerates each
/// branch). 0 means the answer is produced by relation scans and
/// membership tests alone. A pin is priced 0 even though it falls back
/// to a domain loop when its value does not resolve at run time (an
/// unbound constant symbol or free variable).
int QueryDomainLoops(const Formula& formula,
                     const std::vector<std::string>& vars);

}  // namespace wsv

#endif  // WSV_FO_PLAN_H_
