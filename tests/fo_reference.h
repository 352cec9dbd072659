// A small reference evaluator for FO formulas under active-domain
// semantics (fo/evaluator.h), used only as a test oracle.
//
// It follows the textbook definition and nothing else: every quantifier
// and every query head ranges over ctx.ActiveDomain(); there are no guard
// scans, no equality pins and no NNF rewriting of universals. So it
// shares no planning with the tree-walker or the bytecode compiler
// (fo/plan.h), and a planning bug the two have in common shows as a
// disagreement with it. Whenever both it and an evaluator return a
// value, the values must agree; the evaluators' plans skip evaluations,
// so they may succeed where this one hits an unbound symbol.

#ifndef WSV_TESTS_FO_REFERENCE_H_
#define WSV_TESTS_FO_REFERENCE_H_

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "fo/evaluator.h"
#include "fo/formula.h"

namespace wsv {
namespace fo_reference {

inline StatusOr<Value> ResolveTerm(const Term& t, const EvalContext& ctx,
                                   const Valuation& val) {
  if (t.is_literal()) return t.literal();
  if (t.is_variable()) {
    auto it = val.find(t.name());
    if (it == val.end()) return Status::Internal("unbound: " + t.name());
    return it->second;
  }
  std::optional<Value> v = ctx.ResolveConstant(t.name());
  if (!v.has_value()) return Status::Internal("unbound: " + t.name());
  return *v;
}

inline StatusOr<bool> Eval(const Formula& f, const EvalContext& ctx,
                           Valuation& val);

// Whether some (`exists`) or every assignment of vars[i..] over the
// active domain satisfies `body`.
inline StatusOr<bool> Quantify(bool exists,
                               const std::vector<std::string>& vars,
                               size_t i, const Formula& body,
                               const EvalContext& ctx, Valuation& val) {
  if (i == vars.size()) return Eval(body, ctx, val);
  for (Value v : ctx.ActiveDomain()) {
    val[vars[i]] = v;
    WSV_ASSIGN_OR_RETURN(bool sub, Quantify(exists, vars, i + 1, body, ctx,
                                            val));
    if (sub == exists) return exists;
  }
  return !exists;
}

inline StatusOr<bool> Eval(const Formula& f, const EvalContext& ctx,
                           Valuation& val) {
  switch (f.kind()) {
    case Formula::Kind::kTrue:
      return true;
    case Formula::Kind::kFalse:
      return false;
    case Formula::Kind::kAtom: {
      const Atom& atom = f.atom();
      const Relation* rel = ctx.ResolveRelation(atom.relation, atom.prev);
      if (rel == nullptr || rel->empty()) return false;
      Tuple t;
      for (const Term& term : atom.terms) {
        WSV_ASSIGN_OR_RETURN(Value v, ResolveTerm(term, ctx, val));
        t.push_back(v);
      }
      return rel->Contains(t);
    }
    case Formula::Kind::kEquals: {
      WSV_ASSIGN_OR_RETURN(Value lhs, ResolveTerm(f.lhs(), ctx, val));
      WSV_ASSIGN_OR_RETURN(Value rhs, ResolveTerm(f.rhs(), ctx, val));
      return lhs == rhs;
    }
    case Formula::Kind::kNot: {
      WSV_ASSIGN_OR_RETURN(bool sub, Eval(*f.children()[0], ctx, val));
      return !sub;
    }
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr: {
      const bool is_and = f.kind() == Formula::Kind::kAnd;
      for (const FormulaPtr& c : f.children()) {
        WSV_ASSIGN_OR_RETURN(bool sub, Eval(*c, ctx, val));
        if (sub != is_and) return sub;
      }
      return is_and;
    }
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      // Quantified variables shadow outer bindings.
      const std::set<std::string> names(f.variables().begin(),
                                        f.variables().end());
      const std::vector<std::string> vars(names.begin(), names.end());
      Valuation outer = val;
      StatusOr<bool> r = Quantify(f.kind() == Formula::Kind::kExists, vars,
                                  0, *f.body(), ctx, val);
      val = std::move(outer);
      return r;
    }
  }
  return Status::Internal("bad formula kind");
}

inline StatusOr<bool> Evaluate(const Formula& f, const EvalContext& ctx,
                               const Valuation& valuation = {}) {
  Valuation val = valuation;
  return Eval(f, ctx, val);
}

// Every tuple over the active domain (in `heads` order) that satisfies
// `f`; `valuation` binds the other free variables.
inline StatusOr<std::set<Tuple>> EvaluateQuery(
    const Formula& f, const std::vector<std::string>& heads,
    const EvalContext& ctx, const Valuation& valuation = {}) {
  std::set<Tuple> out;
  Valuation val = valuation;
  Tuple t(heads.size());
  // Odometer over domain^|heads|.
  const std::vector<Value>& dom = ctx.ActiveDomain();
  if (dom.empty() && !heads.empty()) return out;
  std::vector<size_t> idx(heads.size(), 0);
  for (;;) {
    for (size_t i = 0; i < heads.size(); ++i) {
      t[i] = dom[idx[i]];
      val[heads[i]] = t[i];
    }
    WSV_ASSIGN_OR_RETURN(bool holds, Eval(f, ctx, val));
    if (holds) out.insert(t);
    size_t i = 0;
    while (i < heads.size() && ++idx[i] == dom.size()) idx[i++] = 0;
    if (i == heads.size()) return out;
  }
}

}  // namespace fo_reference
}  // namespace wsv

#endif  // WSV_TESTS_FO_REFERENCE_H_
