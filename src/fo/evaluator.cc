#include "fo/evaluator.h"

#include <algorithm>
#include <utility>

#include "fo/rewrite.h"
#include "obs/metrics.h"

namespace wsv {

void EvalContext::AddLayer(const Instance* instance) {
  layers_.push_back(instance);
  domain_valid_ = false;
}

void EvalContext::SetConstant(const std::string& name, Value v) {
  constant_overrides_[name] = v;
  domain_valid_ = false;
}

const Relation* EvalContext::ResolveRelation(const std::string& name,
                                             bool prev) const {
  if (prev) {
    if (prev_layer_ == nullptr) return nullptr;
    return prev_layer_->FindRelation(name);
  }
  for (const Instance* layer : layers_) {
    const Relation* rel = layer->FindRelation(name);
    if (rel != nullptr) return rel;
  }
  return nullptr;
}

std::optional<Value> EvalContext::ResolveConstant(
    const std::string& name) const {
  auto it = constant_overrides_.find(name);
  if (it != constant_overrides_.end()) return it->second;
  if (constant_layer_ != nullptr) {
    auto layer_it = constant_layer_->find(name);
    if (layer_it != constant_layer_->end()) return layer_it->second;
  }
  for (const Instance* layer : layers_) {
    std::optional<Value> v = layer->FindConstant(name);
    if (v.has_value()) return v;
  }
  return std::nullopt;
}

const std::vector<Value>& EvalContext::ActiveDomain() const {
  if (!domain_valid_) {
    std::set<Value> dom = extra_domain_;
    for (const Instance* layer : layers_) {
      dom.insert(layer->domain().begin(), layer->domain().end());
    }
    if (prev_layer_ != nullptr) {
      dom.insert(prev_layer_->domain().begin(), prev_layer_->domain().end());
    }
    for (const auto& [name, v] : constant_overrides_) dom.insert(v);
    if (constant_layer_ != nullptr) {
      for (const auto& [name, v] : *constant_layer_) dom.insert(v);
    }
    domain_cache_.assign(dom.begin(), dom.end());
    domain_valid_ = true;
  }
  return domain_cache_;
}

namespace {

// Hot-path variable bindings: a small insertion-ordered flat vector.
// Rule and property valuations hold a handful of variables, where a
// linear scan over contiguous pairs beats std::map node chasing in the
// quantifier loops. The public API keeps Valuation = std::map; the
// conversion happens once per Evaluate/EvaluateQuery entry.
class Bindings {
 public:
  Bindings() = default;
  explicit Bindings(const Valuation& valuation) {
    entries_.reserve(valuation.size());
    for (const auto& [name, v] : valuation) entries_.emplace_back(name, v);
  }

  const Value* Find(const std::string& name) const {
    for (const auto& e : entries_) {
      if (e.first == name) return &e.second;
    }
    return nullptr;
  }

  void Set(const std::string& name, Value v) {
    for (auto& e : entries_) {
      if (e.first == name) {
        e.second = v;
        return;
      }
    }
    entries_.emplace_back(name, v);
  }

  void Erase(const std::string& name) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == name) {
        entries_.erase(it);
        return;
      }
    }
  }

 private:
  std::vector<std::pair<std::string, Value>> entries_;
};

// Recursively flattens nested conjunctions into a conjunct list.
void FlattenAnd(const Formula& f, std::vector<const Formula*>* out) {
  if (f.kind() == Formula::Kind::kAnd) {
    for (const FormulaPtr& c : f.children()) FlattenAnd(*c, out);
  } else {
    out->push_back(&f);
  }
}

// Evaluation uses guard-driven joins: an existential quantifier whose
// body contains a positive atom conjunct binds its variables by
// iterating that atom's relation instead of the whole active domain;
// universal quantifiers evaluate as negated existentials of the NNF'd
// negation (turning the input-bounded forall x (alpha -> phi) pattern
// into a guarded exists). This makes input-bounded rule evaluation cost
// proportional to the relations' sizes rather than |domain|^vars.
class Evaluator {
 public:
  explicit Evaluator(const EvalContext& ctx) : ctx_(ctx) {}

  StatusOr<Value> ResolveTerm(const Term& t, const Bindings& valuation) {
    switch (t.kind()) {
      case Term::Kind::kLiteral:
        return t.literal();
      case Term::Kind::kVariable: {
        const Value* v = valuation.Find(t.name());
        if (v == nullptr) {
          return Status::Internal("unbound variable: " + t.name());
        }
        return *v;
      }
      case Term::Kind::kConstantSymbol: {
        std::optional<Value> v = ctx_.ResolveConstant(t.name());
        if (!v.has_value()) {
          return Status::Internal("unbound constant symbol: " + t.name());
        }
        return *v;
      }
    }
    return Status::Internal("bad term kind");
  }

  StatusOr<bool> Eval(const Formula& f, Bindings& valuation) {
    switch (f.kind()) {
      case Formula::Kind::kTrue:
        return true;
      case Formula::Kind::kFalse:
        return false;
      case Formula::Kind::kAtom: {
        const Atom& atom = f.atom();
        const Relation* rel = ctx_.ResolveRelation(atom.relation, atom.prev);
        if (rel == nullptr || rel->empty()) return false;
        Tuple t;
        t.reserve(atom.terms.size());
        for (const Term& term : atom.terms) {
          WSV_ASSIGN_OR_RETURN(Value v, ResolveTerm(term, valuation));
          t.push_back(v);
        }
        return rel->Contains(t);
      }
      case Formula::Kind::kEquals: {
        WSV_ASSIGN_OR_RETURN(Value lhs, ResolveTerm(f.lhs(), valuation));
        WSV_ASSIGN_OR_RETURN(Value rhs, ResolveTerm(f.rhs(), valuation));
        return lhs == rhs;
      }
      case Formula::Kind::kNot: {
        WSV_ASSIGN_OR_RETURN(bool sub, Eval(*f.children()[0], valuation));
        return !sub;
      }
      case Formula::Kind::kAnd: {
        for (const FormulaPtr& c : f.children()) {
          WSV_ASSIGN_OR_RETURN(bool sub, Eval(*c, valuation));
          if (!sub) return false;
        }
        return true;
      }
      case Formula::Kind::kOr: {
        for (const FormulaPtr& c : f.children()) {
          WSV_ASSIGN_OR_RETURN(bool sub, Eval(*c, valuation));
          if (sub) return true;
        }
        return false;
      }
      case Formula::Kind::kExists:
      case Formula::Kind::kForall: {
        // Quantified variables shadow any outer bindings.
        std::vector<std::pair<std::string, Value>> saved;
        for (const std::string& v : f.variables()) {
          const Value* bound = valuation.Find(v);
          if (bound != nullptr) {
            saved.emplace_back(v, *bound);
            valuation.Erase(v);
          }
        }
        std::set<std::string> vars(f.variables().begin(),
                                   f.variables().end());
        StatusOr<bool> result = true;
        if (f.kind() == Formula::Kind::kExists) {
          result = EvalExists(std::move(vars), *f.body(), valuation);
        } else {
          // forall x phi == !exists x !phi; NNF re-exposes the guard of
          // the input-bounded pattern forall x (alpha -> phi).
          FormulaPtr negated = ToNNF(*Formula::Not(f.body()));
          result = EvalExists(std::move(vars), *negated, valuation);
          if (result.ok()) result = !*result;
        }
        for (const auto& [v, val] : saved) valuation.Set(v, val);
        return result;
      }
    }
    return Status::Internal("bad formula kind");
  }

  // Existential evaluation over the variable set `vars`.
  StatusOr<bool> EvalExists(std::set<std::string> vars, const Formula& body,
                            Bindings& valuation) {
    if (vars.empty()) return Eval(body, valuation);

    // Flatten conjunctions to find a guard atom.
    std::vector<const Formula*> conjuncts;
    FlattenAnd(body, &conjuncts);
    const Formula* guard = nullptr;
    for (const Formula* c : conjuncts) {
      if (c->kind() != Formula::Kind::kAtom) continue;
      // Usable iff it binds at least one quantified variable.
      for (const Term& t : c->atom().terms) {
        if (t.is_variable() && vars.count(t.name()) > 0) {
          guard = c;
          break;
        }
      }
      if (guard != nullptr) break;
    }

    if (guard != nullptr) {
      const Atom& atom = guard->atom();
      const Relation* rel = ctx_.ResolveRelation(atom.relation, atom.prev);
      if (rel == nullptr || rel->empty()) return false;  // guard unmatchable
      for (const Tuple& tuple : rel->tuples()) {
        std::vector<std::string> newly_bound;
        bool match = true;
        for (size_t i = 0; i < atom.terms.size() && match; ++i) {
          const Term& term = atom.terms[i];
          if (term.is_variable()) {
            const Value* bound = valuation.Find(term.name());
            if (bound != nullptr) {
              match = *bound == tuple[i];
            } else if (vars.count(term.name()) > 0) {
              valuation.Set(term.name(), tuple[i]);
              newly_bound.push_back(term.name());
              vars.erase(term.name());
            } else {
              // Free variable that should have been bound.
              match = false;
            }
          } else {
            StatusOr<Value> v = ResolveTerm(term, valuation);
            if (!v.ok()) return v.status();
            match = *v == tuple[i];
          }
        }
        StatusOr<bool> sub = true;
        if (match) {
          sub = EvalExistsRest(vars, conjuncts, guard, valuation);
        }
        for (const std::string& v : newly_bound) {
          valuation.Erase(v);
          vars.insert(v);
        }
        if (!sub.ok()) return sub.status();
        if (match && *sub) return true;
      }
      return false;
    }

    // Fallback: bind one variable over the active domain.
    std::string var = *vars.begin();
    vars.erase(vars.begin());
    if (domain_ == nullptr) domain_ = &ctx_.ActiveDomain();
    for (Value v : *domain_) {
      valuation.Set(var, v);
      StatusOr<bool> sub = EvalExists(vars, body, valuation);
      valuation.Erase(var);
      if (!sub.ok()) return sub.status();
      if (*sub) return true;
    }
    return false;
  }

 private:
  // Continues an existential after the guard bound some variables:
  // evaluates the remaining conjuncts with the still-unbound vars.
  StatusOr<bool> EvalExistsRest(std::set<std::string>& vars,
                                const std::vector<const Formula*>& conjuncts,
                                const Formula* guard, Bindings& valuation) {
    std::vector<FormulaPtr> rest;
    rest.reserve(conjuncts.size());
    for (const Formula* c : conjuncts) {
      if (c == guard) continue;
      rest.push_back(Clone(*c));
    }
    FormulaPtr body = Formula::And(std::move(rest));
    return EvalExists(vars, *body, valuation);
  }

  // Shallow re-wrap of a subformula as a shared pointer (the nodes are
  // immutable, so sharing children is safe).
  static FormulaPtr Clone(const Formula& f) {
    switch (f.kind()) {
      case Formula::Kind::kTrue:
        return Formula::True();
      case Formula::Kind::kFalse:
        return Formula::False();
      case Formula::Kind::kAtom:
        return Formula::MakeAtom(f.atom());
      case Formula::Kind::kEquals:
        return Formula::Equals(f.lhs(), f.rhs());
      case Formula::Kind::kNot:
        return Formula::Not(f.children()[0]);
      case Formula::Kind::kAnd: {
        std::vector<FormulaPtr> parts = f.children();
        return Formula::And(std::move(parts));
      }
      case Formula::Kind::kOr: {
        std::vector<FormulaPtr> parts = f.children();
        return Formula::Or(std::move(parts));
      }
      case Formula::Kind::kExists:
        return Formula::Exists(f.variables(), f.body());
      case Formula::Kind::kForall:
        return Formula::Forall(f.variables(), f.body());
    }
    return Formula::True();
  }

  const EvalContext& ctx_;
  const std::vector<Value>* domain_ = nullptr;  // lazily materialized
};

// Query enumeration with the same guard-driven strategy, collecting all
// satisfying head-variable assignments.
class QueryEnumerator {
 public:
  QueryEnumerator(const EvalContext& ctx,
                  const std::vector<std::string>& head_vars)
      : ctx_(ctx), head_vars_(head_vars), evaluator_(ctx) {}

  StatusOr<std::set<Tuple>> Run(const Formula& body, Bindings valuation) {
    std::set<std::string> unbound;
    for (const std::string& v : head_vars_) {
      if (valuation.Find(v) == nullptr) unbound.insert(v);
    }
    WSV_RETURN_IF_ERROR(Enumerate(unbound, body, valuation));
    return std::move(results_);
  }

 private:
  Status Emit(const Bindings& valuation, const Formula& body) {
    Bindings val = valuation;
    WSV_ASSIGN_OR_RETURN(bool holds, evaluator_.Eval(body, val));
    if (!holds) return Status::OK();
    Tuple t;
    t.reserve(head_vars_.size());
    for (const std::string& v : head_vars_) {
      const Value* bound = val.Find(v);
      if (bound == nullptr) {
        return Status::Internal("query variable unbound at emit: " + v);
      }
      t.push_back(*bound);
    }
    results_.insert(std::move(t));
    return Status::OK();
  }

  Status Enumerate(std::set<std::string> unbound, const Formula& body,
                   Bindings& valuation) {
    if (unbound.empty()) return Emit(valuation, body);

    // Disjunction: enumerate each branch (results are a union). The
    // emitted tuples re-check the *branch*, which is sound for unions.
    if (body.kind() == Formula::Kind::kOr) {
      for (const FormulaPtr& c : body.children()) {
        WSV_RETURN_IF_ERROR(Enumerate(unbound, *c, valuation));
      }
      return Status::OK();
    }

    // Find a guard atom among the conjuncts that binds head variables.
    std::vector<const Formula*> conjuncts;
    FlattenAnd(body, &conjuncts);
    const Formula* guard = nullptr;
    for (const Formula* c : conjuncts) {
      if (c->kind() != Formula::Kind::kAtom) continue;
      for (const Term& t : c->atom().terms) {
        if (t.is_variable() && unbound.count(t.name()) > 0) {
          guard = c;
          break;
        }
      }
      if (guard != nullptr) break;
    }
    if (guard != nullptr) {
      const Atom& atom = guard->atom();
      const Relation* rel = ctx_.ResolveRelation(atom.relation, atom.prev);
      if (rel == nullptr) return Status::OK();
      for (const Tuple& tuple : rel->tuples()) {
        std::vector<std::string> newly_bound;
        bool match = true;
        for (size_t i = 0; i < atom.terms.size() && match; ++i) {
          const Term& term = atom.terms[i];
          if (term.is_variable() && unbound.count(term.name()) > 0) {
            const Value* bound = valuation.Find(term.name());
            if (bound != nullptr) {
              match = *bound == tuple[i];
            } else {
              valuation.Set(term.name(), tuple[i]);
              newly_bound.push_back(term.name());
            }
          } else if (term.is_variable()) {
            const Value* bound = valuation.Find(term.name());
            // Unbound non-head variables (quantified deeper) cannot be
            // constrained here; skip the guard constraint for them.
            if (bound != nullptr) match = *bound == tuple[i];
          } else {
            StatusOr<Value> v =
                evaluator_.ResolveTerm(term, valuation);
            if (!v.ok()) return v.status();
            match = *v == tuple[i];
          }
        }
        if (match) {
          std::set<std::string> rest = unbound;
          for (const std::string& v : newly_bound) rest.erase(v);
          WSV_RETURN_IF_ERROR(Enumerate(std::move(rest), body, valuation));
        }
        for (const std::string& v : newly_bound) valuation.Erase(v);
      }
      return Status::OK();
    }

    // Fallback: bind one variable over the active domain.
    std::string var = *unbound.begin();
    unbound.erase(unbound.begin());
    if (domain_ == nullptr) domain_ = &ctx_.ActiveDomain();
    for (Value v : *domain_) {
      valuation.Set(var, v);
      WSV_RETURN_IF_ERROR(Enumerate(unbound, body, valuation));
      valuation.Erase(var);
    }
    return Status::OK();
  }

  const EvalContext& ctx_;
  const std::vector<std::string>& head_vars_;
  Evaluator evaluator_;
  const std::vector<Value>* domain_ = nullptr;
  std::set<Tuple> results_;
};

// QueryEnumerator::Enumerate's plan, without the data: a disjunction
// costs its costliest branch, a guard atom binds its unbound variables
// for free, and otherwise one variable takes a domain loop.
// NOLINTNEXTLINE(misc-no-recursion)
int DomainLoops(const Formula& body, std::set<std::string> unbound) {
  if (unbound.empty()) return 0;
  if (body.kind() == Formula::Kind::kOr) {
    int worst = 0;
    for (const FormulaPtr& c : body.children()) {
      worst = std::max(worst, DomainLoops(*c, unbound));
    }
    return worst;
  }
  std::vector<const Formula*> conjuncts;
  FlattenAnd(body, &conjuncts);
  for (const Formula* c : conjuncts) {
    if (c->kind() != Formula::Kind::kAtom) continue;
    bool binds = false;
    for (const Term& t : c->atom().terms) {
      if (t.is_variable() && unbound.erase(t.name()) > 0) binds = true;
    }
    if (binds) return DomainLoops(body, std::move(unbound));
  }
  unbound.erase(unbound.begin());
  return 1 + DomainLoops(body, std::move(unbound));
}

}  // namespace

int QueryDomainLoops(const Formula& formula,
                     const std::vector<std::string>& vars) {
  return DomainLoops(formula, std::set<std::string>(vars.begin(), vars.end()));
}

StatusOr<bool> Evaluate(const Formula& formula, const EvalContext& ctx,
                        const Valuation& valuation) {
  WSV_COUNT1("fo/interp_evals");
  Evaluator ev(ctx);
  Bindings val(valuation);
  return ev.Eval(formula, val);
}

StatusOr<std::set<Tuple>> EvaluateQuery(const Formula& formula,
                                        const std::vector<std::string>& vars,
                                        const EvalContext& ctx,
                                        const Valuation& valuation) {
  // Detect duplicate head variables early (validation also rejects them).
  std::set<std::string> distinct(vars.begin(), vars.end());
  if (distinct.size() != vars.size()) {
    return Status::InvalidArgument("repeated query head variable");
  }
  WSV_COUNT1("fo/interp_evals");
  QueryEnumerator qe(ctx, vars);
  return qe.Run(formula, Bindings(valuation));
}

}  // namespace wsv
