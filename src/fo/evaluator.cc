#include "fo/evaluator.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "fo/plan.h"
#include "fo/rewrite.h"
#include "obs/metrics.h"

namespace wsv {

void EvalContext::AddLayer(const Instance* instance) {
  if (num_layers_ == kMaxLayers) std::abort();  // a caller bug
  layers_[num_layers_++] = instance;
  domain_valid_ = false;
}

void EvalContext::SetConstant(NameId name, Value v) {
  constant_overrides_.Set(name, v);
  domain_valid_ = false;
}

void EvalContext::SetConstant(const std::string& name, Value v) {
  CountNameLookup();
  SetConstant(InternName(name), v);
}

const Relation* EvalContext::ResolveRelation(const std::string& name,
                                             bool prev) const {
  CountNameLookup();
  const NameId id = FindName(name);
  return id == kNoName ? nullptr : ResolveRelation(id, prev);
}

std::optional<Value> EvalContext::ResolveConstant(NameId name) const {
  if (probes_ != nullptr) probes_->Constant(name);
  if (const Value* v = constant_overrides_.Find(name)) return *v;
  if (constant_layer_ != nullptr) {
    if (const Value* v = constant_layer_->Find(name)) return *v;
  }
  for (size_t i = 0; i < num_layers_; ++i) {
    if (const Value* v = layers_[i]->constants().Find(name)) return *v;
  }
  return std::nullopt;
}

std::optional<Value> EvalContext::ResolveConstant(
    const std::string& name) const {
  CountNameLookup();
  const NameId id = FindName(name);
  if (id == kNoName) return std::nullopt;
  return ResolveConstant(id);
}

const std::vector<Value>& EvalContext::ActiveDomain() const {
  if (!domain_valid_) {
    std::set<Value> dom = extra_domain_;
    for (size_t i = 0; i < num_layers_; ++i) {
      dom.insert(layers_[i]->domain().begin(), layers_[i]->domain().end());
    }
    if (prev_layer_ != nullptr) {
      dom.insert(prev_layer_->domain().begin(), prev_layer_->domain().end());
    }
    for (const auto& [name, v] : constant_overrides_.entries()) dom.insert(v);
    if (constant_layer_ != nullptr) {
      for (const auto& [name, v] : constant_layer_->entries()) dom.insert(v);
    }
    domain_cache_.assign(dom.begin(), dom.end());
    domain_valid_ = true;
  }
  return domain_cache_;
}

bool EvalContext::InActiveDomain(Value v) const {
  if (extra_domain_.count(v) > 0) return true;
  for (size_t i = 0; i < num_layers_; ++i) {
    if (layers_[i]->domain().count(v) > 0) return true;
  }
  if (prev_layer_ != nullptr && prev_layer_->domain().count(v) > 0) {
    return true;
  }
  for (const auto& [name, c] : constant_overrides_.entries()) {
    if (c == v) return true;
  }
  if (constant_layer_ != nullptr) {
    for (const auto& [name, c] : constant_layer_->entries()) {
      if (c == v) return true;
    }
  }
  return false;
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

// Evaluation uses guard-driven joins (fo/plan.h): an existential
// quantifier whose body contains a positive atom conjunct binds its
// variables by iterating that atom's relation instead of the whole
// active domain, and an equality conjunct x = t binds x to t's value
// alone; universal quantifiers evaluate as negated existentials of the
// NNF'd negation (turning the input-bounded forall x (alpha -> phi)
// pattern into a guarded exists). This makes input-bounded rule
// evaluation cost proportional to the relations' sizes rather than
// |domain|^vars.
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
        std::optional<Value> v = ctx_.ResolveConstant(t.symbol());
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
        const Relation* rel = ctx_.ResolveRelation(atom.relation_id, atom.prev);
        if (ctx_.probes() != nullptr) LogAtom(atom, valuation);
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

  // Reports the fact `atom` probes under `valuation`, or its whole
  // relation when a term does not resolve.
  void LogAtom(const Atom& atom, const Bindings& valuation) {
    Tuple t;
    t.reserve(atom.terms.size());
    for (const Term& term : atom.terms) {
      StatusOr<Value> v = ResolveTerm(term, valuation);
      if (!v.ok()) {
        ctx_.probes()->Relation(atom.relation_id);
        return;
      }
      t.push_back(*v);
    }
    ctx_.probes()->Fact(atom.relation_id, t);
  }

  // Existential evaluation over the variable set `vars`.
  StatusOr<bool> EvalExists(std::set<std::string> vars, const Formula& body,
                            Bindings& valuation) {
    if (vars.empty()) return Eval(body, valuation);
    std::vector<const Formula*> conjuncts;
    FlattenAnd(body, &conjuncts);
    return EvalExistsStep(vars, conjuncts, valuation);
  }

  // The value an equality pin binds: nullopt when `t` does not resolve
  // (an unbound variable or constant symbol), which leaves the pinned
  // variable to an active-domain loop.
  std::optional<Value> PinnedValue(const Term& t, const Bindings& valuation) {
    StatusOr<Value> v = ResolveTerm(t, valuation);
    if (!v.ok()) return std::nullopt;
    return *v;
  }

  // Calls `body(v)` for each value the unguarded variable of one planning
  // step takes: the pinned value alone when it resolves (none when it is
  // outside the active domain), else every active-domain value. Stops at
  // the first error or the first `true`.
  template <typename Fn>
  StatusOr<bool> ForEachUnguardedValue(const std::optional<Value>& pinned,
                                       Fn&& body) {
    if (pinned.has_value()) {
      if (!ctx_.InActiveDomain(*pinned)) return false;
      return body(*pinned);
    }
    if (domain_ == nullptr) domain_ = &ctx_.ActiveDomain();
    for (Value v : *domain_) {
      WSV_ASSIGN_OR_RETURN(bool sub, body(v));
      if (sub) return true;
    }
    return false;
  }

 private:
  // One planning step of an existential (fo/plan.h): binds one guard's,
  // pin's or domain loop's variables of `vars`, then recurses on the
  // rest. With `vars` empty, evaluates `conjuncts` left to right.
  // `vars` is restored on every non-error return.
  StatusOr<bool> EvalExistsStep(std::set<std::string>& vars,
                                const std::vector<const Formula*>& conjuncts,
                                Bindings& valuation) {
    if (vars.empty()) {
      for (const Formula* c : conjuncts) {
        WSV_ASSIGN_OR_RETURN(bool sub, Eval(*c, valuation));
        if (!sub) return false;
      }
      return true;
    }

    const Formula* guard = FindGuard(conjuncts, vars);
    if (guard != nullptr) {
      const Atom& atom = guard->atom();
      const Relation* rel = ctx_.ResolveRelation(atom.relation_id, atom.prev);
      if (ctx_.probes() != nullptr) ctx_.probes()->Relation(atom.relation_id);
      if (rel == nullptr || rel->empty()) return false;  // guard unmatchable
      std::vector<const Formula*> rest;
      rest.reserve(conjuncts.size());
      for (const Formula* c : conjuncts) {
        if (c != guard) rest.push_back(c);
      }
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
        if (match) sub = EvalExistsStep(vars, rest, valuation);
        for (const std::string& v : newly_bound) {
          valuation.Erase(v);
          vars.insert(v);
        }
        if (!sub.ok()) return sub.status();
        if (match && *sub) return true;
      }
      return false;
    }

    // No guard: bind a pinned variable to its value, or else one
    // variable over the active domain.
    const Pin pin = FindPin(conjuncts, vars);
    const std::string var = pin.var != nullptr ? pin.var->name()
                                               : *vars.begin();
    std::optional<Value> pinned;
    if (pin.var != nullptr) pinned = PinnedValue(*pin.value, valuation);
    vars.erase(var);
    StatusOr<bool> result =
        ForEachUnguardedValue(pinned, [&](Value v) -> StatusOr<bool> {
          valuation.Set(var, v);
          StatusOr<bool> sub = EvalExistsStep(vars, conjuncts, valuation);
          valuation.Erase(var);
          return sub;
        });
    vars.insert(var);
    return result;
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
    const Formula* guard = FindGuard(conjuncts, unbound);
    if (guard != nullptr) {
      const Atom& atom = guard->atom();
      const Relation* rel = ctx_.ResolveRelation(atom.relation_id, atom.prev);
      if (ctx_.probes() != nullptr) ctx_.probes()->Relation(atom.relation_id);
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

    // No guard: bind a pinned head variable to its value, or else one
    // head variable over the active domain. Every binding enumerates.
    const Pin pin = FindPin(conjuncts, unbound);
    const std::string var = pin.var != nullptr ? pin.var->name()
                                               : *unbound.begin();
    std::optional<Value> pinned;
    if (pin.var != nullptr) {
      pinned = evaluator_.PinnedValue(*pin.value, valuation);
    }
    unbound.erase(var);
    auto enumerate = [&](Value v) -> StatusOr<bool> {
      valuation.Set(var, v);
      WSV_RETURN_IF_ERROR(Enumerate(unbound, body, valuation));
      valuation.Erase(var);
      return false;  // no early exit: every binding enumerates
    };
    return evaluator_.ForEachUnguardedValue(pinned, enumerate).status();
  }

  const EvalContext& ctx_;
  const std::vector<std::string>& head_vars_;
  Evaluator evaluator_;
  std::set<Tuple> results_;
};

// QueryEnumerator::Enumerate's plan, without the data: a disjunction
// costs its costliest branch, a guard atom binds its unbound variables
// and a pin its variable for free, and otherwise one variable takes a
// domain loop.
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
  if (const Formula* guard = FindGuard(conjuncts, unbound)) {
    for (const Term& t : guard->atom().terms) {
      if (t.is_variable()) unbound.erase(t.name());
    }
    return DomainLoops(body, std::move(unbound));
  }
  const Pin pin = FindPin(conjuncts, unbound);
  if (pin.var != nullptr) {
    unbound.erase(pin.var->name());
    return DomainLoops(body, std::move(unbound));
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
