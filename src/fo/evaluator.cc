#include "fo/evaluator.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

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

Row EvalContext::ActiveDomain() const {
  if (!domain_valid_) {
    // Gather every source into the kept vector, then sort and dedup in
    // place: no set nodes, and no allocation while the union fits inline.
    SmallVector<Value, kInlineDomain>& dom = domain_cache_;
    dom.clear();
    auto append = [&dom](Row values) {
      dom.insert(dom.size(), values.data(), values.data() + values.size());
    };
    for (size_t i = 0; i < num_layers_; ++i) append(layers_[i]->domain());
    if (prev_layer_ != nullptr) append(prev_layer_->domain());
    append(Row(extra_domain_.data(), extra_domain_.size()));
    for (const auto& [name, v] : constant_overrides_.entries()) {
      dom.push_back(v);
    }
    if (constant_layer_ != nullptr) {
      for (const auto& [name, v] : constant_layer_->entries()) {
        dom.push_back(v);
      }
    }
    std::sort(dom.begin(), dom.end());
    dom.truncate(
        static_cast<size_t>(std::unique(dom.begin(), dom.end()) - dom.begin()));
    domain_valid_ = true;
  }
  return Row(domain_cache_.data(), domain_cache_.size());
}

bool EvalContext::InActiveDomain(Value v) const {
  for (Value e : extra_domain_) {
    if (e == v) return true;
  }
  for (size_t i = 0; i < num_layers_; ++i) {
    if (layers_[i]->InDomain(v)) return true;
  }
  if (prev_layer_ != nullptr && prev_layer_->InDomain(v)) return true;
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

StatusOr<Value> ResolveTerm(const Term& t, const EvalContext& ctx,
                            const Valuation& val) {
  switch (t.kind()) {
    case Term::Kind::kLiteral:
      return t.literal();
    case Term::Kind::kVariable: {
      auto it = val.find(t.name());
      if (it == val.end()) {
        return Status::Internal("unbound variable: " + t.name());
      }
      return it->second;
    }
    case Term::Kind::kConstantSymbol: {
      std::optional<Value> v = ctx.ResolveConstant(t.symbol());
      if (!v.has_value()) {
        return Status::Internal("unbound constant symbol: " + t.name());
      }
      return *v;
    }
  }
  return Status::Internal("bad term kind");
}

StatusOr<bool> Eval(const Formula& f, const EvalContext& ctx,
                    Valuation& val);

// Whether some (`exists`) or every assignment of vars[i..] over the
// active domain satisfies `body`.
// NOLINTNEXTLINE(misc-no-recursion)
StatusOr<bool> Quantify(bool exists, const std::vector<std::string>& vars,
                        size_t i, const Formula& body, const EvalContext& ctx,
                        Valuation& val) {
  if (i == vars.size()) return Eval(body, ctx, val);
  for (Value v : ctx.ActiveDomain()) {
    val[vars[i]] = v;
    WSV_ASSIGN_OR_RETURN(bool sub,
                         Quantify(exists, vars, i + 1, body, ctx, val));
    if (sub == exists) return exists;
  }
  return !exists;
}

// NOLINTNEXTLINE(misc-no-recursion)
StatusOr<bool> Eval(const Formula& f, const EvalContext& ctx,
                    Valuation& val) {
  switch (f.kind()) {
    case Formula::Kind::kTrue:
      return true;
    case Formula::Kind::kFalse:
      return false;
    case Formula::Kind::kAtom: {
      const Atom& atom = f.atom();
      const Relation* rel = ctx.ResolveRelation(atom.relation_id, atom.prev);
      if (rel == nullptr || rel->empty()) return false;
      Tuple t;
      t.reserve(atom.terms.size());
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

}  // namespace

StatusOr<bool> OracleEvaluate(const Formula& formula, const EvalContext& ctx,
                              const Valuation& valuation) {
  WSV_COUNT1("fo/interp_evals");
  Valuation val = valuation;
  return Eval(formula, ctx, val);
}

StatusOr<std::set<Tuple>> OracleEvaluateQuery(
    const Formula& formula, const std::vector<std::string>& vars,
    const EvalContext& ctx, const Valuation& valuation) {
  if (std::set<std::string>(vars.begin(), vars.end()).size() != vars.size()) {
    return Status::InvalidArgument("repeated query head variable");
  }
  WSV_COUNT1("fo/interp_evals");
  std::set<Tuple> out;
  const Row dom = ctx.ActiveDomain();
  if (dom.empty() && !vars.empty()) return out;
  Valuation val = valuation;
  Tuple t(vars.size());
  // Odometer over domain^|vars|.
  std::vector<size_t> idx(vars.size(), 0);
  for (;;) {
    for (size_t i = 0; i < vars.size(); ++i) {
      t[i] = dom[idx[i]];
      val[vars[i]] = t[i];
    }
    WSV_ASSIGN_OR_RETURN(bool holds, Eval(formula, ctx, val));
    if (holds) out.insert(t);
    size_t i = 0;
    while (i < vars.size() && ++idx[i] == dom.size()) idx[i++] = 0;
    if (i == vars.size()) return out;
  }
}

}  // namespace wsv
