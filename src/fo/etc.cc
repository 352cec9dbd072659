#include "fo/etc.h"

#include <map>
#include <set>

#include "common/str_util.h"

namespace wsv {

namespace {

EtcPtr MakeNode(EtcFormula::Kind kind) {
  struct Access : EtcFormula {
    explicit Access(Kind k) : EtcFormula(k) {}
  };
  return std::make_shared<Access>(kind);
}

EtcFormula* Mutable(const EtcPtr& f) {
  return const_cast<EtcFormula*>(f.get());
}

}  // namespace

EtcPtr EtcFormula::Fo(FormulaPtr f) {
  EtcPtr node = MakeNode(Kind::kFo);
  Mutable(node)->fo_ = std::move(f);
  return node;
}

EtcPtr EtcFormula::And(std::vector<EtcPtr> parts) {
  EtcPtr node = MakeNode(Kind::kAnd);
  Mutable(node)->children_ = std::move(parts);
  return node;
}

EtcPtr EtcFormula::Or(std::vector<EtcPtr> parts) {
  EtcPtr node = MakeNode(Kind::kOr);
  Mutable(node)->children_ = std::move(parts);
  return node;
}

EtcPtr EtcFormula::Exists(std::vector<std::string> vars, EtcPtr body) {
  EtcPtr node = MakeNode(Kind::kExists);
  Mutable(node)->vars_ = std::move(vars);
  Mutable(node)->children_.push_back(std::move(body));
  return node;
}

EtcPtr EtcFormula::Tc(std::vector<std::string> xs,
                      std::vector<std::string> ys, EtcPtr body,
                      std::vector<Term> source, std::vector<Term> target) {
  EtcPtr node = MakeNode(Kind::kTc);
  Mutable(node)->vars_ = std::move(xs);
  Mutable(node)->ys_ = std::move(ys);
  Mutable(node)->children_.push_back(std::move(body));
  Mutable(node)->source_ = std::move(source);
  Mutable(node)->target_ = std::move(target);
  return node;
}

std::string EtcFormula::ToString() const {
  switch (kind_) {
    case Kind::kFo:
      return fo_->ToString();
    case Kind::kAnd:
    case Kind::kOr: {
      std::string sep = kind_ == Kind::kAnd ? " & " : " | ";
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += sep;
        out += children_[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kExists:
      return "exists " + Join(vars_, ", ") + " . (" +
             children_[0]->ToString() + ")";
    case Kind::kTc: {
      std::string out = "[TC_{" + Join(vars_, ",") + ";" + Join(ys_, ",") +
                        "} " + children_[0]->ToString() + "](";
      for (size_t i = 0; i < source_.size(); ++i) {
        if (i > 0) out += ",";
        out += source_[i].ToString();
      }
      out += ";";
      for (size_t i = 0; i < target_.size(); ++i) {
        if (i > 0) out += ",";
        out += target_[i].ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

namespace {

StatusOr<Value> ResolveEtcTerm(const Term& t, const EvalContext& ctx,
                               const Valuation& valuation) {
  switch (t.kind()) {
    case Term::Kind::kLiteral:
      return t.literal();
    case Term::Kind::kVariable: {
      auto it = valuation.find(t.name());
      if (it == valuation.end()) {
        return Status::Internal("unbound variable in E+TC term: " + t.name());
      }
      return it->second;
    }
    case Term::Kind::kConstantSymbol: {
      std::optional<Value> v = ctx.ResolveConstant(t.symbol());
      if (!v.has_value()) {
        return Status::Internal("unbound constant in E+TC term: " + t.name());
      }
      return *v;
    }
  }
  return Status::Internal("bad term kind");
}

StatusOr<bool> EvalNode(const EtcFormula& f, const EvalContext& ctx,
                        Valuation& valuation);

// Enumerates assignments for vars[i..] over the domain; existential.
StatusOr<bool> EvalExists(const std::vector<std::string>& vars, size_t i,
                          const EtcFormula& body, const EvalContext& ctx,
                          Valuation& valuation,
                          Row domain) {
  if (i == vars.size()) return EvalNode(body, ctx, valuation);
  auto saved_it = valuation.find(vars[i]);
  std::optional<Value> saved;
  if (saved_it != valuation.end()) saved = saved_it->second;
  bool found = false;
  Status failure = Status::OK();
  for (Value v : domain) {
    valuation[vars[i]] = v;
    StatusOr<bool> sub = EvalExists(vars, i + 1, body, ctx, valuation, domain);
    if (!sub.ok()) {
      failure = sub.status();
      break;
    }
    if (*sub) {
      found = true;
      break;
    }
  }
  if (saved.has_value()) {
    valuation[vars[i]] = *saved;
  } else {
    valuation.erase(vars[i]);
  }
  if (!failure.ok()) return failure;
  return found;
}

StatusOr<bool> EvalNode(const EtcFormula& f, const EvalContext& ctx,
                        Valuation& valuation) {
  switch (f.kind()) {
    case EtcFormula::Kind::kFo:
      return OracleEvaluate(*f.fo(), ctx, valuation);
    case EtcFormula::Kind::kAnd:
      for (const EtcPtr& c : f.children()) {
        WSV_ASSIGN_OR_RETURN(bool sub, EvalNode(*c, ctx, valuation));
        if (!sub) return false;
      }
      return true;
    case EtcFormula::Kind::kOr:
      for (const EtcPtr& c : f.children()) {
        WSV_ASSIGN_OR_RETURN(bool sub, EvalNode(*c, ctx, valuation));
        if (sub) return true;
      }
      return false;
    case EtcFormula::Kind::kExists: {
      const Row domain = ctx.ActiveDomain();
      return EvalExists(f.variables(), 0, *f.children()[0], ctx, valuation,
                        domain);
    }
    case EtcFormula::Kind::kTc: {
      size_t k = f.tc_xs().size();
      if (f.tc_ys().size() != k || f.tc_source().size() != k ||
          f.tc_target().size() != k) {
        return Status::InvalidArgument("TC arity mismatch");
      }
      Tuple src(k), dst(k);
      for (size_t i = 0; i < k; ++i) {
        WSV_ASSIGN_OR_RETURN(src[i],
                             ResolveEtcTerm(f.tc_source()[i], ctx, valuation));
        WSV_ASSIGN_OR_RETURN(dst[i],
                             ResolveEtcTerm(f.tc_target()[i], ctx, valuation));
      }
      // TC is reflexive on its arguments by the usual convention used in
      // the reduction (a path of length >= 0); include src itself.
      if (src == dst) return true;
      const Row domain = ctx.ActiveDomain();
      // BFS from src over edges defined by body(x; y).
      std::set<Tuple> visited{src};
      std::vector<Tuple> frontier{src};
      // Enumerate candidate successor tuples.
      std::vector<Tuple> all_tuples;
      {
        if (k == 0) return src == dst;
        std::vector<size_t> idx(k, 0);
        if (domain.empty()) return false;
        while (true) {
          Tuple t(k);
          for (size_t i = 0; i < k; ++i) t[i] = domain[idx[i]];
          all_tuples.push_back(std::move(t));
          size_t j = 0;
          while (j < k) {
            if (++idx[j] < domain.size()) break;
            idx[j] = 0;
            ++j;
          }
          if (j == k) break;
        }
      }
      while (!frontier.empty()) {
        Tuple cur = frontier.back();
        frontier.pop_back();
        for (const Tuple& next : all_tuples) {
          if (visited.count(next) > 0) continue;
          Valuation inner = valuation;
          for (size_t i = 0; i < k; ++i) {
            inner[f.tc_xs()[i]] = cur[i];
            inner[f.tc_ys()[i]] = next[i];
          }
          WSV_ASSIGN_OR_RETURN(bool edge,
                               EvalNode(*f.children()[0], ctx, inner));
          if (!edge) continue;
          if (next == dst) return true;
          visited.insert(next);
          frontier.push_back(next);
        }
      }
      return false;
    }
  }
  return Status::Internal("bad E+TC kind");
}

// Enumerates all instances over `relations` with the fixed domain,
// invoking `fn` on each; stops early when fn returns true.
StatusOr<bool> EnumerateInstances(
    const std::vector<EtcRelationSpec>& relations, size_t rel_idx,
    const std::vector<Value>& domain, Instance& current,
    const std::function<StatusOr<bool>(const Instance&)>& fn) {
  if (rel_idx == relations.size()) return fn(current);
  const EtcRelationSpec& spec = relations[rel_idx];
  // All tuples of the right arity.
  std::vector<Tuple> tuples;
  if (spec.arity == 0) {
    tuples.push_back(Tuple{});
  } else {
    std::vector<size_t> idx(spec.arity, 0);
    if (!domain.empty()) {
      while (true) {
        Tuple t(spec.arity);
        for (int i = 0; i < spec.arity; ++i) t[i] = domain[idx[i]];
        tuples.push_back(std::move(t));
        int j = 0;
        while (j < spec.arity) {
          if (++idx[j] < domain.size()) break;
          idx[j] = 0;
          ++j;
        }
        if (j == spec.arity) break;
      }
    }
  }
  // Enumerate all subsets via a counter (tuples.size() <= ~16 for the
  // tiny vocabularies this is meant for).
  if (tuples.size() > 20) {
    return Status::ResourceExhausted(
        "BoundedSatisfiable: relation " + spec.name + " has " +
        std::to_string(tuples.size()) + " candidate tuples; too many");
  }
  uint64_t limit = uint64_t{1} << tuples.size();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    WSV_RETURN_IF_ERROR(current.EnsureRelation(spec.name, spec.arity));
    Relation* rel = current.MutableRelation(spec.name);
    rel->Clear();
    for (size_t i = 0; i < tuples.size(); ++i) {
      if (mask & (uint64_t{1} << i)) rel->Insert(tuples[i]);
    }
    WSV_ASSIGN_OR_RETURN(
        bool done, EnumerateInstances(relations, rel_idx + 1, domain, current,
                                      fn));
    if (done) return true;
  }
  return false;
}

}  // namespace

StatusOr<bool> EvaluateEtc(const EtcFormula& f, const EvalContext& ctx,
                           const Valuation& valuation) {
  Valuation val = valuation;
  return EvalNode(f, ctx, val);
}

StatusOr<std::optional<Instance>> BoundedSatisfiable(
    const EtcFormula& f, const std::vector<EtcRelationSpec>& relations,
    int max_domain) {
  for (int n = 0; n <= max_domain; ++n) {
    std::vector<Value> domain;
    for (int i = 0; i < n; ++i) {
      domain.push_back(Value::Intern(StrCat({"e", std::to_string(i)})));
    }
    Instance current;
    for (Value v : domain) current.AddDomainValue(v);
    std::optional<Instance> witness;
    auto check = [&](const Instance& inst) -> StatusOr<bool> {
      EvalContext ctx;
      ctx.AddLayer(&inst);
      WSV_ASSIGN_OR_RETURN(bool sat, EvaluateEtc(f, ctx));
      if (sat) witness = inst;
      return sat;
    };
    WSV_ASSIGN_OR_RETURN(bool found,
                         EnumerateInstances(relations, 0, domain, current,
                                            check));
    if (found) return witness;
  }
  return std::optional<Instance>();
}

}  // namespace wsv
