#include "verify/db_enum.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace wsv {

std::vector<Value> ServiceRuleLiterals(const WebService& service) {
  std::set<Value> lits;
  auto collect = [&](const FormulaPtr& body) {
    std::set<Value> sub = body->Literals();
    lits.insert(sub.begin(), sub.end());
  };
  for (const PageSchema& page : service.pages()) {
    for (const InputRule& r : page.input_rules) collect(r.body);
    for (const StateRule& r : page.state_rules) collect(r.body);
    for (const ActionRule& r : page.action_rules) collect(r.body);
    for (const TargetRule& r : page.target_rules) collect(r.body);
  }
  return std::vector<Value>(lits.begin(), lits.end());
}

namespace {

// Enumerates subsets of `tuples` of size <= max_tuples (or all subsets if
// max_tuples < 0) into the relation named `name`, recursing into `next`.
class DbEnumerator {
 public:
  DbEnumerator(const WebService& service, const DbEnumOptions& options,
               const std::function<StatusOr<bool>(const Instance&)>& visit)
      : options_(options), visit_(visit) {
    std::set<Value> dom;
    for (Value v : ServiceRuleLiterals(service)) dom.insert(v);
    for (Value v : options.base_values) dom.insert(v);
    for (int i = 0; i < options.fresh_values; ++i) {
      Value v = Value::Intern("d" + std::to_string(i));
      // Only values the rules/property cannot name are interchangeable;
      // a "fresh" value that collides with a literal is pinned.
      if (dom.insert(v).second) fresh_.push_back(v);
    }
    domain_.assign(dom.begin(), dom.end());
    relations_ = service.vocab().RelationsOfKind(SymbolKind::kDatabase);
    for (const std::string& c : service.vocab().constants()) {
      if (!service.vocab().IsInputConstant(c)) {
        db_constants_.push_back(InternName(c));
      }
    }
  }

  StatusOr<bool> Run() {
    Instance current;
    for (Value v : domain_) current.AddDomainValue(v);
    return FillRelation(0, current);
  }

 private:
  std::vector<Tuple> AllTuples(int arity) const {
    std::vector<Tuple> out;
    if (arity == 0) {
      out.push_back(Tuple{});
      return out;
    }
    if (domain_.empty()) return out;
    std::vector<size_t> idx(arity, 0);
    while (true) {
      Tuple t(arity);
      for (int i = 0; i < arity; ++i) t[i] = domain_[idx[i]];
      out.push_back(std::move(t));
      int k = 0;
      while (k < arity) {
        if (++idx[k] < domain_.size()) break;
        idx[k] = 0;
        ++k;
      }
      if (k == arity) break;
    }
    return out;
  }

  StatusOr<bool> FillRelation(size_t rel_idx, Instance& current) {
    if (rel_idx == relations_.size()) return FillConstant(0, current);
    const RelationSymbol& sym = relations_[rel_idx];
    WSV_RETURN_IF_ERROR(current.EnsureRelation(sym.id, sym.arity));
    std::vector<Tuple> tuples = AllTuples(sym.arity);
    Relation* rel = current.MutableRelation(sym.id);
    // Enumerate subsets up to the cap via choose-k recursion.
    std::vector<size_t> chosen;
    size_t cap = options_.max_tuples_per_relation < 0
                     ? tuples.size()
                     : static_cast<size_t>(options_.max_tuples_per_relation);
    return ChooseTuples(rel_idx, current, rel, tuples, chosen, 0, cap);
  }

  StatusOr<bool> ChooseTuples(size_t rel_idx, Instance& current,
                              Relation* rel,
                              const std::vector<Tuple>& tuples,
                              std::vector<size_t>& chosen, size_t start,
                              size_t cap) {
    // Visit the current subset, then try extending it.
    {
      rel->Clear();
      for (size_t i : chosen) rel->Insert(tuples[i]);
      WSV_ASSIGN_OR_RETURN(bool stop, FillRelation(rel_idx + 1, current));
      if (stop) return true;
    }
    if (chosen.size() >= cap) return false;
    for (size_t i = start; i < tuples.size(); ++i) {
      chosen.push_back(i);
      WSV_ASSIGN_OR_RETURN(
          bool stop,
          ChooseTuples(rel_idx, current, rel, tuples, chosen, i + 1, cap));
      chosen.pop_back();
      if (stop) return true;
    }
    return false;
  }

  // Nothing in the service, the property, or the run semantics can name
  // a purely fresh value, so instances that differ only by a permutation
  // of fresh_ are isomorphic and get identical verdicts. Visit exactly
  // one representative per orbit: the instance that is minimal under
  // every fresh-value permutation (in particular, any instance using d1
  // before d0 relabels to a strictly smaller one and is skipped). With
  // <= 2 interchangeable values this costs one relabel+compare per
  // candidate; the factorial is bounded by the tiny fresh_values option.
  bool IsOrbitMinimal(const Instance& current) const {
    if (fresh_.size() < 2) return true;
    std::vector<size_t> perm(fresh_.size());
    std::iota(perm.begin(), perm.end(), 0);
    while (std::next_permutation(perm.begin(), perm.end())) {
      if (RelabeledIsSmaller(current, perm)) return false;
    }
    return true;
  }

  bool RelabeledIsSmaller(const Instance& current,
                          const std::vector<size_t>& perm) const {
    auto map_value = [&](Value v) {
      for (size_t i = 0; i < fresh_.size(); ++i) {
        if (v == fresh_[i]) return fresh_[perm[i]];
      }
      return v;
    };
    Instance relabeled;
    for (Value v : current.domain()) relabeled.AddDomainValue(v);
    for (const auto& [name, rel] : current.relations().entries()) {
      (void)relabeled.EnsureRelation(name, rel.arity());
      Relation* out = relabeled.MutableRelation(name);
      Tuple mapped;
      for (const Tuple& t : rel.tuples()) {
        mapped.assign(t.begin(), t.end());
        for (Value& v : mapped) v = map_value(v);
        out->Insert(mapped);
      }
    }
    for (const auto& [name, v] : current.constants().entries()) {
      relabeled.SetConstant(name, map_value(v));
    }
    // Lexicographic instance order: relations (name-sorted maps compare
    // element-wise; Relation orders by tuple set), then constants. Any
    // fixed total order works — it only has to pick one orbit element.
    if (relabeled.relations() != current.relations()) {
      return relabeled.relations() < current.relations();
    }
    return relabeled.constants() < current.constants();
  }

  StatusOr<bool> FillConstant(size_t const_idx, Instance& current) {
    if (const_idx == db_constants_.size()) {
      if (!IsOrbitMinimal(current)) {
        WSV_COUNT1("db_enum/symmetry_pruned");
        return false;
      }
      if (++visited_ > options_.max_instances) {
        WSV_COUNT1("db_enum/cap_exhausted");
        return Status::ResourceExhausted(
            "database enumeration exceeded max_instances = " +
            std::to_string(options_.max_instances));
      }
      WSV_COUNT1("db_enum/instances_enumerated");
      return visit_(current);
    }
    for (Value v : domain_) {
      current.SetConstant(db_constants_[const_idx], v);
      WSV_ASSIGN_OR_RETURN(bool stop, FillConstant(const_idx + 1, current));
      if (stop) return true;
    }
    return false;
  }

  const DbEnumOptions& options_;
  const std::function<StatusOr<bool>(const Instance&)>& visit_;
  std::vector<Value> domain_;
  /// The interchangeable anonymous values, in d0..dn order.
  std::vector<Value> fresh_;
  std::vector<RelationSymbol> relations_;
  std::vector<NameId> db_constants_;
  uint64_t visited_ = 0;
};

}  // namespace

StatusOr<bool> EnumerateDatabases(
    const WebService& service, const DbEnumOptions& options,
    const std::function<StatusOr<bool>(const Instance&)>& visit) {
  WSV_SPAN("verify/db_enum");
  DbEnumerator en(service, options, visit);
  return en.Run();
}

}  // namespace wsv
