#include "verify/db_enum.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/str_util.h"
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

std::vector<Value> InputConstantPool(const std::vector<Value>& pinned,
                                     const WebService& service,
                                     const Instance& database,
                                     const std::set<Value>& literals,
                                     int typed_values) {
  if (!pinned.empty()) return pinned;
  std::set<Value> pool(database.domain().begin(), database.domain().end());
  for (Value v : ServiceRuleLiterals(service)) pool.insert(v);
  pool.insert(literals.begin(), literals.end());
  for (int i = 0; i < typed_values; ++i) {
    pool.insert(Value::Intern(StrCat({"u", std::to_string(i)})));
  }
  return std::vector<Value>(pool.begin(), pool.end());
}

namespace {

// The enumeration domain, and the fresh values in it that no rule or
// property literal collides with (in d0..dn order).
std::vector<Value> EnumerationDomain(const WebService& service,
                                     const DbEnumOptions& options,
                                     std::vector<Value>* fresh) {
  std::set<Value> dom;
  for (Value v : ServiceRuleLiterals(service)) dom.insert(v);
  for (Value v : options.base_values) dom.insert(v);
  for (int i = 0; i < options.fresh_values; ++i) {
    Value v = Value::Intern(StrCat({"d", std::to_string(i)}));
    // Only values the rules/property cannot name are interchangeable;
    // a "fresh" value that collides with a literal is pinned.
    if (dom.insert(v).second && fresh != nullptr) fresh->push_back(v);
  }
  return std::vector<Value>(dom.begin(), dom.end());
}

// The bounds EnumerateDatabases enumerates within: its domain (rule
// literals, `base_values` and the fresh values), the tuple cap and the
// database constants.
DatabaseBounds EnumerationBounds(const WebService& service,
                                 const DbEnumOptions& options) {
  DatabaseBounds bounds;
  bounds.domain = EnumerationDomain(service, options, nullptr);
  bounds.max_tuples_per_relation = options.max_tuples_per_relation;
  for (const std::string& c : service.vocab().constants()) {
    if (!service.vocab().IsInputConstant(c)) {
      bounds.constants.push_back(InternName(c));
    }
  }
  return bounds;
}

// The choose-k walk behind ForEachFactSubset.
class SubsetWalker {
 public:
  SubsetWalker(
      const std::vector<Tuple>& facts, int cap, const std::vector<char>& fixed,
      const std::function<StatusOr<bool>(const std::vector<size_t>&)>& visit)
      : facts_(facts),
        cap_(cap < 0 ? facts.size() : static_cast<size_t>(cap)),
        fixed_(fixed),
        visit_(visit) {
    for (char f : fixed) required_ += f == 1 ? 1 : 0;
  }

  // Visits the current subset if it holds every required fact, then its
  // extensions by facts from `start` on.
  StatusOr<bool> Walk(size_t start) {
    if (required_ - required_chosen_ > cap_ - chosen_.size()) return false;
    if (required_chosen_ == required_) {
      WSV_ASSIGN_OR_RETURN(bool stop, visit_(chosen_));
      if (stop) return true;
    }
    if (chosen_.size() >= cap_) return false;
    for (size_t i = start; i < facts_.size(); ++i) {
      if (fixed_[i] == 2) continue;
      chosen_.push_back(i);
      if (fixed_[i] == 1) ++required_chosen_;
      WSV_ASSIGN_OR_RETURN(bool stop, Walk(i + 1));
      chosen_.pop_back();
      if (fixed_[i] == 1) --required_chosen_;
      if (stop) return true;
      // Every later subset would lack this required fact.
      if (fixed_[i] == 1) break;
    }
    return false;
  }

 private:
  const std::vector<Tuple>& facts_;
  const size_t cap_;
  const std::vector<char>& fixed_;
  const std::function<StatusOr<bool>(const std::vector<size_t>&)>& visit_;
  size_t required_ = 0;
  size_t required_chosen_ = 0;
  std::vector<size_t> chosen_;
};

// a * b and a + b, saturating at UINT64_MAX.
uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  return b != 0 && a > UINT64_MAX / b ? UINT64_MAX : a * b;
}
uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

// Walks the database space relation by relation, then constant by
// constant, visiting each complete instance.
class DbEnumerator {
 public:
  DbEnumerator(const WebService& service, const DbEnumOptions& options,
               const std::function<StatusOr<bool>(const Instance&)>& visit)
      : options_(options), visit_(visit) {
    domain_ = EnumerationDomain(service, options, &fresh_);
    relations_ = service.vocab().RelationsOfKind(SymbolKind::kDatabase);
    db_constants_ = EnumerationBounds(service, options).constants;
  }

  StatusOr<bool> Run() {
    Instance current;
    for (Value v : domain_) current.AddDomainValue(v);
    return FillRelation(0, current);
  }

 private:
  StatusOr<bool> FillRelation(size_t rel_idx, Instance& current) {
    if (rel_idx == relations_.size()) return FillConstant(0, current);
    const RelationSymbol& sym = relations_[rel_idx];
    WSV_RETURN_IF_ERROR(current.EnsureRelation(sym.id, sym.arity));
    const std::vector<Tuple> facts = AllFacts(domain_, sym.arity);
    return ForEachFactSubset(
        facts, options_.max_tuples_per_relation,
        std::vector<char>(facts.size(), 0),
        [&](const std::vector<size_t>& chosen) -> StatusOr<bool> {
          // Looked up per subset: filling later relations may move it.
          Relation* rel = current.MutableRelation(sym.id);
          rel->Clear();
          for (size_t i : chosen) rel->Insert(facts[i]);
          return FillRelation(rel_idx + 1, current);
        });
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
      for (Row t : rel.rows()) {
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

DatabaseSpace::DatabaseSpace(const WebService& service,
                             const DbEnumOptions& options,
                             const Instance* database)
    : decided_(database) {
  if (database != nullptr) return;
  bounds_ = EnumerationBounds(service, options);
  for (Value v : bounds_.domain) undecided_.AddDomainValue(v);
  for (const RelationSymbol& sym :
       service.vocab().RelationsOfKind(SymbolKind::kDatabase)) {
    // Only an arity conflict fails, impossible for a vocabulary.
    (void)undecided_.EnsureRelation(sym.id, sym.arity);
  }
  decided_ = DecidedDatabase(&undecided_, &bounds_);
}

uint64_t CountDatabases(const WebService& service,
                        const DbEnumOptions& options) {
  const DatabaseBounds bounds = EnumerationBounds(service, options);
  const uint64_t d = bounds.domain.size();
  uint64_t total = 1;
  for (const RelationSymbol& sym :
       service.vocab().RelationsOfKind(SymbolKind::kDatabase)) {
    uint64_t facts = 1;
    for (int i = 0; i < sym.arity; ++i) facts = SaturatingMul(facts, d);
    const uint64_t cap =
        options.max_tuples_per_relation < 0
            ? facts
            : std::min<uint64_t>(
                  facts,
                  static_cast<uint64_t>(options.max_tuples_per_relation));
    // sum over k <= cap of C(facts, k), each term exact until it
    // saturates (C(n, k) = C(n, k - 1) * (n - k + 1) / k).
    uint64_t subsets = 1;
    unsigned __int128 term = 1;
    for (uint64_t k = 1; k <= cap && subsets != UINT64_MAX; ++k) {
      term = term * (facts - k + 1) / k;
      subsets = term > UINT64_MAX
                    ? UINT64_MAX
                    : SaturatingAdd(subsets, static_cast<uint64_t>(term));
    }
    total = SaturatingMul(total, subsets);
  }
  for (size_t i = 0; i < bounds.constants.size(); ++i) {
    total = SaturatingMul(total, d);
  }
  return total;
}

std::string WithinBoundsLine(
    std::string_view verdict, uint64_t databases,
    std::initializer_list<std::pair<uint64_t, std::string_view>> counts,
    bool complete) {
  const std::string db_count =
      databases == UINT64_MAX ? "\u2265 2^64" : std::to_string(databases);
  std::string line =
      StrCat({verdict, " within bounds (", db_count, " database(s)"});
  for (const auto& [value, noun] : counts) {
    line += StrCat({", ", std::to_string(value), " ", noun});
  }
  line += complete ? ")" : ") [truncated]";
  return line;
}

std::vector<Tuple> AllFacts(const std::vector<Value>& domain, int arity) {
  std::vector<Tuple> out;
  if (arity == 0) {
    out.push_back(Tuple{});
    return out;
  }
  if (domain.empty()) return out;
  std::vector<size_t> idx(static_cast<size_t>(arity), 0);
  while (true) {
    Tuple t(static_cast<size_t>(arity));
    for (size_t i = 0; i < idx.size(); ++i) t[i] = domain[idx[i]];
    out.push_back(std::move(t));
    size_t k = 0;
    while (k < idx.size()) {
      if (++idx[k] < domain.size()) break;
      idx[k] = 0;
      ++k;
    }
    if (k == idx.size()) break;
  }
  return out;
}

StatusOr<bool> ForEachFactSubset(
    const std::vector<Tuple>& facts, int cap, const std::vector<char>& fixed,
    const std::function<StatusOr<bool>(const std::vector<size_t>&)>& visit) {
  return SubsetWalker(facts, cap, fixed, visit).Walk(0);
}

StatusOr<bool> EnumerateDatabases(
    const WebService& service, const DbEnumOptions& options,
    const std::function<StatusOr<bool>(const Instance&)>& visit) {
  WSV_SPAN("verify/db_enum");
  DbEnumerator en(service, options, visit);
  return en.Run();
}

}  // namespace wsv
