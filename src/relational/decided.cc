#include "relational/decided.h"

#include <algorithm>

#include "common/hash.h"

namespace wsv {

bool DatabaseBounds::InDomain(Value v) const {
  return std::binary_search(domain.begin(), domain.end(), v);
}

bool DecidedDatabase::IsOpenFact(NameId rel, const Tuple& t) const {
  if (!IsOpenRelation(rel)) return false;
  if (facts_->FindRelation(rel)->Contains(t)) return false;
  for (Value v : t) {
    if (!bounds_->InDomain(v)) return false;
  }
  return false_facts_.count({rel, t}) == 0;
}

bool DecidedDatabase::IsOpenRelation(NameId rel) const {
  if (bounds_ == nullptr) return false;
  const Relation* facts = facts_->FindRelation(rel);
  if (facts == nullptr) return false;  // not a database relation
  if (std::binary_search(closed_.begin(), closed_.end(), rel)) return false;
  const int cap = bounds_->max_tuples_per_relation;
  return cap < 0 || facts->size() < static_cast<size_t>(cap);
}

bool DecidedDatabase::IsOpenConstant(NameId c) const {
  if (bounds_ == nullptr) return false;
  return std::find(bounds_->constants.begin(), bounds_->constants.end(), c) !=
             bounds_->constants.end() &&
         facts_->constants().Find(c) == nullptr;
}

bool DecidedDatabase::IsOpen(const DbProbe& probe) const {
  switch (probe.kind) {
    case DbProbe::Kind::kFact:
      return IsOpenFact(probe.symbol, probe.tuple);
    case DbProbe::Kind::kRelation:
      return IsOpenRelation(probe.symbol);
    case DbProbe::Kind::kConstant:
      return IsOpenConstant(probe.symbol);
  }
  return false;
}

DecidedDatabase DecidedDatabase::WithFalse(NameId rel, const Tuple& t) const {
  DecidedDatabase out = *this;
  out.false_facts_.emplace(rel, t);
  return out;
}

DecidedDatabase DecidedDatabase::WithTrue(NameId rel, const Tuple& t,
                                          Instance* facts) const {
  *facts = *facts_;
  Relation* out_rel = facts->MutableRelation(rel);
  out_rel->Insert(t);
  DecidedDatabase out = *this;
  // At the bound the rest of the relation is false in every database
  // within the bounds: its false facts say nothing more.
  const int cap = bounds_->max_tuples_per_relation;
  if (cap >= 0 && out_rel->size() >= static_cast<size_t>(cap)) {
    out.EraseFalseFacts(rel);
  }
  return out;
}

DecidedDatabase DecidedDatabase::WithRelation(NameId rel,
                                              const std::vector<Tuple>& tuples,
                                              Instance* facts) const {
  *facts = *facts_;
  Relation* out_rel = facts->MutableRelation(rel);
  out_rel->Clear();
  for (const Tuple& t : tuples) out_rel->Insert(t);
  DecidedDatabase out = *this;
  // A relation decided whole needs no false facts: the rest of it is.
  out.EraseFalseFacts(rel);
  out.closed_.insert(
      std::upper_bound(out.closed_.begin(), out.closed_.end(), rel), rel);
  return out;
}

DecidedDatabase DecidedDatabase::WithConstant(NameId c, Value v,
                                              Instance* facts) const {
  *facts = *facts_;
  facts->SetConstant(c, v);
  return *this;
}

void DecidedDatabase::EraseFalseFacts(NameId rel) {
  auto first = false_facts_.lower_bound({rel, Tuple()});
  auto last = first;
  while (last != false_facts_.end() && last->first == rel) ++last;
  false_facts_.erase(first, last);
}

Instance DecidedDatabase::Completion() const {
  Instance out = *facts_;
  if (bounds_ != nullptr && !bounds_->domain.empty()) {
    for (NameId c : bounds_->constants) {
      if (out.constants().Find(c) == nullptr) {
        out.SetConstant(c, bounds_->domain.front());
      }
    }
  }
  return out;
}

size_t DecidedDatabase::Hash() const {
  std::hash<const void*> h;
  size_t seed = HashCombine(h(facts_), h(bounds_));
  for (const auto& [rel, t] : false_facts_) {
    seed = HashCombine(seed, static_cast<size_t>(rel));
    seed = HashCombine(seed, TupleHash()(t));
  }
  return HashRange(closed_.begin(), closed_.end(), seed);
}

size_t DecidedDatabase::ApproxBytes() const {
  size_t bytes = closed_.capacity() * sizeof(NameId);
  for (const auto& entry : false_facts_) {
    // A set node: links, the id and the tuple's storage.
    bytes += 4 * sizeof(void*) + sizeof(entry) +
             entry.second.capacity() * sizeof(Value);
  }
  return bytes;
}

}  // namespace wsv
