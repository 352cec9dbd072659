#include "relational/decided.h"

#include <algorithm>

#include "common/hash.h"

namespace wsv {

bool DatabaseBounds::InDomain(Value v) const {
  return std::binary_search(domain.begin(), domain.end(), v);
}

namespace {

// The entry of `rel` in false facts sorted by relation id, or where it
// would go.
auto FalseFactsOf(std::vector<std::pair<NameId, Relation>>& false_facts,
                  NameId rel) {
  return std::lower_bound(
      false_facts.begin(), false_facts.end(), rel,
      [](const std::pair<NameId, Relation>& e, NameId r) {
        return e.first < r;
      });
}

}  // namespace

bool DecidedDatabase::IsOpenFact(NameId rel, Row t) const {
  if (!IsOpenRelation(rel)) return false;
  if (facts_->FindRelation(rel)->Contains(t)) return false;
  for (Value v : t) {
    if (!bounds_->InDomain(v)) return false;
  }
  for (const auto& [id, rows] : false_facts_) {
    if (id == rel) return !rows.Contains(t);
  }
  return true;
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

DecidedDatabase DecidedDatabase::WithFalse(NameId rel, Row t) const {
  DecidedDatabase out = *this;
  auto it = FalseFactsOf(out.false_facts_, rel);
  if (it == out.false_facts_.end() || it->first != rel) {
    it = out.false_facts_.emplace(it, rel, Relation(static_cast<int>(t.size())));
  }
  it->second.Insert(t);
  return out;
}

DecidedDatabase DecidedDatabase::WithTrue(NameId rel, Row t,
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

DecidedDatabase DecidedDatabase::WithRelation(NameId rel, Relation tuples,
                                              Instance* facts) const {
  *facts = *facts_;
  *facts->MutableRelation(rel) = std::move(tuples);
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
  auto it = FalseFactsOf(false_facts_, rel);
  if (it != false_facts_.end() && it->first == rel) false_facts_.erase(it);
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
  for (const auto& [rel, rows] : false_facts_) {
    for (Row t : rows.rows()) {
      seed = HashCombine(seed, static_cast<size_t>(rel));
      seed = HashCombine(seed, TupleHash()(t));
    }
  }
  return HashRange(closed_.begin(), closed_.end(), seed);
}

size_t DecidedDatabase::ApproxBytes() const {
  size_t bytes = closed_.capacity() * sizeof(NameId) +
                 false_facts_.capacity() *
                     (sizeof(false_facts_[0]) - sizeof(Relation));
  for (const auto& [rel, rows] : false_facts_) bytes += rows.ApproxBytes();
  return bytes;
}

}  // namespace wsv
