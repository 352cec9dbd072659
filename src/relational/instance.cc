#include "relational/instance.h"

#include <algorithm>

#include "common/hash.h"

namespace wsv {

namespace {

// Row order: lexicographic by Value id, as std::vector<Value>'s.
bool RowLess(Row a, Row b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

size_t Relation::LowerBound(Row t, bool* found) const {
  size_t lo = 0;
  size_t hi = rows_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (RowLess(row(mid), t)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *found = lo < rows_ && !RowLess(t, row(lo));
  return lo;
}

bool Relation::Insert(Row t) {
  if (static_cast<int>(t.size()) != arity_) return false;
  // Rows often arrive in order: past the last row is an append.
  if (rows_ == 0 || RowLess(row(rows_ - 1), t)) {
    Append(t);
    return true;
  }
  bool found = false;
  const size_t idx = LowerBound(t, &found);
  if (!found) {
    values_.insert(idx * t.size(), t.data(), t.data() + t.size());
    ++rows_;
  }
  return true;
}

void Relation::Erase(Row t) {
  if (static_cast<int>(t.size()) != arity_) return;
  bool found = false;
  const size_t idx = LowerBound(t, &found);
  if (found) {
    values_.erase(idx * t.size(), t.size());
    --rows_;
  }
}

bool Relation::Contains(Row t) const {
  if (static_cast<int>(t.size()) != arity_) return false;
  bool found = false;
  LowerBound(t, &found);
  return found;
}

std::string Relation::ToString() const {
  std::string out = "{";
  bool first = true;
  for (Row t : rows()) {
    if (!first) out += ", ";
    first = false;
    out += TupleToString(t);
  }
  out += "}";
  return out;
}

size_t Relation::Hash() const {
  size_t h = static_cast<size_t>(arity_);
  for (Row t : rows()) h = HashCombine(h, TupleHash()(t));
  return h;
}

size_t Relation::ApproxBytes() const {
  return sizeof(Relation) +
         (values_.on_heap() ? values_.capacity() * sizeof(Value) : 0);
}

Status Instance::EnsureRelation(NameId name, int arity) {
  bool added = false;
  Relation& rel = relations_.FindOrInsert(name, Relation(arity), &added);
  if (!added && rel.arity() != arity) {
    return Status::InvalidArgument("relation " + NameOf(name) +
                                   " already exists with arity " +
                                   std::to_string(rel.arity()));
  }
  return Status::OK();
}

Status Instance::EnsureRelation(const std::string& name, int arity) {
  CountNameLookup();
  return EnsureRelation(InternName(name), arity);
}

Relation* Instance::MutableRelation(const std::string& name) {
  CountNameLookup();
  const NameId id = FindName(name);
  return id == kNoName ? nullptr : relations_.Find(id);
}

Status Instance::AddFact(const std::string& name, const Tuple& t) {
  CountNameLookup();
  const NameId id = InternName(name);
  WSV_RETURN_IF_ERROR(EnsureRelation(id, static_cast<int>(t.size())));
  relations_.Find(id)->Insert(t);
  AddDomainValues(t);
  return Status::OK();
}

void Instance::AddDomainValue(Value v) {
  Value* pos = std::lower_bound(domain_.begin(), domain_.end(), v);
  if (pos == domain_.end() || *pos != v) {
    domain_.insert(static_cast<size_t>(pos - domain_.begin()), v);
  }
}

bool Instance::InDomain(Value v) const {
  return std::binary_search(domain_.begin(), domain_.end(), v);
}

void Instance::SetConstant(NameId name, Value v) {
  constants_.Set(name, v);
  AddDomainValue(v);
}

void Instance::SetConstant(const std::string& name, Value v) {
  CountNameLookup();
  SetConstant(InternName(name), v);
}

std::optional<Value> Instance::FindConstant(const std::string& name) const {
  const Value* v = constants_.Find(name);
  if (v == nullptr) return std::nullopt;
  return *v;
}

size_t Instance::Hash() const {
  size_t h = 0;
  for (const auto& [name, rel] : relations_.entries()) {
    h = HashCombine(h, NameHash(name));
    h = HashCombine(h, rel.Hash());
  }
  for (const auto& [name, v] : constants_.entries()) {
    h = HashCombine(h, NameHash(name));
    h = HashCombine(h, ValueHash()(v));
  }
  return HashRange(domain_.begin(), domain_.end(), h);
}

size_t Instance::ApproxBytes() const {
  size_t bytes = sizeof(Instance);
  for (const auto& [name, rel] : relations_.entries()) {
    bytes += sizeof(NameMap<Relation>::Entry) - sizeof(Relation) +
             rel.ApproxBytes();
  }
  bytes += constants_.HeapBytes();
  if (domain_.on_heap()) bytes += domain_.capacity() * sizeof(Value);
  return bytes;
}

std::string Instance::ToString() const {
  std::string out;
  for (const auto& [name, rel] : relations_) {
    out += name + " = " + rel.ToString() + "\n";
  }
  for (const auto& [name, v] : constants_) {
    out += name + " := " + v.name() + "\n";
  }
  return out;
}

}  // namespace wsv
