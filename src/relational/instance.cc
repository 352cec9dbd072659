#include "relational/instance.h"

#include <algorithm>

#include "common/hash.h"

namespace wsv {

bool Relation::Insert(const Tuple& t) {
  if (static_cast<int>(t.size()) != arity_) return false;
  tuples_.insert(t);
  return true;
}

void Relation::Erase(const Tuple& t) { tuples_.erase(t); }

void Relation::SetBool(bool b) {
  tuples_.clear();
  if (b) tuples_.insert(Tuple{});
}

std::string Relation::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const Tuple& t : tuples_) {
    if (!first) out += ", ";
    first = false;
    out += TupleToString(t);
  }
  out += "}";
  return out;
}

size_t Relation::Hash() const {
  size_t h = static_cast<size_t>(arity_);
  for (const Tuple& t : tuples_) h = HashCombine(h, TupleHash()(t));
  return h;
}

namespace {
// Approximate per-node overhead of an ordered container entry (three
// child/parent pointers, color, allocator rounding).
constexpr size_t kTreeNodeBytes = 4 * sizeof(void*);
}  // namespace

size_t Relation::ApproxBytes() const {
  size_t bytes = sizeof(Relation);
  for (const Tuple& t : tuples_) {
    bytes += kTreeNodeBytes + sizeof(Tuple) + t.capacity() * sizeof(Value);
  }
  return bytes;
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
  for (Value v : t) domain_.insert(v);
  return Status::OK();
}

void Instance::SetConstant(NameId name, Value v) {
  constants_.Set(name, v);
  domain_.insert(v);
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
  bytes += constants_.size() * sizeof(NameMap<Value>::Entry);
  bytes += domain_.size() * (kTreeNodeBytes + sizeof(Value));
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
