// Relations and relational instances (Section 2).
//
// A relational instance maps each relation symbol to a finite relation,
// each proposition to a truth value (arity-0 relation that is empty or
// contains the empty tuple), and each constant symbol to a domain element.
// Instances use ordered containers throughout so that equal instances
// compare equal structurally — the model checkers deduplicate
// configurations by comparing state instances.

#ifndef WSV_RELATIONAL_INSTANCE_H_
#define WSV_RELATIONAL_INSTANCE_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/name.h"
#include "relational/value.h"

namespace wsv {

/// A finite relation of fixed arity over the interned value domain.
class Relation {
 public:
  Relation() : arity_(0) {}
  explicit Relation(int arity) : arity_(arity) {}

  int arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Inserts a tuple; returns false (and ignores it) on arity mismatch.
  bool Insert(const Tuple& t);
  /// Removes a tuple if present.
  void Erase(const Tuple& t);
  bool Contains(const Tuple& t) const { return tuples_.count(t) > 0; }
  void Clear() { tuples_.clear(); }

  const std::set<Tuple>& tuples() const { return tuples_; }

  /// Proposition helpers (arity 0): truth == contains the empty tuple.
  bool AsBool() const { return !tuples_.empty(); }
  void SetBool(bool b);

  friend bool operator==(const Relation& a, const Relation& b) {
    return a.arity_ == b.arity_ && a.tuples_ == b.tuples_;
  }
  friend bool operator<(const Relation& a, const Relation& b) {
    if (a.arity_ != b.arity_) return a.arity_ < b.arity_;
    return a.tuples_ < b.tuples_;
  }

  /// Structural hash, consistent with operator== (the tuple set is
  /// ordered, so iteration order is canonical).
  size_t Hash() const;

  /// Estimated heap footprint (set nodes + tuple storage). Used by the
  /// mem/* occupancy gauges; coarse by design.
  size_t ApproxBytes() const;

  std::string ToString() const;

 private:
  int arity_;
  std::set<Tuple> tuples_;
};

/// A relational instance: named relations, constant interpretations, and
/// an explicit domain. The domain always contains every value occurring in
/// a relation or constant interpretation, and may contain extra elements
/// (the paper's Dom may be a superset of the values actually used).
///
/// Relations and constants are keyed by interned name id
/// (relational/name.h) and kept in name order, so iteration, printing,
/// comparison and hashing are exactly those of name-keyed maps while the
/// hot paths look up by id. An absent relation (FindRelation is null) is
/// distinct from a present, empty one: state and prev bookkeeping rely
/// on it. The string-keyed overloads serve the parse, print and test
/// boundaries and count as name lookups.
class Instance {
 public:
  Instance() = default;

  /// Creates (or returns) the relation `name` with the given arity.
  /// Fails if the name exists with a different arity.
  Status EnsureRelation(NameId name, int arity);
  Status EnsureRelation(const std::string& name, int arity);

  /// The relation `name`; nullptr if absent.
  const Relation* FindRelation(NameId name) const {
    return relations_.Find(name);
  }
  Relation* MutableRelation(NameId name) { return relations_.Find(name); }
  const Relation* FindRelation(const std::string& name) const {
    return relations_.Find(name);
  }
  Relation* MutableRelation(const std::string& name);

  /// Inserts a fact R(t), creating R with t's arity if needed. Values in t
  /// are added to the domain.
  Status AddFact(const std::string& name, const Tuple& t);

  /// Sets the interpretation of a constant symbol; adds to the domain.
  void SetConstant(NameId name, Value v);
  void SetConstant(const std::string& name, Value v);
  std::optional<Value> FindConstant(const std::string& name) const;

  /// Adds a bare element to the domain.
  void AddDomainValue(Value v) { domain_.insert(v); }

  const std::set<Value>& domain() const { return domain_; }
  /// Relations and constants in name order; iterating yields
  /// (name, relation) and (name, value) pairs.
  const NameMap<Relation>& relations() const { return relations_; }
  const NameMap<Value>& constants() const { return constants_; }

  friend bool operator==(const Instance& a, const Instance& b) {
    return a.relations_ == b.relations_ && a.constants_ == b.constants_ &&
           a.domain_ == b.domain_;
  }
  friend bool operator<(const Instance& a, const Instance& b) {
    if (a.relations_ != b.relations_) return a.relations_ < b.relations_;
    if (a.constants_ != b.constants_) return a.constants_ < b.constants_;
    return a.domain_ < b.domain_;
  }

  /// Structural hash, consistent with operator==. Folds each name's
  /// string hash (NameHash), so the value equals that of the name-keyed
  /// maps this class replaced.
  size_t Hash() const;

  /// Estimated heap footprint across relations, constants, and domain.
  size_t ApproxBytes() const;

  std::string ToString() const;

 private:
  NameMap<Relation> relations_;
  NameMap<Value> constants_;
  std::set<Value> domain_;
};

}  // namespace wsv

#endif  // WSV_RELATIONAL_INSTANCE_H_
