// Relations and relational instances (Section 2).
//
// A relational instance maps each relation symbol to a finite relation,
// each proposition to a truth value (arity-0 relation that is empty or
// contains the empty tuple), and each constant symbol to a domain element.
// Instances keep relations, constants and the domain in canonical order
// so that equal instances compare equal structurally — the model
// checkers deduplicate configurations by comparing state instances.

#ifndef WSV_RELATIONAL_INSTANCE_H_
#define WSV_RELATIONAL_INSTANCE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/small_vector.h"
#include "common/status.h"
#include "relational/name.h"
#include "relational/value.h"

namespace wsv {

/// A finite relation of fixed arity over the interned value domain
/// (DESIGN.md §6k). The tuples are stored as rows of `arity` value ids,
/// back to back in one array, sorted lexicographically by Value id and
/// free of duplicates. Iteration, printing, comparison and hashing
/// follow that order, and recorded hashes and cache keys depend on it.
/// The first kInlineValues values live in the object, so the common
/// relations of 0-2 rows copy without allocating. Readers see rows as
/// Row views; Tuple is only for callers that own a tuple.
class Relation {
 public:
  /// Values held inline: two rows of arity 3.
  static constexpr size_t kInlineValues = 6;

  /// Iterates the rows in order, as Row views into the relation.
  class RowIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Row;

    RowIterator() = default;
    RowIterator(const Value* values, size_t arity, size_t row)
        : values_(values), arity_(arity), row_(row) {}
    Row operator*() const { return Row(values_ + row_ * arity_, arity_); }
    RowIterator& operator++() {
      ++row_;
      return *this;
    }
    RowIterator operator++(int) {
      RowIterator old = *this;
      ++row_;
      return old;
    }
    friend bool operator==(const RowIterator& a, const RowIterator& b) {
      return a.row_ == b.row_;
    }
    friend bool operator!=(const RowIterator& a, const RowIterator& b) {
      return a.row_ != b.row_;
    }

   private:
    const Value* values_ = nullptr;
    size_t arity_ = 0;
    size_t row_ = 0;
  };

  /// The rows of a relation, in order; valid until the relation changes.
  class Rows {
   public:
    Rows(const Value* values, size_t arity, size_t rows)
        : values_(values), arity_(arity), rows_(rows) {}
    RowIterator begin() const { return RowIterator(values_, arity_, 0); }
    RowIterator end() const { return RowIterator(values_, arity_, rows_); }
    size_t size() const { return rows_; }
    bool empty() const { return rows_ == 0; }
    Row operator[](size_t i) const {
      assert(i < rows_);
      return Row(values_ + i * arity_, arity_);
    }

   private:
    const Value* values_;
    size_t arity_;
    size_t rows_;
  };

  Relation() : arity_(0) {}
  explicit Relation(int arity) : arity_(arity) {}

  int arity() const { return arity_; }
  /// The number of rows.
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Inserts a row; returns false (and ignores it) on arity mismatch.
  bool Insert(Row t);
  bool Insert(const Tuple& t) { return Insert(Row(t)); }
  /// Removes a row if present.
  void Erase(Row t);
  bool Contains(Row t) const;
  void Clear() {
    values_.clear();
    rows_ = 0;
  }

  /// Appends a row of the relation's arity that sorts after every row
  /// present: how a caller that produces rows in order (the state
  /// update's merge) builds a relation without searching.
  void Append(Row t) {
    assert(static_cast<int>(t.size()) == arity_);
    assert(rows_ == 0 || std::lexicographical_compare(
                             row(rows_ - 1).begin(), row(rows_ - 1).end(),
                             t.begin(), t.end()));
    values_.insert(values_.size(), t.data(), t.data() + t.size());
    ++rows_;
  }

  Rows rows() const {
    return Rows(values_.data(), static_cast<size_t>(arity_), rows_);
  }
  Row row(size_t i) const { return rows()[i]; }

  /// Proposition helpers (arity 0): truth == contains the empty tuple.
  bool AsBool() const { return rows_ != 0; }
  void SetBool(bool b) { rows_ = b ? 1 : 0; }

  friend bool operator==(const Relation& a, const Relation& b) {
    return a.arity_ == b.arity_ && a.rows_ == b.rows_ && a.values_ == b.values_;
  }
  /// Arity first, then the rows compared lexicographically. Rows of one
  /// arity lie back to back, so that is the order of the value arrays,
  /// with the row count deciding between arity-0 relations.
  friend bool operator<(const Relation& a, const Relation& b) {
    if (a.arity_ != b.arity_) return a.arity_ < b.arity_;
    if (a.values_ != b.values_) return a.values_ < b.values_;
    return a.rows_ < b.rows_;
  }

  /// Structural hash, consistent with operator==: the arity folded with
  /// each row's TupleHash in row order.
  size_t Hash() const;

  /// Heap footprint: the object plus its value block once the rows
  /// outgrow the inline storage. Used by the mem/* occupancy gauges.
  size_t ApproxBytes() const;

  std::string ToString() const;

 private:
  // The index of the first row not less than `t`, and whether it is `t`.
  size_t LowerBound(Row t, bool* found) const;

  int32_t arity_;
  uint32_t rows_ = 0;
  SmallVector<Value, kInlineValues> values_;
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
  void AddDomainValue(Value v);
  /// Adds every value of `t` to the domain.
  void AddDomainValues(Row t) {
    for (Value v : t) AddDomainValue(v);
  }

  /// The domain in Value order, without duplicates.
  Row domain() const { return Row(domain_.data(), domain_.size()); }
  bool InDomain(Value v) const;
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
  /// Sorted by Value id, without duplicates.
  SmallVector<Value, 4> domain_;
};

}  // namespace wsv

#endif  // WSV_RELATIONAL_INSTANCE_H_
