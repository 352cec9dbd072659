// Domain values and tuples.
//
// The paper assumes an infinite domain dom_inf of uninterpreted elements;
// constants like "login" or "Admin" are names for such elements. We intern
// every element name once, process-wide, and represent a Value as a dense
// 32-bit id. Interning keeps tuples cheap to hash and compare inside the
// model-checking inner loops.

#ifndef WSV_RELATIONAL_VALUE_H_
#define WSV_RELATIONAL_VALUE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wsv {

/// An element of the data domain. Two Values are equal iff their names are
/// equal. Ordering is by interning id: stable within a process, arbitrary
/// across processes; use name() for user-facing ordering.
class Value {
 public:
  /// Constructs the invalid sentinel (not a domain element).
  Value() : id_(-1) {}

  /// Returns the Value for `name`, interning it on first use. Thread-safe.
  static Value Intern(std::string_view name);

  /// Returns a Value guaranteed distinct from all previously interned
  /// values, named "<prefix>N" for the smallest fresh N. Used by the
  /// database enumerator and for user-supplied input-constant values.
  static Value Fresh(std::string_view prefix);

  bool valid() const { return id_ >= 0; }
  int32_t id() const { return id_; }

  /// The element's name. Must be valid().
  const std::string& name() const;

  friend bool operator==(Value a, Value b) { return a.id_ == b.id_; }
  friend bool operator!=(Value a, Value b) { return a.id_ != b.id_; }
  friend bool operator<(Value a, Value b) { return a.id_ < b.id_; }

 private:
  explicit Value(int32_t id) : id_(id) {}

  int32_t id_;
};

/// A fixed-arity sequence of domain values, owned: the form tuples take
/// at the parse, print and public-API boundaries.
using Tuple = std::vector<Value>;

/// A fixed-arity sequence of domain values, viewed: one row of a
/// relation's flat storage (relational/instance.h), or a Tuple's values.
using Row = std::span<const Value>;

/// Renders a tuple as "(a, b, c)".
std::string TupleToString(Row t);

struct ValueHash {
  size_t operator()(Value v) const {
    return std::hash<int32_t>()(v.id());
  }
};

struct TupleHash {
  size_t operator()(Row t) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (Value v : t) {
      h ^= ValueHash()(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

}  // namespace wsv

template <>
struct std::hash<wsv::Value> {
  size_t operator()(wsv::Value v) const { return wsv::ValueHash()(v); }
};

#endif  // WSV_RELATIONAL_VALUE_H_
