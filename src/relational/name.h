// Interned relation, constant and page names.
//
// Definition 2.1 fixes a service's vocabulary before any run begins, so
// every relation, constant and page name can be resolved to a dense id
// once — when a formula, rule or program is built — and the hot paths
// (the stepper, both FO evaluators, the step context) index by id
// instead of hashing or comparing strings. Names are interned
// process-wide, like Value::Intern, so ids need no schema plumbing and
// instances built ad hoc (tests, the data parser) share them.
//
// NameMap is the flat id-keyed map the data layer stores relations,
// constants and the input-constant interpretation kappa in. It keeps
// its entries in *name* order, not id order, so iterating it, printing
// it and comparing it behave exactly like the std::map<std::string, T>
// it replaces (DESIGN.md §6i).

#ifndef WSV_RELATIONAL_NAME_H_
#define WSV_RELATIONAL_NAME_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/small_vector.h"

namespace wsv {

/// A dense id for an interned name. Ids are stable for the process
/// lifetime; their order is interning order, not name order.
using NameId = int32_t;

/// No name: the id FindName returns for a name never interned.
inline constexpr NameId kNoName = -1;

/// The id of `name`, interning it on first use. Thread-safe.
NameId InternName(std::string_view name);

/// The id of `name` if it was ever interned, else kNoName. Never
/// inserts, so probing with arbitrary strings does not grow the table.
/// Thread-safe.
NameId FindName(std::string_view name);

/// The name an id was interned from. Lock-free; the reference stays
/// valid for the process lifetime. `id` must come from InternName.
const std::string& NameOf(NameId id);

/// std::hash<std::string> of NameOf(id), computed once at interning, so
/// hashes that used to fold a name's string hash stay bit-identical.
size_t NameHash(NameId id);

/// Name order on ids: NameOf(a) < NameOf(b).
inline bool NameLess(NameId a, NameId b) {
  return a != b && NameOf(a) < NameOf(b);
}

/// Counts one name-keyed lookup on the data layer (the
/// relational/name_lookups counter). Called only by the string-keyed
/// wrappers kept for the parse, print and test boundaries, so a string
/// lookup that creeps back onto a per-edge path shows in the counter.
void CountNameLookup();

/// An entry of a NameMap over a trivially copyable T: a plain struct,
/// so that the entries themselves are trivially copyable.
template <typename T>
struct NameMapEntry {
  NameId first;
  T second;

  friend bool operator==(const NameMapEntry& a, const NameMapEntry& b) {
    return a.first == b.first && a.second == b.second;
  }
};

/// How a NameMap<T> stores its entries: a vector of pairs in general;
/// for a trivially copyable T (a constant's value, kappa), a SmallVector
/// holding two entries inline — as many as a shipped page requests
/// constants, and no larger than the vector it replaces — so copying or
/// extending such a map allocates nothing.
template <typename T, bool = std::is_trivially_copyable_v<T>>
struct NameMapStorage {
  using Entry = std::pair<NameId, T>;
  using Entries = std::vector<Entry>;
};
template <typename T>
struct NameMapStorage<T, true> {
  using Entry = NameMapEntry<T>;
  using Entries = SmallVector<Entry, 2>;
};

/// A small map from names to T, stored as a flat array of (id, value)
/// entries in name order. Lookups scan ids (the maps hold a handful of
/// entries); only inserting a new name compares strings, to find its
/// place. Iteration yields (name, value) pairs in name order, and ==
/// and < agree with std::map<std::string, T>.
template <typename T>
class NameMap {
 public:
  using Entry = typename NameMapStorage<T>::Entry;
  using Entries = typename NameMapStorage<T>::Entries;

  /// Iterates (const std::string& name, const T& value) pairs.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::pair<const std::string&, const T&>;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    const_iterator() = default;
    explicit const_iterator(const Entry* it) : it_(it) {}
    value_type operator*() const { return {NameOf(it_->first), it_->second}; }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++it_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.it_ == b.it_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.it_ != b.it_;
    }

   private:
    const Entry* it_ = nullptr;
  };

  NameMap() = default;
  /// Builds the map from (name, value) pairs, interning the names; a
  /// later pair for the same name wins. For tests and fixtures.
  NameMap(std::initializer_list<std::pair<std::string, T>> init) {
    for (const auto& [name, value] : init) Set(InternName(name), value);
  }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  /// Room for `n` entries, so that inserting up to n allocates nothing.
  void reserve(size_t n) { entries_.reserve(n); }
  /// Heap bytes the entries occupy: none while they fit inline.
  size_t HeapBytes() const {
    if constexpr (std::is_trivially_copyable_v<T>) {
      return entries_.on_heap() ? entries_.capacity() * sizeof(Entry) : 0;
    } else {
      return entries_.size() * sizeof(Entry);
    }
  }

  /// The entries, in name order.
  const Entries& entries() const { return entries_; }
  const_iterator begin() const { return const_iterator(Data()); }
  const_iterator end() const { return const_iterator(Data() + size()); }

  /// The value of `id`; nullptr if absent.
  const T* Find(NameId id) const {
    for (const Entry& e : entries_) {
      if (e.first == id) return &e.second;
    }
    return nullptr;
  }
  T* Find(NameId id) {
    for (Entry& e : entries_) {
      if (e.first == id) return &e.second;
    }
    return nullptr;
  }
  bool Contains(NameId id) const { return Find(id) != nullptr; }

  /// The value of `id`, inserting `init` at its name-order place if
  /// absent; `*added` (optional) tells which.
  T& FindOrInsert(NameId id, T init = T(), bool* added = nullptr) {
    if (T* found = Find(id)) {
      if (added != nullptr) *added = false;
      return *found;
    }
    if (added != nullptr) *added = true;
    const size_t pos = static_cast<size_t>(
        std::find_if(entries_.begin(), entries_.end(),
                     [id](const Entry& e) { return NameLess(id, e.first); }) -
        entries_.begin());
    Entry entry{id, std::move(init)};
    if constexpr (std::is_trivially_copyable_v<T>) {
      entries_.insert(pos, entry);
    } else {
      entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(pos),
                      std::move(entry));
    }
    return *Find(id);
  }

  /// Sets the value of `id`, inserting it if absent.
  void Set(NameId id, T value) { FindOrInsert(id) = std::move(value); }

  /// String-keyed lookup for the parse, print and test boundaries;
  /// counted as a name lookup.
  const T* Find(const std::string& name) const {
    CountNameLookup();
    const NameId id = FindName(name);
    return id == kNoName ? nullptr : Find(id);
  }

  friend bool operator==(const NameMap& a, const NameMap& b) {
    return a.entries_ == b.entries_;
  }
  friend bool operator!=(const NameMap& a, const NameMap& b) {
    return !(a == b);
  }
  /// Lexicographic over (name, value) pairs, as std::map's operator<.
  friend bool operator<(const NameMap& a, const NameMap& b) {
    return std::lexicographical_compare(
        a.entries_.begin(), a.entries_.end(), b.entries_.begin(),
        b.entries_.end(), [](const Entry& x, const Entry& y) {
          if (x.first != y.first) return NameLess(x.first, y.first);
          return x.second < y.second;
        });
  }

 private:
  const Entry* Data() const { return entries_.data(); }

  Entries entries_;
};

}  // namespace wsv

#endif  // WSV_RELATIONAL_NAME_H_
