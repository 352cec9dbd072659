// An open-addressing index from keys to dense int ids.
//
// The lazy configuration graph interns every node it reaches and the
// product search every vertex, and both ask for the id of a known key
// far more often than they add one. A node-based hash map allocates per
// entry; this table keeps (hash, id) slots in one array with linear
// probing, so interning allocates only when the table doubles. The keys
// themselves stay with the caller, who stores them by id: a probe
// compares the full hash, then asks the caller whether the entry at an
// id is the key.
//
// clear() is O(1): a slot is live only if it carries the table's current
// generation, and clearing starts a new one. A table reused for many
// searches therefore pays nothing for its largest search's capacity on
// the small ones; it keeps that capacity until it is destroyed.

#ifndef WSV_COMMON_FLAT_INDEX_H_
#define WSV_COMMON_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsv {

class FlatIdIndex {
 public:
  /// The id of the key with hash `hash` for which `is_key(id)` holds; if
  /// there is none, records `next_id` under `hash` and sets `*added`.
  template <typename IsKey>
  int FindOrInsert(uint64_t hash, int next_id, const IsKey& is_key,
                   bool* added) {
    if (slots_.empty() || 4 * (size_ + 1) > 3 * slots_.size()) Grow();
    for (size_t i = Home(hash);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.gen != gen_) {
        slot = Slot{hash, next_id, gen_};
        ++size_;
        *added = true;
        return next_id;
      }
      if (slot.hash == hash && is_key(slot.id)) {
        *added = false;
        return slot.id;
      }
    }
  }

  size_t size() const { return size_; }

  /// Removes every entry, keeping the capacity.
  void clear() {
    size_ = 0;
    if (++gen_ != 0) return;
    // The generation wrapped: no stale slot may carry the new one.
    for (Slot& slot : slots_) slot.gen = 0;
    gen_ = 1;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    int id = 0;
    uint32_t gen = 0;  // live iff equal to the table's gen_
  };

  // splitmix64's finalizer, so that keys differing only in a few bits
  // (packed small ints, nearby pointers) spread over the slots.
  size_t Home(uint64_t hash) const {
    hash ^= hash >> 30;
    hash *= 0xbf58476d1ce4e5b9ULL;
    hash ^= hash >> 27;
    hash *= 0x94d049bb133111ebULL;
    hash ^= hash >> 31;
    return static_cast<size_t>(hash) & mask_;
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot());
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.gen != gen_) continue;
      size_t i = Home(slot.hash);
      while (slots_[i].gen == gen_) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  uint32_t gen_ = 1;  // fresh slots carry 0, so they start empty
};

}  // namespace wsv

#endif  // WSV_COMMON_FLAT_INDEX_H_
