// A vector with inline storage for its first N elements.
//
// The data layer copies small sequences on every configuration step: a
// relation's rows, an instance's domain, an evaluation's active domain.
// Most hold a handful of elements, so keeping the first N in the object
// itself makes copying, building and destroying them allocation-free;
// beyond N the elements move to one heap block. Restricted to trivially
// copyable element types, so growth, copy and move are plain memcpy.

#ifndef WSV_COMMON_SMALL_VECTOR_H_
#define WSV_COMMON_SMALL_VECTOR_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

namespace wsv {

template <typename T, size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector holds trivially copyable elements only");
  static_assert(N > 0 && N * sizeof(T) >= sizeof(T*),
                "the inline buffer also holds the heap pointer");

 public:
  SmallVector() = default;
  SmallVector(const SmallVector& other) { assign(other.begin(), other.end()); }
  SmallVector(SmallVector&& other) noexcept { Steal(other); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(other);
    }
    return *this;
  }
  ~SmallVector() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  /// Whether the elements live in a heap block rather than inline.
  bool on_heap() const { return capacity_ > N; }

  T* data() { return on_heap() ? storage_.heap : InlineData(); }
  const T* data() const { return on_heap() ? storage_.heap : InlineData(); }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return data()[i];
  }

  void clear() { size_ = 0; }
  /// Keeps the first `n` elements; `n` must not exceed size().
  void truncate(size_t n) {
    assert(n <= size_);
    size_ = static_cast<uint32_t>(n);
  }
  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }
  void push_back(const T& v) {
    if (size_ == capacity_) Grow(size_ + 1);
    data()[size_++] = v;
  }
  void assign(const T* first, const T* last) {
    const size_t n = static_cast<size_t>(last - first);
    size_ = 0;
    reserve(n);
    if (n != 0) std::memcpy(data(), first, n * sizeof(T));
    size_ = static_cast<uint32_t>(n);
  }
  /// Inserts [first, last) before position `pos`. The range must not
  /// point into this vector.
  void insert(size_t pos, const T* first, const T* last) {
    const size_t n = static_cast<size_t>(last - first);
    assert(pos <= size_);
    if (size_ + n > capacity_) Grow(size_ + n);
    T* at = data() + pos;
    std::memmove(at + n, at, (size_ - pos) * sizeof(T));
    if (n != 0) std::memcpy(at, first, n * sizeof(T));
    size_ += static_cast<uint32_t>(n);
  }
  void insert(size_t pos, const T& v) { insert(pos, &v, &v + 1); }
  /// Removes the `n` elements from position `pos`.
  void erase(size_t pos, size_t n) {
    assert(pos + n <= size_);
    T* at = data() + pos;
    std::memmove(at, at + n, (size_ - pos - n) * sizeof(T));
    size_ -= static_cast<uint32_t>(n);
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const SmallVector& a, const SmallVector& b) {
    return !(a == b);
  }
  friend bool operator<(const SmallVector& a, const SmallVector& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  T* InlineData() { return reinterpret_cast<T*>(storage_.bytes); }
  const T* InlineData() const {
    return reinterpret_cast<const T*>(storage_.bytes);
  }

  // Moves the elements to a heap block of at least `min_capacity`.
  void Grow(size_t min_capacity) {
    const size_t cap = std::max<size_t>(min_capacity, 2 * size_t{capacity_});
    T* block = static_cast<T*>(::operator new(cap * sizeof(T)));
    if (size_ != 0) std::memcpy(block, data(), size_ * sizeof(T));
    Release();
    storage_.heap = block;
    capacity_ = static_cast<uint32_t>(cap);
  }
  void Release() {
    if (on_heap()) ::operator delete(storage_.heap);
    capacity_ = N;
  }
  // Takes `other`'s elements and leaves it empty and inline.
  void Steal(SmallVector& other) {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.on_heap()) {
      storage_.heap = other.storage_.heap;
    } else if (size_ != 0) {
      std::memcpy(storage_.bytes, other.storage_.bytes, size_ * sizeof(T));
    }
    other.size_ = 0;
    other.capacity_ = N;
  }

  uint32_t size_ = 0;
  uint32_t capacity_ = N;
  union Storage {
    T* heap;
    alignas(T) unsigned char bytes[N * sizeof(T)];
  } storage_{nullptr};
};

}  // namespace wsv

#endif  // WSV_COMMON_SMALL_VECTOR_H_
