#include "relational/name.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "obs/metrics.h"

namespace wsv {

namespace {

// Process-wide name table. Entries are never removed or moved, so ids
// and name references stay valid for the program lifetime. Entries live
// in fixed-size chunks published through atomic pointers: NameOf and
// NameHash read them without a lock (the hot paths call them from every
// sweep thread), while the name -> id index takes a reader-writer lock
// as Value's interner does. A chunk is published before any id inside
// it is handed out, and an id reaches another thread only through some
// synchronization, so a reader always sees its entry fully built.
struct NameTable {
  struct Entry {
    std::string name;
    size_t hash = 0;
  };
  static constexpr size_t kChunkBits = 10;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kMaxChunks = 4096;  // 4M names

  std::shared_mutex mu;
  std::unordered_map<std::string, NameId> ids;  // guarded by mu
  size_t count = 0;                             // guarded by mu
  std::array<std::atomic<Entry*>, kMaxChunks> chunks{};

  const Entry& At(NameId id) const {
    const size_t i = static_cast<size_t>(id);
    const Entry* chunk =
        chunks[i >> kChunkBits].load(std::memory_order_acquire);
    return chunk[i & (kChunkSize - 1)];
  }

  // Inserts `name` with the next id. Caller holds the exclusive lock and
  // has checked that `name` is absent.
  NameId InsertLocked(std::string name) {
    const size_t i = count;
    const size_t c = i >> kChunkBits;
    if (c >= kMaxChunks) std::abort();  // far beyond any vocabulary
    Entry* chunk = chunks[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Entry[kChunkSize];
      chunks[c].store(chunk, std::memory_order_release);
    }
    Entry& e = chunk[i & (kChunkSize - 1)];
    e.hash = std::hash<std::string>()(name);
    e.name = name;
    ++count;
    const NameId id = static_cast<NameId>(i);
    ids.emplace(std::move(name), id);
    WSV_GAUGE_ADD("mem/name_interner_entries", 1);
    return id;
  }
};

NameTable& Table() {
  static NameTable& table = *new NameTable();
  return table;
}

}  // namespace

NameId InternName(std::string_view name) {
  NameTable& t = Table();
  std::string key(name);
  {
    std::shared_lock<std::shared_mutex> lock(t.mu);
    auto it = t.ids.find(key);
    if (it != t.ids.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(t.mu);
  auto it = t.ids.find(key);
  if (it != t.ids.end()) return it->second;
  return t.InsertLocked(std::move(key));
}

NameId FindName(std::string_view name) {
  NameTable& t = Table();
  std::string key(name);
  std::shared_lock<std::shared_mutex> lock(t.mu);
  auto it = t.ids.find(key);
  return it == t.ids.end() ? kNoName : it->second;
}

const std::string& NameOf(NameId id) { return Table().At(id).name; }

size_t NameHash(NameId id) { return Table().At(id).hash; }

void CountNameLookup() { WSV_COUNT1("relational/name_lookups"); }

}  // namespace wsv
