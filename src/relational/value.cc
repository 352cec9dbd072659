#include "relational/value.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "obs/metrics.h"

namespace wsv {

namespace {

// Process-wide interner. Entries are never removed, so returned ids and
// name references stay valid for the program lifetime. The table is a
// function-local static pointer (never destroyed) per the style rules on
// static storage duration.
//
// The interner sits on the multi-threaded verification hot path (name()
// is called per edge-signature render while building configuration
// graphs in parallel), so it uses a reader-writer lock: lookups take a
// shared lock, and every mutating path takes the exclusive lock exactly
// once.
struct Interner {
  std::shared_mutex mu;
  std::unordered_map<std::string, int32_t> ids;
  std::vector<const std::string*> names;  // id -> name (stable pointers)
  int64_t fresh_counter = 0;

  // Inserts `name` with the next id. Caller holds the exclusive lock and
  // has checked that `name` is absent.
  int32_t InsertLocked(std::string name) {
    int32_t id = static_cast<int32_t>(names.size());
    // Estimated footprint of one entry: key characters (or SSO buffer),
    // the map node (key string header, hash, id, bucket chain pointer),
    // and the names-vector back pointer. Entries are never removed, so
    // the gauge only rises.
    const size_t char_bytes = std::max(name.capacity(), sizeof(std::string));
    WSV_GAUGE_ADD("mem/value_interner_bytes",
                  char_bytes + sizeof(std::string) + 4 * sizeof(void*) +
                      sizeof(const std::string*));
    WSV_GAUGE_ADD("mem/value_interner_entries", 1);
    auto inserted = ids.emplace(std::move(name), id).first;
    names.push_back(&inserted->first);
    return id;
  }
};

Interner& GetInterner() {
  static Interner& interner = *new Interner();
  return interner;
}

}  // namespace

Value Value::Intern(std::string_view name) {
  Interner& in = GetInterner();
  std::string key(name);
  {
    // Fast path: already interned; shared lock admits concurrent readers.
    std::shared_lock<std::shared_mutex> lock(in.mu);
    auto it = in.ids.find(key);
    if (it != in.ids.end()) return Value(it->second);
  }
  // Miss: one exclusive critical section, re-checking under the lock
  // (another thread may have interned the name in the window).
  std::unique_lock<std::shared_mutex> lock(in.mu);
  auto it = in.ids.find(key);
  if (it != in.ids.end()) return Value(it->second);
  return Value(in.InsertLocked(std::move(key)));
}

Value Value::Fresh(std::string_view prefix) {
  Interner& in = GetInterner();
  // Single exclusive critical section: bump the counter and insert the
  // first non-colliding candidate without ever dropping the lock.
  std::unique_lock<std::shared_mutex> lock(in.mu);
  while (true) {
    std::string candidate =
        std::string(prefix) + std::to_string(in.fresh_counter++);
    if (in.ids.find(candidate) == in.ids.end()) {
      return Value(in.InsertLocked(std::move(candidate)));
    }
  }
}

const std::string& Value::name() const {
  Interner& in = GetInterner();
  std::shared_lock<std::shared_mutex> lock(in.mu);
  return *in.names[static_cast<size_t>(id_)];
}

std::string TupleToString(Row t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ", ";
    out += t[i].valid() ? t[i].name() : std::string("<invalid>");
  }
  out += ")";
  return out;
}

}  // namespace wsv
