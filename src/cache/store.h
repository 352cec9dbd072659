// Versioned binary records for the on-disk verification cache.
//
// Every artifact the cache persists — verdicts, spec snapshots, the
// label registry — is one file holding one record:
//
//   "WSVCACHE"            8-byte magic
//   u32 version           format version (kStoreVersion)
//   u32 kind              record kind (caller-chosen discriminator)
//   u64 payload size
//   u64 checksum          FNV-1a over the payload bytes
//   payload
//
// Readers treat any mismatch — magic, version, kind, size, checksum —
// as a cache miss, never an error: a corrupted or stale file merely
// costs a re-verification. Writers publish through WriteFileAtomic so a
// crashed run can only leave a complete record or nothing.
//
// ByteWriter/ByteReader are the little-endian payload codecs; readers
// are bounds-checked and return false instead of reading past the end,
// so truncated payloads are also downgraded to misses.

#ifndef WSV_CACHE_STORE_H_
#define WSV_CACHE_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wsv {
namespace cache {

inline constexpr uint32_t kStoreVersion = 1;

// Record kinds. Values are part of the on-disk format; append only.
inline constexpr uint32_t kKindVerdict = 1;
inline constexpr uint32_t kKindSpec = 2;
// Retired: the FO-leaf column store's records (cols/). Never reuse, so
// an old record can never decode as a new kind.
inline constexpr uint32_t kKindLeafColumn = 3;
inline constexpr uint32_t kKindLabels = 4;

/// Little-endian append-only payload builder.
class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  /// Length-prefixed (u64) byte string.
  void Str(std::string_view s);

  std::string& data() { return out_; }
  const std::string& data() const { return out_; }

 private:
  std::string out_;
};

/// Bounds-checked reader over an encoded payload. Every accessor
/// returns false on underflow and leaves the cursor unspecified; the
/// caller abandons the record (miss) on the first failure.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool Str(std::string* s);
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// FNV-1a over arbitrary bytes — the record checksum.
uint64_t StoreChecksum(std::string_view bytes);

/// Frames `payload` as a record of `kind`. `version` is parameterized
/// so tests can write records a future (or past) format would reject.
std::string EncodeRecord(uint32_t kind, std::string_view payload,
                         uint32_t version = kStoreVersion);

/// Unframes `file`; false on any magic/version/kind/size/checksum
/// mismatch. On success `*payload` holds the record payload.
bool DecodeRecord(std::string_view file, uint32_t kind,
                  std::string* payload);

/// Reads a whole file; false when absent or unreadable.
bool ReadFileToString(const std::string& path, std::string* contents);

/// Encodes and atomically publishes a record file. Returns false (and
/// counts cache/store_write_errors) when the write fails; the cache
/// degrades to memory-only rather than erroring.
bool WriteRecordFile(const std::string& path, uint32_t kind,
                     std::string_view payload,
                     uint32_t version = kStoreVersion);

/// Reads and unframes a record file; false when absent/corrupt (the
/// caller counts cache/store_corrupt when the file existed).
bool ReadRecordFile(const std::string& path, uint32_t kind,
                    std::string* payload, bool* existed = nullptr);

/// mkdir -p. True when the directory exists afterwards.
bool EnsureDir(const std::string& path);

/// Regular files directly under `path` (names, not paths), sorted.
std::vector<std::string> ListDir(const std::string& path);

}  // namespace cache
}  // namespace wsv

#endif  // WSV_CACHE_STORE_H_
