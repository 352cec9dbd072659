#include "cache/store.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/file_util.h"
#include "obs/metrics.h"

namespace wsv {
namespace cache {

namespace {

constexpr char kMagic[8] = {'W', 'S', 'V', 'C', 'A', 'C', 'H', 'E'};

void PutLe(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

bool GetLe(std::string_view data, size_t* pos, int bytes, uint64_t* v) {
  if (data.size() - *pos < static_cast<size_t>(bytes)) return false;
  uint64_t r = 0;
  for (int i = 0; i < bytes; ++i) {
    r |= static_cast<uint64_t>(static_cast<unsigned char>(data[*pos + i]))
         << (8 * i);
  }
  *pos += bytes;
  *v = r;
  return true;
}

}  // namespace

void ByteWriter::U32(uint32_t v) { PutLe(&out_, v, 4); }
void ByteWriter::U64(uint64_t v) { PutLe(&out_, v, 8); }

void ByteWriter::Str(std::string_view s) {
  U64(s.size());
  out_.append(s.data(), s.size());
}

bool ByteReader::U8(uint8_t* v) {
  uint64_t r;
  if (!GetLe(data_, &pos_, 1, &r)) return false;
  *v = static_cast<uint8_t>(r);
  return true;
}

bool ByteReader::U32(uint32_t* v) {
  uint64_t r;
  if (!GetLe(data_, &pos_, 4, &r)) return false;
  *v = static_cast<uint32_t>(r);
  return true;
}

bool ByteReader::U64(uint64_t* v) { return GetLe(data_, &pos_, 8, v); }

bool ByteReader::Str(std::string* s) {
  uint64_t n;
  if (!U64(&n)) return false;
  if (data_.size() - pos_ < n) return false;
  s->assign(data_.data() + pos_, static_cast<size_t>(n));
  pos_ += static_cast<size_t>(n);
  return true;
}

uint64_t StoreChecksum(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string EncodeRecord(uint32_t kind, std::string_view payload,
                         uint32_t version) {
  std::string out;
  out.reserve(sizeof(kMagic) + 24 + payload.size());
  out.append(kMagic, sizeof(kMagic));
  PutLe(&out, version, 4);
  PutLe(&out, kind, 4);
  PutLe(&out, payload.size(), 8);
  PutLe(&out, StoreChecksum(payload), 8);
  out.append(payload.data(), payload.size());
  return out;
}

bool DecodeRecord(std::string_view file, uint32_t kind,
                  std::string* payload) {
  if (file.size() < sizeof(kMagic) + 24) return false;
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) return false;
  size_t pos = sizeof(kMagic);
  uint64_t version, got_kind, size, checksum;
  if (!GetLe(file, &pos, 4, &version) || !GetLe(file, &pos, 4, &got_kind) ||
      !GetLe(file, &pos, 8, &size) || !GetLe(file, &pos, 8, &checksum)) {
    return false;
  }
  if (version != kStoreVersion || got_kind != kind) return false;
  if (file.size() - pos != size) return false;
  std::string_view body = file.substr(pos);
  if (StoreChecksum(body) != checksum) return false;
  payload->assign(body.data(), body.size());
  return true;
}

bool ReadFileToString(const std::string& path, std::string* contents) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  contents->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents->append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool WriteRecordFile(const std::string& path, uint32_t kind,
                     std::string_view payload, uint32_t version) {
  Status st = WriteFileAtomic(path, EncodeRecord(kind, payload, version));
  if (!st.ok()) {
    WSV_COUNT1("cache/store_write_errors");
    return false;
  }
  return true;
}

bool ReadRecordFile(const std::string& path, uint32_t kind,
                    std::string* payload, bool* existed) {
  std::string file;
  const bool present = ReadFileToString(path, &file);
  if (existed != nullptr) *existed = present;
  if (!present) return false;
  return DecodeRecord(file, kind, payload);
}

bool EnsureDir(const std::string& path) {
  if (path.empty()) return false;
  std::string prefix;
  size_t start = 0;
  if (path[0] == '/') {
    prefix = "/";
    start = 1;
  }
  while (start <= path.size()) {
    size_t slash = path.find('/', start);
    if (slash == std::string::npos) slash = path.size();
    if (slash > start) {
      prefix.append(path, start, slash - start);
      if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
      prefix.push_back('/');
    }
    start = slash + 1;
  }
  struct stat sb;
  return stat(path.c_str(), &sb) == 0 && S_ISDIR(sb.st_mode);
}

std::vector<std::string> ListDir(const std::string& path) {
  std::vector<std::string> names;
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) return names;
  while (struct dirent* entry = readdir(dir)) {
    const char* name = entry->d_name;
    if (std::strcmp(name, ".") == 0 || std::strcmp(name, "..") == 0) continue;
    std::string full = path + "/" + name;
    struct stat sb;
    if (stat(full.c_str(), &sb) == 0 && S_ISREG(sb.st_mode)) {
      names.push_back(name);
    }
  }
  closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace cache
}  // namespace wsv
