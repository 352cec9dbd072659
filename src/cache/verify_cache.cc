#include "cache/verify_cache.h"

#include <cstdio>
#include <utility>

#include "cache/store.h"
#include "common/env.h"
#include "obs/metrics.h"
#include "ws/spec_parser.h"

namespace wsv {
namespace cache {

namespace {

// Maximum edit-chain hops walked during a Lookup; longer histories fall
// back to a miss (re-verification is always sound).
constexpr int kMaxChainHops = 8;

Fingerprint CombineKey(const Fingerprint& spec, const Fingerprint& property,
                       const Fingerprint& database,
                       const Fingerprint& options) {
  FingerprintBuilder b;
  b.AbsorbString("wsv-request-v1");
  b.AbsorbFingerprint(spec);
  b.AbsorbFingerprint(property);
  b.AbsorbFingerprint(database);
  b.AbsorbFingerprint(options);
  return b.Finish();
}

std::string EncodeVerdict(const CachedVerdict& v) {
  ByteWriter w;
  w.U8(v.holds ? 1 : 0);
  w.U8(v.complete_within_bounds ? 1 : 0);
  w.U8(v.migrated ? 1 : 0);
  w.U64(v.databases_checked);
  w.U64(v.total_graph_nodes);
  w.U64(v.total_product_states);
  w.Str(v.witness_text);
  return std::move(w.data());
}

bool DecodeVerdict(std::string_view payload, CachedVerdict* v) {
  ByteReader r(payload);
  uint8_t holds, complete, migrated;
  if (!r.U8(&holds) || !r.U8(&complete) || !r.U8(&migrated) ||
      !r.U64(&v->databases_checked) || !r.U64(&v->total_graph_nodes) ||
      !r.U64(&v->total_product_states) || !r.Str(&v->witness_text) ||
      !r.AtEnd()) {
    return false;
  }
  v->holds = holds != 0;
  v->complete_within_bounds = complete != 0;
  v->migrated = migrated != 0;
  return true;
}

std::string EncodeSpec(const std::string& text, bool has_lint,
                       const std::string& lint) {
  ByteWriter w;
  w.Str(text);
  w.U8(has_lint ? 1 : 0);
  w.Str(lint);
  return std::move(w.data());
}

bool DecodeSpec(std::string_view payload, std::string* text, bool* has_lint,
                std::string* lint) {
  ByteReader r(payload);
  uint8_t hl;
  if (!r.Str(text) || !r.U8(&hl) || !r.Str(lint) || !r.AtEnd()) return false;
  *has_lint = hl != 0;
  return true;
}

}  // namespace

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kHit:
      return "hit";
    case Outcome::kWarm:
      return "warm";
    case Outcome::kMiss:
      return "miss";
    case Outcome::kInvalidated:
      return "invalidated";
  }
  return "miss";
}

RequestKey MakeRequestKey(const WebService& service,
                          const TemporalProperty& property,
                          const Instance* database,
                          const LtlVerifyOptions& options, int jobs) {
  RequestKey key;
  key.spec = FingerprintService(service);
  key.property = FingerprintProperty(property);
  if (database != nullptr) {
    key.database = FingerprintInstance(*database);
  } else {
    FingerprintBuilder b;
    b.AbsorbString("dbenum");
    b.AbsorbU64(static_cast<uint64_t>(options.db.fresh_values));
    b.AbsorbU64(
        static_cast<uint64_t>(options.db.max_tuples_per_relation));
    b.AbsorbU64(options.db.max_instances);
    b.AbsorbFingerprint(FingerprintValues(options.db.base_values));
    key.database = b.Finish();
  }
  // Everything that can change the *output* of a request: bounds,
  // pools, closure candidates, and the execution shape — class
  // collapsing, parallelism and slicing shift the reported statistics
  // even when verdicts agree. Bytecode on/off is deliberately absent —
  // it changes no observable number.
  FingerprintBuilder b;
  b.AbsorbString("opts");
  b.AbsorbFingerprint(FingerprintValues(options.db.base_values));
  b.AbsorbU64(static_cast<uint64_t>(options.db.fresh_values));
  b.AbsorbU64(static_cast<uint64_t>(options.db.max_tuples_per_relation));
  b.AbsorbU64(options.db.max_instances);
  b.AbsorbU64(options.graph.max_nodes);
  b.AbsorbU64(options.graph.max_edges);
  b.AbsorbFingerprint(FingerprintValues(options.graph.constant_pool));
  b.AbsorbU64(static_cast<uint64_t>(options.extra_constant_values));
  b.AbsorbU64(options.require_input_bounded ? 1 : 0);
  b.AbsorbFingerprint(FingerprintValues(options.closure_candidates));
  b.AbsorbU64(options.class_collapse ? 1 : 0);
  b.AbsorbU64(static_cast<uint64_t>(jobs));
  b.AbsorbU64(options.enable_slice ? 1 : 0);
  // Earlier builds absorbed the search strategy's name here. "dfs" is
  // the one search left, so absorbing the literal keeps the keys of
  // their default-strategy entries valid.
  b.AbsorbString("dfs");
  key.options = b.Finish();
  key.combined = CombineKey(key.spec, key.property, key.database,
                            key.options);
  return key;
}

// ---------------------------------------------------------------------

VerifyCache::VerifyCache(Config config) : config_(std::move(config)) {
  if (!config_.dir.empty()) {
    if (!EnsureDir(config_.dir) || !EnsureDir(config_.dir + "/verdicts") ||
        !EnsureDir(config_.dir + "/specs")) {
      // Unusable directory: degrade to memory-only rather than failing
      // requests over a cache problem.
      WSV_COUNT1("cache/store_write_errors");
      config_.dir.clear();
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  LoadLabelsLocked();
}

VerifyCache::~VerifyCache() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    PersistLabelsLocked();
  }
  WSV_GAUGE_SUB("mem/verify_cache_entries", entries_.size());
  WSV_GAUGE_SUB("mem/verify_cache_bytes", entry_bytes_);
}

bool VerifyCache::Enabled() {
  // Read per call (not a once-only static) so tests can flip the
  // environment mid-process.
  return !EnvFlagSet("WSV_DISABLE_VERIFY_CACHE");
}

std::string VerifyCache::VerdictPath(const Fingerprint& combined) const {
  return config_.dir + "/verdicts/" + combined.ToHex() + ".bin";
}

std::string VerifyCache::SpecPath(const Fingerprint& spec_fp) const {
  return config_.dir + "/specs/" + spec_fp.ToHex() + ".bin";
}

void VerifyCache::RegisterSpec(const Fingerprint& spec_fp,
                               const std::string& text) {
  if (!Enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto inserted = spec_texts_.emplace(spec_fp, text);
  if (!inserted.second) return;  // already known (and persisted)
  if (config_.dir.empty()) return;
  auto lint = lint_texts_.find(spec_fp);
  const bool has_lint = lint != lint_texts_.end();
  WriteRecordFile(SpecPath(spec_fp), kKindSpec,
                  EncodeSpec(text, has_lint,
                             has_lint ? lint->second : std::string()));
}

bool VerifyCache::LookupLint(const Fingerprint& spec_fp,
                             std::string* lint_text) {
  if (!Enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = lint_texts_.find(spec_fp);
  if (it != lint_texts_.end()) {
    *lint_text = it->second;
    WSV_COUNT1("cache/lint_hits");
    return true;
  }
  if (config_.dir.empty()) return false;
  std::string payload, text, lint;
  bool has_lint = false;
  if (!ReadRecordFile(SpecPath(spec_fp), kKindSpec, &payload) ||
      !DecodeSpec(payload, &text, &has_lint, &lint) || !has_lint) {
    return false;
  }
  spec_texts_.emplace(spec_fp, std::move(text));
  lint_texts_[spec_fp] = lint;
  *lint_text = std::move(lint);
  WSV_COUNT1("cache/lint_hits");
  return true;
}

void VerifyCache::InsertLint(const Fingerprint& spec_fp,
                             const std::string& lint_text) {
  if (!Enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  lint_texts_[spec_fp] = lint_text;
  if (config_.dir.empty()) return;
  auto text = spec_texts_.find(spec_fp);
  if (text == spec_texts_.end()) return;  // spec not registered yet
  WriteRecordFile(SpecPath(spec_fp), kKindSpec,
                  EncodeSpec(text->second, true, lint_text));
}

void VerifyCache::EvictLocked(const Fingerprint& combined) {
  auto it = entries_.find(combined);
  if (it != entries_.end()) {
    const uint64_t bytes = it->second->second.ApproxBytes();
    entry_bytes_ -= bytes;
    WSV_GAUGE_SUB("mem/verify_cache_bytes", bytes);
    WSV_GAUGE_SUB("mem/verify_cache_entries", 1);
    lru_.erase(it->second);
    entries_.erase(it);
  }
  if (!config_.dir.empty()) {
    std::remove(VerdictPath(combined).c_str());
  }
}

bool VerifyCache::LoadFromDiskLocked(const Fingerprint& combined,
                                     CachedVerdict* out) {
  if (config_.dir.empty()) return false;
  std::string payload;
  bool existed = false;
  if (!ReadRecordFile(VerdictPath(combined), kKindVerdict, &payload,
                      &existed)) {
    if (existed) WSV_COUNT1("cache/store_corrupt");
    return false;
  }
  if (!DecodeVerdict(payload, out)) {
    WSV_COUNT1("cache/store_corrupt");
    return false;
  }
  return true;
}

void VerifyCache::PersistLocked(const Fingerprint& combined,
                                const CachedVerdict& verdict) {
  if (config_.dir.empty()) return;
  WriteRecordFile(VerdictPath(combined), kKindVerdict,
                  EncodeVerdict(verdict));
  PersistLabelsLocked();
}

void VerifyCache::PersistLabelsLocked() {
  if (config_.dir.empty() || !labels_dirty_) return;
  labels_dirty_ = false;
  ByteWriter w;
  w.U64(label_spec_.size());
  for (const auto& [label, fp] : label_spec_) {
    w.Str(label);
    w.Str(fp.ToHex());
  }
  w.U64(edit_parent_.size());
  for (const auto& [child, parent] : edit_parent_) {
    w.Str(child.ToHex());
    w.Str(parent.ToHex());
  }
  WriteRecordFile(config_.dir + "/labels.bin", kKindLabels, w.data());
}

void VerifyCache::LoadLabelsLocked() {
  if (config_.dir.empty()) return;
  std::string payload;
  bool existed = false;
  if (!ReadRecordFile(config_.dir + "/labels.bin", kKindLabels, &payload,
                      &existed)) {
    if (existed) WSV_COUNT1("cache/store_corrupt");
    return;
  }
  ByteReader r(payload);
  uint64_t n;
  if (!r.U64(&n)) return;
  std::map<std::string, Fingerprint> labels;
  for (uint64_t i = 0; i < n; ++i) {
    std::string label, hex;
    Fingerprint fp;
    if (!r.Str(&label) || !r.Str(&hex) || !Fingerprint::FromHex(hex, &fp)) {
      WSV_COUNT1("cache/store_corrupt");
      return;
    }
    labels.emplace(std::move(label), fp);
  }
  uint64_t m;
  if (!r.U64(&m)) return;
  std::map<Fingerprint, Fingerprint> edges;
  for (uint64_t i = 0; i < m; ++i) {
    std::string child_hex, parent_hex;
    Fingerprint child, parent;
    if (!r.Str(&child_hex) || !r.Str(&parent_hex) ||
        !Fingerprint::FromHex(child_hex, &child) ||
        !Fingerprint::FromHex(parent_hex, &parent)) {
      WSV_COUNT1("cache/store_corrupt");
      return;
    }
    edges.emplace(child, parent);
  }
  label_spec_ = std::move(labels);
  edit_parent_ = std::move(edges);
}

const WebService* VerifyCache::ParsedSpecLocked(const Fingerprint& fp) {
  auto memo = parsed_specs_.find(fp);
  if (memo != parsed_specs_.end()) return memo->second.get();
  auto text = spec_texts_.find(fp);
  if (text == spec_texts_.end() && !config_.dir.empty()) {
    std::string payload, spec_text, lint;
    bool has_lint = false;
    if (ReadRecordFile(SpecPath(fp), kKindSpec, &payload) &&
        DecodeSpec(payload, &spec_text, &has_lint, &lint)) {
      if (has_lint) lint_texts_.emplace(fp, std::move(lint));
      text = spec_texts_.emplace(fp, std::move(spec_text)).first;
    }
  }
  if (text == spec_texts_.end()) return nullptr;
  auto parsed = ParseServiceSpec(text->second);
  if (!parsed.ok()) {
    parsed_specs_.emplace(fp, nullptr);
    return nullptr;
  }
  auto service = std::make_unique<WebService>(std::move(parsed).value());
  const WebService* raw = service.get();
  parsed_specs_.emplace(fp, std::move(service));
  return raw;
}

bool VerifyCache::ChainDeltaLocked(const Fingerprint& from,
                                   const Fingerprint& to, SpecDelta* delta) {
  // Path newest -> oldest, then compose edge deltas oldest-first.
  std::vector<Fingerprint> path{to};
  while (path.back() != from) {
    if (static_cast<int>(path.size()) > kMaxChainHops) return false;
    auto parent = edit_parent_.find(path.back());
    if (parent == edit_parent_.end()) return false;
    path.push_back(parent->second);
  }
  SpecDelta composed;
  for (size_t i = path.size() - 1; i > 0; --i) {
    const Fingerprint& older = path[i];
    const Fingerprint& newer = path[i - 1];
    auto memo = delta_memo_.find({older, newer});
    if (memo == delta_memo_.end()) {
      const WebService* old_svc = ParsedSpecLocked(older);
      const WebService* new_svc = ParsedSpecLocked(newer);
      if (old_svc == nullptr || new_svc == nullptr) return false;
      memo = delta_memo_
                 .emplace(std::make_pair(older, newer),
                          DiffServices(*old_svc, *new_svc))
                 .first;
    }
    composed = ComposeDeltas(composed, memo->second);
    // A global delta invalidates everything regardless of what later
    // edits did; no need to diff the rest of the chain.
    if (composed.global) break;
  }
  *delta = std::move(composed);
  return true;
}

VerifyCache::LookupResult VerifyCache::Lookup(
    const RequestKey& key, const std::string& label,
    const WebService& service, const TemporalProperty& property) {
  LookupResult result;
  if (!Enabled()) return result;
  std::lock_guard<std::mutex> lock(mu_);
  WSV_COUNT1("cache/requests");

  // Keep the label registry current before anything else: the edit edge
  // old->new must be recorded even when this particular property misses.
  if (!label.empty()) {
    auto reg = label_spec_.find(label);
    if (reg == label_spec_.end()) {
      label_spec_.emplace(label, key.spec);
      labels_dirty_ = true;
    } else if (reg->second != key.spec) {
      WSV_COUNT1("cache/spec_edits");
      // First parent wins: a fingerprint's diff ancestry is fixed by
      // the first edit that produced it.
      edit_parent_.emplace(key.spec, reg->second);
      reg->second = key.spec;
      labels_dirty_ = true;
    }
  }
  (void)service;

  // Tier 1: exact match in memory.
  auto it = entries_.find(key.combined);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    WSV_COUNT1("cache/hits");
    result.outcome = Outcome::kHit;
    result.verdict = it->second->second;
    return result;
  }
  // Tier 2: exact match on disk; promote into memory.
  CachedVerdict from_disk;
  if (LoadFromDiskLocked(key.combined, &from_disk)) {
    WSV_COUNT1("cache/hits");
    WSV_COUNT1("cache/disk_hits");
    result.outcome = Outcome::kHit;
    result.verdict = from_disk;
    InsertLocked(key.combined, std::move(from_disk));
    return result;
  }

  // Edit chain: look for this (property, database, options) under an
  // ancestor spec fingerprint and classify the accumulated edit.
  Fingerprint ancestor = key.spec;
  for (int hop = 0; hop < kMaxChainHops; ++hop) {
    auto parent = edit_parent_.find(ancestor);
    if (parent == edit_parent_.end()) break;
    ancestor = parent->second;
    const Fingerprint old_combined = CombineKey(
        ancestor, key.property, key.database, key.options);
    CachedVerdict old_verdict;
    bool found = false;
    auto old_it = entries_.find(old_combined);
    if (old_it != entries_.end()) {
      old_verdict = old_it->second->second;
      found = true;
    } else if (LoadFromDiskLocked(old_combined, &old_verdict)) {
      found = true;
    }
    if (!found) continue;

    SpecDelta delta;
    if (!ChainDeltaLocked(ancestor, key.spec, &delta)) break;
    result.delta = delta;
    // Only complete HOLDS verdicts migrate: a VIOLATED witness cites
    // concrete run content any edit may perturb, and a truncated search
    // may explore differently post-edit.
    if (PropertyAffected(delta, property, service) || !old_verdict.holds ||
        !old_verdict.complete_within_bounds) {
      EvictLocked(old_combined);
      WSV_COUNT1("cache/invalidated");
      result.outcome = Outcome::kInvalidated;
      return result;
    }
    old_verdict.migrated = true;
    WSV_COUNT1("cache/warm_hits");
    result.outcome = Outcome::kWarm;
    result.verdict = old_verdict;
    InsertLocked(key.combined, old_verdict);
    PersistLocked(key.combined, old_verdict);
    return result;
  }

  WSV_COUNT1("cache/misses");
  return result;
}

void VerifyCache::Insert(const RequestKey& key,
                         const CachedVerdict& verdict) {
  if (!Enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(key.combined, verdict);
  PersistLocked(key.combined, verdict);
}

void VerifyCache::InsertLocked(const Fingerprint& combined,
                               CachedVerdict verdict) {
  auto it = entries_.find(combined);
  if (it != entries_.end()) {
    const uint64_t old_bytes = it->second->second.ApproxBytes();
    const uint64_t new_bytes = verdict.ApproxBytes();
    WSV_GAUGE_SUB("mem/verify_cache_bytes", old_bytes);
    WSV_GAUGE_ADD("mem/verify_cache_bytes", new_bytes);
    entry_bytes_ += new_bytes - old_bytes;
    it->second->second = std::move(verdict);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  const uint64_t bytes = verdict.ApproxBytes();
  lru_.emplace_front(combined, std::move(verdict));
  entries_[combined] = lru_.begin();
  entry_bytes_ += bytes;
  WSV_GAUGE_ADD("mem/verify_cache_bytes", bytes);
  WSV_GAUGE_ADD("mem/verify_cache_entries", 1);
  while (entries_.size() > config_.max_entries) {
    const auto& victim = lru_.back();
    const uint64_t victim_bytes = victim.second.ApproxBytes();
    entries_.erase(victim.first);
    entry_bytes_ -= victim_bytes;
    WSV_GAUGE_SUB("mem/verify_cache_bytes", victim_bytes);
    WSV_GAUGE_SUB("mem/verify_cache_entries", 1);
    WSV_COUNT1("cache/evictions");
    lru_.pop_back();
  }
}

size_t VerifyCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace cache
}  // namespace wsv
