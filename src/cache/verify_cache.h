// Cross-request verification cache (two tiers) with incremental
// re-verification.
//
// A verification request is (spec, property, database, options). The
// cache keys requests by the *content* fingerprints of those components
// (common/fingerprint.h) — never by path, address, or source text — so
// a reformatted spec or a re-interned database still hits. Verdicts are
// cached as rendered text (the witness via CounterExample::ToString()),
// which sidesteps cross-process value-interning drift: a cached verdict
// is byte-identical to what the cold run printed.
//
// Tiers:
//   memory — an LRU of CachedVerdicts keyed by combined fingerprint;
//   disk   — versioned binary records (cache/store.h) under --cache-dir:
//              verdicts/<combined-fp>.bin   one verdict each
//              specs/<spec-fp>.bin          spec text + lint text
//              labels.bin                   label registry + edit edges
//            Corrupt or version-mismatched records degrade to misses.
//
// Incremental invalidation: requests carry a caller-chosen *label* (a
// stable identity for "this spec slot", e.g. the file path). When a
// label re-arrives with a new spec fingerprint, the cache records an
// edit edge old->new, diffs the two parsed services
// (cache/invalidate.h), and classifies every prior verdict reachable
// through the edit chain: unaffected HOLDS verdicts migrate to the new
// fingerprint and serve as `warm`; affected (or VIOLATED) ones are
// evicted and re-verified (`invalidated`).
//
// Outcome vocabulary (one per Lookup, also the wide-event field):
//   hit          exact fingerprint match (memory or disk)
//   warm         migrated across a spec edit without re-verification
//   invalidated  a prior entry existed but could not survive the edit
//   miss         nothing known
//
// The environment variable WSV_DISABLE_VERIFY_CACHE=1 turns every
// Lookup into a miss and every Insert into a no-op (common/env.h's
// rule: unset, empty or "0" leaves the cache on; checked per call, so
// tests can flip it at runtime). Verifier behavior is unchanged
// either way — the cache only decides whether the verifier runs.

#ifndef WSV_CACHE_VERIFY_CACHE_H_
#define WSV_CACHE_VERIFY_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/invalidate.h"
#include "common/fingerprint.h"
#include "verify/ltl_verifier.h"
#include "ws/service.h"

namespace wsv {
namespace cache {

/// A fully rendered verification verdict. Witnesses are stored as the
/// text CounterExample::ToString() produced, so serving from cache is
/// byte-identical to the cold run that populated the entry.
struct CachedVerdict {
  bool holds = true;
  std::string witness_text;
  uint64_t databases_checked = 0;
  uint64_t total_graph_nodes = 0;
  uint64_t total_product_states = 0;
  bool complete_within_bounds = true;
  /// True when this entry was migrated across a spec edit: the verdict
  /// is sound, but the graph/product counts describe the pre-edit run.
  bool migrated = false;

  size_t ApproxBytes() const { return witness_text.size() + 64; }
};

enum class Outcome { kHit, kWarm, kMiss, kInvalidated };
const char* OutcomeName(Outcome outcome);

/// Component fingerprints of one request plus their combination. The
/// components are kept so the edit-chain walk can re-combine the same
/// (property, database, options) under an ancestor spec fingerprint.
struct RequestKey {
  Fingerprint spec;
  Fingerprint property;
  Fingerprint database;
  Fingerprint options;
  Fingerprint combined;
};

/// Builds the key for a request. `database` may be null (enumerated
/// database space — fingerprinted from the enumeration options
/// instead). `jobs`, `options.enable_slice` and `options.class_collapse`
/// participate because they can change the reported statistics while
/// the verdict stays the same.
RequestKey MakeRequestKey(const WebService& service,
                          const TemporalProperty& property,
                          const Instance* database,
                          const LtlVerifyOptions& options, int jobs);

class VerifyCache {
 public:
  struct Config {
    /// On-disk tier root; empty for memory-only operation.
    std::string dir;
    /// Memory-tier LRU capacity.
    size_t max_entries = 4096;
  };

  explicit VerifyCache(Config config);
  ~VerifyCache();

  VerifyCache(const VerifyCache&) = delete;
  VerifyCache& operator=(const VerifyCache&) = delete;

  /// False when WSV_DISABLE_VERIFY_CACHE is set (checked per call).
  static bool Enabled();

  /// Records the source text behind a spec fingerprint (memory + disk).
  /// The text is what edit-chain diffs re-parse, so callers must
  /// register every spec before Lookup.
  void RegisterSpec(const Fingerprint& spec_fp, const std::string& text);

  struct LookupResult {
    Outcome outcome = Outcome::kMiss;
    CachedVerdict verdict;  // meaningful for kHit / kWarm
    /// For kWarm / kInvalidated: the classified edit, for telemetry.
    SpecDelta delta;
  };

  /// Looks up `key`, following the edit chain for `label` (empty label:
  /// exact matches only). `service`/`property` are the already-parsed
  /// request, needed to diff and classify when the label's spec
  /// changed.
  LookupResult Lookup(const RequestKey& key, const std::string& label,
                      const WebService& service,
                      const TemporalProperty& property);

  /// Publishes a verdict under `key` (memory LRU + disk when
  /// configured). No-op when the cache is disabled.
  void Insert(const RequestKey& key, const CachedVerdict& verdict);

  /// Lint text cached per spec fingerprint (replay serves lint findings
  /// for warm specs without re-running analysis).
  bool LookupLint(const Fingerprint& spec_fp, std::string* lint_text);
  void InsertLint(const Fingerprint& spec_fp, const std::string& lint_text);

  /// Compile shims read only by perfbench/driver.cc; they do no work.
  LeafColumnStore* leaf_store() { return nullptr; }
  static std::string LeafContext(const RequestKey&, const WebService&,
                                 const TemporalProperty&, const Instance&,
                                 const LtlVerifyOptions&, bool = true) {
    return "";
  }

  size_t entries() const;

 private:
  void InsertLocked(const Fingerprint& combined, CachedVerdict verdict);
  void EvictLocked(const Fingerprint& combined);
  bool LoadFromDiskLocked(const Fingerprint& combined, CachedVerdict* out);
  void PersistLocked(const Fingerprint& combined,
                     const CachedVerdict& verdict);
  /// Writes labels.bin if the registry changed since the last write.
  /// Called with every verdict write and on destruction, not on the
  /// lookup that changed it, so a hit after an edit does no disk write.
  void PersistLabelsLocked();
  void LoadLabelsLocked();
  /// Parses (and memoizes) the service stored for `fp`; null when the
  /// text is unknown or no longer parses.
  const WebService* ParsedSpecLocked(const Fingerprint& fp);
  /// Composed delta along the edit chain from `from` (older) to `to`
  /// (newer); false when the chain is broken (missing spec text).
  bool ChainDeltaLocked(const Fingerprint& from, const Fingerprint& to,
                        SpecDelta* delta);

  std::string VerdictPath(const Fingerprint& combined) const;
  std::string SpecPath(const Fingerprint& spec_fp) const;

  Config config_;

  mutable std::mutex mu_;
  // Memory tier: LRU list (front = most recent) + index into it.
  std::list<std::pair<Fingerprint, CachedVerdict>> lru_;
  std::unordered_map<Fingerprint,
                     std::list<std::pair<Fingerprint, CachedVerdict>>::
                         iterator,
                     FingerprintHash>
      entries_;
  uint64_t entry_bytes_ = 0;

  // Edit-chain state.
  std::map<std::string, Fingerprint> label_spec_;       // label -> newest fp
  std::map<Fingerprint, Fingerprint> edit_parent_;      // newer -> older
  bool labels_dirty_ = false;  // registry changed since labels.bin
  std::map<Fingerprint, std::string> spec_texts_;
  std::map<Fingerprint, std::unique_ptr<WebService>> parsed_specs_;
  std::map<std::pair<Fingerprint, Fingerprint>, SpecDelta> delta_memo_;
  std::map<Fingerprint, std::string> lint_texts_;
  std::set<Fingerprint> lint_known_;
};

}  // namespace cache
}  // namespace wsv

#endif  // WSV_CACHE_VERIFY_CACHE_H_
