// Batch replay driver: feed a JSONL job stream through the
// verification cache and report hit rates and latencies.
//
// `wsvcli replay <jobs.jsonl>` exercises the cache the way a hosted
// verification service would see traffic: a stream of (spec, property,
// database) requests with repeats and occasional spec edits. Each line
// of the job file is one JSON object:
//
//   {"spec": "specs/login.wsv",          // path, or instead:
//    "spec_text": "service ... ",        //   inline spec source
//    "label": "login",                   // edit-chain identity
//                                        //   (default: spec path)
//    "property": "G(!CP | logged_in)",   // required
//    "db": "specs/login.wsd",            // path, or instead:
//    "db_text": "user(alice, pw).",      //   inline database
//    "pool": ["a", "b"],                 // input-constant pool
//    "fresh": 1,                         // fresh database values
//    "unchecked": false}                 // skip input-bounded gate
//
// Omitting db/db_text enumerates the bounded database space, exactly
// like `wsvcli verify` without a database argument. The parser accepts
// only this shape (flat object, string/number/bool/string-array
// values) — it is a replay-log reader, not a JSON library.
//
// Per request the driver performs the cache lookup, runs the verifier
// on a miss, and records the outcome (hit/warm/miss/invalidated),
// latency, and the per-request `ltl/products_built`, `config_graph/nodes`
// and FO-leaf work deltas — the proof that cache-served requests build,
// expand and evaluate nothing. The report aggregates into repeat hit
// rate, hit-latency percentiles and the hit-p99 / miss-p50 latency
// ratio; ToBenchJson renders a google-benchmark-schema JSON so
// tools/bench_guard.py can enforce budgets on replay runs
// (bench/budgets_replay.json).

#ifndef WSV_CACHE_REPLAY_H_
#define WSV_CACHE_REPLAY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cache/verify_cache.h"
#include "common/status.h"

namespace wsv {
namespace cache {

struct ReplayJob {
  std::string label;
  std::string spec_path;
  std::string spec_text;
  std::string property;
  std::string db_path;
  std::string db_text;
  std::vector<std::string> pool;
  int fresh = 1;
  bool unchecked = false;
};

/// Parses a jobs.jsonl stream (blank lines and #-comment lines are
/// skipped). Fails on the first malformed line, citing its number.
StatusOr<std::vector<ReplayJob>> ParseReplayJobs(std::string_view jsonl);

struct ReplayOptions {
  /// On-disk cache tier; empty = memory-only.
  std::string cache_dir;
  /// Worker threads per verification (LtlVerifier jobs).
  int jobs = 1;
  /// Suppress the per-request progress lines (the report still prints).
  bool quiet = false;
  /// Emit per-request wide events (caller opened the event log).
  bool log_events = false;
};

struct ReplayReport {
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t warm = 0;
  uint64_t misses = 0;
  uint64_t invalidated = 0;
  uint64_t errors = 0;
  /// Requests whose combined fingerprint appeared earlier in the stream.
  uint64_t repeats = 0;
  /// Of those, how many the cache served (hit or warm).
  uint64_t repeat_hits = 0;
  /// Sum of per-request ltl/products_built deltas over cache-served
  /// requests — must stay 0 (a served request builds nothing).
  uint64_t cached_products_built = 0;
  /// Likewise for config_graph/nodes: a served request expands no graph.
  uint64_t cached_graph_nodes = 0;
  /// Likewise for ltl/fo_leaf_queries + ltl/fo_leaf_evals: a served
  /// request evaluates no FO leaf.
  uint64_t cached_fo_leaf_work = 0;
  /// Wall latencies of cache-served requests, ns.
  std::vector<uint64_t> hit_latencies_ns;
  /// Wall latencies of verified requests (miss or invalidated), ns.
  std::vector<uint64_t> verify_latencies_ns;
  uint64_t total_ns = 0;

  double RepeatHitRate() const {
    return repeats == 0 ? 1.0
                        : static_cast<double>(repeat_hits) /
                              static_cast<double>(repeats);
  }
  uint64_t HitLatencyPercentileNs(double p) const;
  /// Hit p99 over miss/invalidated p50, both measured in this process,
  /// so a slower host slows both sides; 0 when nothing was verified.
  double HitP99OverMissP50() const;

  std::string ToText() const;
  /// google-benchmark JSON schema (one "replay" benchmark with the
  /// aggregates as user counters), for tools/bench_guard.py.
  std::string ToBenchJson() const;
};

/// Runs the job stream through `cache`. Individual request failures
/// (bad spec, unparsable property) are counted in `errors` and do not
/// abort the replay; only infrastructure failures return a status.
StatusOr<ReplayReport> RunReplay(const std::vector<ReplayJob>& jobs,
                                 const ReplayOptions& options,
                                 VerifyCache* cache);

}  // namespace cache
}  // namespace wsv

#endif  // WSV_CACHE_REPLAY_H_
