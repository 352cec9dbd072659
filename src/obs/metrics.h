// The metrics registry: named monotonic counters, duration histograms,
// and occupancy gauges for the verification pipeline.
//
// The decision procedures hide enormous constant factors (database
// enumeration, valuation fan-out, FO-leaf evaluation); wall-clock alone
// cannot attribute them, especially on shared bench boxes. The registry
// makes the *work* visible: every hot layer bumps counters
// (WSV_COUNT) and records durations (WSV_TIMER / WSV_HIST_NS), and the
// front ends snapshot the totals on demand.
//
// Design: the hot paths write nothing shared. Each thread owns one
// shard *per request id* (a flat slot array); a slot write is one
// thread-local lookup plus one relaxed atomic add on a slot no other
// thread writes. Counters bumped per edge or per FO program run do not
// even pay that: they are *deferred* (WSV_COUNT_DEFERRED), a plain add
// to a thread-local pending slot, and PublishDeferred() moves the
// pending counts into the shard. Deferred counts are published at the
// end of each node expansion and each valuation sweep, whenever the
// thread's request id changes, whenever the thread snapshots or closes a
// request, after every kDeferredPublishInterval deferred adds, and at
// thread exit — so every total stays exact, and a snapshot from another
// thread lags by at most one expansion or that many adds.
// Aggregation (SnapshotMetrics) walks the live shards plus the folded
// totals of exited threads, so counter totals are exact and identical
// between serial and parallel runs of the same work. The counter
// obs/registry_writes counts the shard slot writes themselves (one per
// immediate counter add or histogram record, one per published deferred
// counter), so a guard can tell when a write creeps back onto a
// per-edge path.
//
// Request scoping: shards are tagged with the thread's current request
// id (see obs/request.h for the RAII layer). A per-request snapshot
// aggregates exactly the work performed under that id — on any thread —
// so concurrent verifications sharing the pool stay attributable, and
// the per-request deltas sum to the global totals. Closing a request
// folds its shards into a per-request accumulator *under the registry
// lock*, so a snapshot taken mid-retirement can never observe a
// half-folded shard.
//
// Gauges are different: they track current occupancy (bytes held by the
// value interner, program cache, graphs, VM arenas), go up *and* down,
// and are process-global by nature — they appear only in global
// snapshots, never in per-request deltas. Each gauge also keeps its
// high-water mark since the last ResetMetrics.
//
// Compile-time kill switch: building with -DWSV_OBS_DISABLED turns every
// instrumentation macro into a no-op, so the instrumented code compiles
// to exactly the uninstrumented code. The registry API itself stays
// linkable (snapshots are simply empty).

#ifndef WSV_OBS_METRICS_H_
#define WSV_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace wsv {
namespace obs {

/// Log2 histogram buckets: bucket b counts values v with bit_width(v) == b
/// (bucket 0 holds only v == 0), so b ranges over [0, 64].
inline constexpr size_t kHistogramBuckets = 65;

/// Identifies one logical request (one verify/lint job) for metric
/// attribution. 0 means "no request": ambient work outside any scope.
using RequestId = uint64_t;
inline constexpr RequestId kNoRequest = 0;

/// Aggregated state of one histogram at snapshot time.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;  // exact sum of recorded values (ns for timers)
  uint64_t max = 0;  // exact maximum recorded value (0 when count == 0)
  std::vector<uint64_t> buckets;  // kHistogramBuckets cumulative-free counts

  double Mean() const { return count == 0 ? 0.0 : double(sum) / double(count); }
  /// Upper bound of the bucket containing the p-quantile (p in [0, 1]).
  /// Exact to within a factor of 2 — enough to tell microseconds from
  /// milliseconds, which is what the phase table is for.
  uint64_t Percentile(double p) const;
};

/// A point-in-time aggregation across all threads, live and exited.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;
  /// Occupancy gauges (global snapshots only; empty in request deltas).
  std::map<std::string, int64_t> gauges;
  /// Each gauge's high-water mark since the last ResetMetrics (global
  /// snapshots only).
  std::map<std::string, int64_t> gauge_peaks;
  /// The process's peak resident set size (VmHWM) in bytes at snapshot
  /// time; 0 where the platform does not report it (global snapshots
  /// only).
  int64_t process_peak_rss_bytes = 0;

  /// Value of a counter, 0 if never registered/bumped.
  uint64_t CounterValue(std::string_view name) const;
  /// Value of a gauge, 0 if never registered.
  int64_t GaugeValue(std::string_view name) const;
  /// High-water mark of a gauge, 0 if never registered.
  int64_t GaugePeak(std::string_view name) const;
};

/// later − earlier, per metric. Counters and histogram counts/sums/buckets
/// subtract (saturating at 0); a histogram's `max` is not subtractable, so
/// the diff keeps `later`'s max (an upper bound for the interval). Gauges
/// diff signed; gauge peaks and the process peak RSS are not subtractable
/// either, so the diff keeps `later`'s. Used for phase-window attribution.
MetricsSnapshot DiffSnapshots(const MetricsSnapshot& later,
                              const MetricsSnapshot& earlier);

/// A monotonic counter handle. Handles are registry-owned, stable for the
/// process lifetime, and safe to share across threads.
class Counter {
 public:
  void Add(uint64_t n);
  void Increment() { Add(1); }

 private:
  friend class Registry;
  explicit Counter(uint32_t id) : id_(id) {}
  uint32_t id_;
};

/// A duration histogram handle (values in nanoseconds by convention).
class Histogram {
 public:
  void Record(uint64_t value);

 private:
  friend class Registry;
  explicit Histogram(uint32_t id) : id_(id) {}
  uint32_t id_;
};

/// A counter whose adds stay on the writing thread until published:
/// Add is a plain add to a thread-local pending slot, and
/// PublishDeferred() moves the thread's pending counts into its registry
/// shard (see the file comment for when that happens). For counters
/// bumped per edge or per FO program run. At most kMaxDeferredCounters
/// names can be deferred.
class DeferredCounter {
 public:
  inline void Add(uint64_t n);

 private:
  friend class Registry;
  explicit DeferredCounter(uint32_t slot) : slot_(slot) {}
  uint32_t slot_;
};

inline constexpr size_t kMaxDeferredCounters = 64;
/// A thread publishes its deferred counts by itself after this many
/// deferred adds, so work done between the coarse publish points (one
/// node expansion that adds a million edges, a sweep over an expanded
/// graph) reaches other threads' snapshots with a bounded lag.
inline constexpr uint64_t kDeferredPublishInterval = 16384;

/// Publishes this thread's deferred counts to its shard for the current
/// request id. Cheap when nothing is pending.
void PublishDeferred();

namespace internal {

/// One thread's unpublished deferred counts. Plain data with a constant
/// initializer, so access compiles to a thread-pointer offset.
struct DeferredCounts {
  uint64_t dirty = 0;  // bit i: counts[i] may hold unpublished work
  uint64_t adds = 0;   // deferred adds since the last publish
  uint64_t counts[kMaxDeferredCounters] = {};
};
inline thread_local DeferredCounts t_deferred;

/// Called on the first deferred add since the last publish: makes sure
/// the thread's shards exist, so thread exit publishes what is pending.
void ArmDeferred();

}  // namespace internal

void DeferredCounter::Add(uint64_t n) {
  internal::DeferredCounts& d = internal::t_deferred;
  if (d.dirty == 0) internal::ArmDeferred();
  d.dirty |= uint64_t{1} << slot_;
  d.counts[slot_] += n;
  if (++d.adds == kDeferredPublishInterval) PublishDeferred();
}

/// Publishes the thread's deferred counts when the scope ends, on every
/// exit path (a valuation sweep).
class PublishDeferredAtExit {
 public:
  PublishDeferredAtExit() = default;
  ~PublishDeferredAtExit() { PublishDeferred(); }

  PublishDeferredAtExit(const PublishDeferredAtExit&) = delete;
  PublishDeferredAtExit& operator=(const PublishDeferredAtExit&) = delete;
};

/// An occupancy gauge handle: a signed level that rises and falls (bytes
/// held, entries cached), and its high-water mark. Writes are relaxed
/// atomic ops on process-global slots — gauges are not sharded because
/// they track *current* occupancy, not attributable work. Add raises the
/// mark to the level it produced (a relaxed max), so the mark is the
/// highest level any Add reached since the last ResetMetrics. Owners on
/// a hot path keep their growth in a local and publish it at coarse
/// points (a node expansion's end), not per item.
class Gauge {
 public:
  void Add(int64_t n) {
    const int64_t level = slot_->fetch_add(n, std::memory_order_relaxed) + n;
    int64_t peak = peak_->load(std::memory_order_relaxed);
    while (level > peak &&
           !peak_->compare_exchange_weak(peak, level,
                                         std::memory_order_relaxed)) {
    }
  }
  void Sub(int64_t n) { slot_->fetch_sub(n, std::memory_order_relaxed); }
  int64_t Value() const { return slot_->load(std::memory_order_relaxed); }
  int64_t Peak() const { return peak_->load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Gauge(std::atomic<int64_t>* slot, std::atomic<int64_t>* peak)
      : slot_(slot), peak_(peak) {}
  std::atomic<int64_t>* slot_;
  std::atomic<int64_t>* peak_;
};

/// Interns `name` and returns its process-wide counter. Call sites should
/// cache the reference (the WSV_COUNT macro does, via a local static).
Counter& GetCounter(std::string_view name);
/// The deferred handle of the counter `name` (the same registry counter
/// GetCounter(name) writes immediately).
DeferredCounter& GetDeferredCounter(std::string_view name);
Histogram& GetHistogram(std::string_view name);
Gauge& GetGauge(std::string_view name);

/// Aggregates every registered metric across all shards.
MetricsSnapshot SnapshotMetrics();

/// Zeroes every counter and histogram (names stay registered), including
/// open per-request accumulators and the calling thread's unpublished
/// deferred counts (other threads' pending counts are theirs to publish). Gauge levels are deliberately *not*
/// reset: they track live occupancy whose Add/Sub bookkeeping would
/// desync. Each gauge's high-water mark is rebased to its current level,
/// so the mark then measures the peak of what runs after the reset.
/// Intended for tests and benchmark iterations; do not race it against
/// writers.
void ResetMetrics();

// --- Request accounting (low-level; prefer obs::RequestScope). ---------

/// The request id writes on this thread currently attribute to.
RequestId CurrentRequestId();

/// Sets the thread's current request id, returning the previous one.
/// Publishes the thread's deferred counts to the old id first; subsequent
/// metric writes on this thread land in a shard tagged with the new id.
RequestId ExchangeCurrentRequestId(RequestId id);

/// Allocates a fresh request id (never 0) and starts tracking a
/// per-request accumulator under it.
RequestId OpenRequestAccounting(std::string label);

/// Exact totals of the work attributed to `id` so far: the request's
/// folded accumulator plus its still-live shards. Safe to call while the
/// request is running on other threads.
MetricsSnapshot SnapshotRequestMetrics(RequestId id);

/// Folds every shard tagged `id` into the request accumulator (and the
/// global retired totals) under the registry lock, zeroing the shards and
/// marking them closed so owner threads lazily drop them. Totals remain
/// exact: a snapshot during or after the fold sees each count exactly
/// once. Idempotent.
void CloseRequestAccounting(RequestId id);

/// Drops the per-request accumulator. After this, SnapshotRequestMetrics
/// for `id` returns only residual live-shard writes (normally none).
void ReleaseRequestAccounting(RequestId id);

/// One tracked, not-yet-closed request (for the watchdog).
struct OpenRequestInfo {
  RequestId id = kNoRequest;
  std::string label;
  uint64_t open_ns = 0;  // MonotonicNowNs at open
};

/// All tracked open requests, ascending by id.
std::vector<OpenRequestInfo> OpenRequests();

/// Monotonic timestamp in nanoseconds (steady clock).
uint64_t MonotonicNowNs();

/// RAII timer recording its lifetime into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist)
      : hist_(hist), start_(MonotonicNowNs()) {}
  ~ScopedTimer() { hist_.Record(MonotonicNowNs() - start_); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& hist_;
  uint64_t start_;
};

}  // namespace obs
}  // namespace wsv

#define WSV_OBS_CONCAT_INNER(a, b) a##b
#define WSV_OBS_CONCAT(a, b) WSV_OBS_CONCAT_INNER(a, b)

#if defined(WSV_OBS_DISABLED)

#define WSV_COUNT(name, n) \
  do {                     \
  } while (0)
#define WSV_COUNT1(name) \
  do {                   \
  } while (0)
#define WSV_COUNT_DEFERRED(name, n) \
  do {                              \
  } while (0)
#define WSV_COUNT1_DEFERRED(name) \
  do {                            \
  } while (0)
#define WSV_HIST(name, value) \
  do {                        \
  } while (0)
#define WSV_TIMER(name) \
  do {                  \
  } while (0)
#define WSV_GAUGE_ADD(name, n) \
  do {                         \
  } while (0)
#define WSV_GAUGE_SUB(name, n) \
  do {                         \
  } while (0)
#define WSV_OBS_NOW() uint64_t{0}

#else  // !WSV_OBS_DISABLED

/// Bumps the named counter by `n`. The handle lookup happens once per
/// call site (local static).
#define WSV_COUNT(name, n)                                                  \
  do {                                                                      \
    static ::wsv::obs::Counter& wsv_obs_counter =                           \
        ::wsv::obs::GetCounter(name);                                       \
    wsv_obs_counter.Add(static_cast<uint64_t>(n));                          \
  } while (0)
#define WSV_COUNT1(name) WSV_COUNT(name, 1)

/// Adds `n` to the named counter's thread-local pending slot; the count
/// reaches the registry at the next PublishDeferred on this thread.
#define WSV_COUNT_DEFERRED(name, n)                                         \
  do {                                                                      \
    static ::wsv::obs::DeferredCounter& wsv_obs_deferred =                  \
        ::wsv::obs::GetDeferredCounter(name);                               \
    wsv_obs_deferred.Add(static_cast<uint64_t>(n));                         \
  } while (0)
#define WSV_COUNT1_DEFERRED(name) WSV_COUNT_DEFERRED(name, 1)

/// Records `value` into the named histogram.
#define WSV_HIST(name, value)                                               \
  do {                                                                      \
    static ::wsv::obs::Histogram& wsv_obs_hist =                            \
        ::wsv::obs::GetHistogram(name);                                     \
    wsv_obs_hist.Record(static_cast<uint64_t>(value));                      \
  } while (0)

/// Raises / lowers the named occupancy gauge by `n` bytes (or entries).
#define WSV_GAUGE_ADD(name, n)                                              \
  do {                                                                      \
    static ::wsv::obs::Gauge& wsv_obs_gauge = ::wsv::obs::GetGauge(name);   \
    wsv_obs_gauge.Add(static_cast<int64_t>(n));                             \
  } while (0)
#define WSV_GAUGE_SUB(name, n)                                              \
  do {                                                                      \
    static ::wsv::obs::Gauge& wsv_obs_gauge = ::wsv::obs::GetGauge(name);   \
    wsv_obs_gauge.Sub(static_cast<int64_t>(n));                             \
  } while (0)

/// Times the enclosing scope into the named duration histogram.
#define WSV_TIMER(name)                                                     \
  static ::wsv::obs::Histogram& WSV_OBS_CONCAT(wsv_obs_timer_hist_,         \
                                               __LINE__) =                  \
      ::wsv::obs::GetHistogram(name);                                       \
  ::wsv::obs::ScopedTimer WSV_OBS_CONCAT(wsv_obs_timer_, __LINE__)(         \
      WSV_OBS_CONCAT(wsv_obs_timer_hist_, __LINE__))

/// Monotonic now-ns, compiled to 0 when observability is disabled (for
/// hand-rolled begin/end measurements fed to WSV_HIST).
#define WSV_OBS_NOW() ::wsv::obs::MonotonicNowNs()

#endif  // WSV_OBS_DISABLED

#endif  // WSV_OBS_METRICS_H_
