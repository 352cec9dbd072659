#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace wsv {
namespace obs {

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  uint64_t target = static_cast<uint64_t>(p * double(count));
  if (target == 0) target = 1;
  if (target > count) target = count;
  uint64_t cum = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    cum += buckets[b];
    if (cum >= target) {
      if (b == 0) return 0;
      if (b >= 64) return UINT64_MAX;
      return (uint64_t{1} << b) - 1;  // bucket upper bound
    }
  }
  return 0;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

int64_t MetricsSnapshot::GaugeValue(std::string_view name) const {
  auto it = gauges.find(std::string(name));
  return it == gauges.end() ? 0 : it->second;
}

int64_t MetricsSnapshot::GaugePeak(std::string_view name) const {
  auto it = gauge_peaks.find(std::string(name));
  return it == gauge_peaks.end() ? 0 : it->second;
}

MetricsSnapshot DiffSnapshots(const MetricsSnapshot& later,
                              const MetricsSnapshot& earlier) {
  MetricsSnapshot d;
  for (const auto& [name, value] : later.counters) {
    const uint64_t base = earlier.CounterValue(name);
    d.counters[name] = value >= base ? value - base : 0;
  }
  for (const auto& [name, h] : later.histograms) {
    auto it = earlier.histograms.find(name);
    if (it == earlier.histograms.end()) {
      d.histograms[name] = h;
      continue;
    }
    const HistogramSnapshot& base = it->second;
    HistogramSnapshot out;
    out.count = h.count >= base.count ? h.count - base.count : 0;
    out.sum = h.sum >= base.sum ? h.sum - base.sum : 0;
    out.max = h.max;  // not subtractable; upper bound for the interval
    out.buckets.resize(kHistogramBuckets, 0);
    const size_t nb = std::min(h.buckets.size(), size_t{kHistogramBuckets});
    for (size_t b = 0; b < nb; ++b) {
      const uint64_t bb = b < base.buckets.size() ? base.buckets[b] : 0;
      out.buckets[b] = h.buckets[b] >= bb ? h.buckets[b] - bb : 0;
    }
    d.histograms[name] = std::move(out);
  }
  for (const auto& [name, value] : later.gauges) {
    auto it = earlier.gauges.find(name);
    d.gauges[name] = value - (it == earlier.gauges.end() ? 0 : it->second);
  }
  d.gauge_peaks = later.gauge_peaks;
  d.process_peak_rss_bytes = later.process_peak_rss_bytes;
  return d;
}

namespace {

// Which request this thread's metric writes attribute to.
thread_local RequestId t_current_request = kNoRequest;

// The counter id of obs/registry_writes, registered first.
constexpr uint32_t kRegistryWritesId = 0;

// VmHWM from /proc/self/status, in bytes; 0 if unavailable.
int64_t ProcessPeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<int64_t>(kb) * 1024;
}

size_t BucketOf(uint64_t value) {
  return static_cast<size_t>(std::bit_width(value));
}

// Per-histogram block inside a shard. Written only by the shard's owner
// thread; read cross-thread at snapshot time (relaxed atomics).
struct HistBlock {
  std::atomic<uint64_t> buckets[kHistogramBuckets];
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum{0};
  // Exact running maximum. Single-writer per shard, so a plain
  // load-compare-store (no CAS loop) is race-free; aggregators read it
  // relaxed like every other slot.
  std::atomic<uint64_t> max{0};

  HistBlock() {
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  }
};

// One thread's slot arrays for one request id. Slots are appended (never
// moved: deque) by the owner under `mu` when a new metric id first
// reaches this thread; the fast path indexes below the published size
// without locking. Aggregators take `mu` to serialize against growth,
// then read the atomics relaxed — the owner's unlocked writes race only
// on the atomic slots themselves, which is the point.
struct Shard {
  std::mutex mu;
  // The request this shard's writes attribute to. Immutable after
  // construction: switching requests switches shards, not tags.
  RequestId request = kNoRequest;
  // Set (under the registry lock) when CloseRequestAccounting folded and
  // zeroed this shard. The owner thread drops closed shards lazily; any
  // residual writes in the meantime stay live and exactly counted.
  std::atomic<bool> closed{false};
  std::deque<std::atomic<uint64_t>> counters;
  std::deque<HistBlock> hists;
  std::atomic<size_t> counters_size{0};
  std::atomic<size_t> hists_size{0};

  std::atomic<uint64_t>& CounterSlot(size_t id) {
    if (id >= counters_size.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mu);
      while (counters.size() <= id) counters.emplace_back(0);
      counters_size.store(counters.size(), std::memory_order_release);
    }
    return counters[id];
  }

  HistBlock& HistSlot(size_t id) {
    if (id >= hists_size.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mu);
      while (hists.size() <= id) hists.emplace_back();
      hists_size.store(hists.size(), std::memory_order_release);
    }
    return hists[id];
  }
};

// Folded totals of one metric id across exited threads.
struct HistAccum {
  uint64_t buckets[kHistogramBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
};

}  // namespace

// The process-wide registry. Never destroyed (leaked on purpose) so
// thread_local shard destructors can retire into it at any point of
// process teardown.
class Registry {
 public:
  static Registry& Get() {
    static Registry* r = new Registry;
    return *r;
  }

  Registry() { GetCounter("obs/registry_writes"); }

  DeferredCounter& GetDeferredCounter(std::string_view name) {
    const uint32_t id = GetCounter(name).id_;
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t slot = 0; slot < num_deferred_; ++slot) {
      if (deferred_ids_[slot] == id) return deferred_handles_[slot];
    }
    if (num_deferred_ == kMaxDeferredCounters) {
      std::fprintf(stderr, "obs: more than %zu deferred counters (%.*s)\n",
                   kMaxDeferredCounters, static_cast<int>(name.size()),
                   name.data());
      std::abort();
    }
    const size_t slot = num_deferred_++;
    deferred_ids_[slot] = id;
    deferred_handles_.push_back(DeferredCounter(static_cast<uint32_t>(slot)));
    return deferred_handles_[slot];
  }

  // Moves this thread's pending deferred counts into its current shard,
  // one slot write per counter, plus one for the write count.
  void PublishDeferred(internal::DeferredCounts& d) {
    Shard* shard = LocalShard();
    uint64_t writes = 0;
    for (uint64_t bits = d.dirty; bits != 0; bits &= bits - 1) {
      const int slot = std::countr_zero(bits);
      if (d.counts[slot] == 0) continue;
      shard->CounterSlot(deferred_ids_[static_cast<size_t>(slot)])
          .fetch_add(d.counts[slot], std::memory_order_relaxed);
      d.counts[slot] = 0;
      ++writes;
    }
    d.dirty = 0;
    d.adds = 0;
    if (writes != 0) {
      shard->CounterSlot(kRegistryWritesId)
          .fetch_add(writes, std::memory_order_relaxed);
    }
  }

  Counter& GetCounter(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] =
        counter_ids_.try_emplace(std::string(name),
                                 static_cast<uint32_t>(counter_names_.size()));
    if (inserted) {
      counter_names_.push_back(it->first);
      counter_handles_.push_back(Counter(it->second));
      retired_counters_.push_back(0);
    }
    return counter_handles_[it->second];
  }

  Histogram& GetHistogram(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] =
        hist_ids_.try_emplace(std::string(name),
                              static_cast<uint32_t>(hist_names_.size()));
    if (inserted) {
      hist_names_.push_back(it->first);
      hist_handles_.push_back(Histogram(it->second));
      retired_hists_.emplace_back();
    }
    return hist_handles_[it->second];
  }

  Gauge& GetGauge(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] =
        gauge_ids_.try_emplace(std::string(name),
                               static_cast<uint32_t>(gauge_names_.size()));
    if (inserted) {
      gauge_names_.push_back(it->first);
      gauge_slots_.emplace_back(0);
      gauge_peaks_.emplace_back(0);
      gauge_handles_.push_back(
          Gauge(&gauge_slots_.back(), &gauge_peaks_.back()));
    }
    return gauge_handles_[it->second];
  }

  // The shard this thread's writes currently go to: one per (thread,
  // current request id), created on first use. The (id, shard) pair is
  // cached so the steady-state write path costs one thread_local read
  // and one compare on top of the slot add.
  Shard* LocalShard() {
    thread_local ThreadShards tls(*this);
    const RequestId rid = t_current_request;
    if (rid == tls.cached_request) return tls.cached_shard;
    return SwitchShard(tls, rid);
  }

  MetricsSnapshot Snapshot() {
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<uint64_t> counter_totals(retired_counters_);
    std::vector<HistAccum> hist_totals(retired_hists_);
    for (const std::shared_ptr<Shard>& shard : shards_) {
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      AddShardLocked(*shard, &counter_totals, &hist_totals);
    }
    FillSnapshotLocked(counter_totals, hist_totals, &snap);
    for (size_t i = 0; i < gauge_names_.size(); ++i) {
      snap.gauges[gauge_names_[i]] =
          gauge_slots_[i].load(std::memory_order_relaxed);
      snap.gauge_peaks[gauge_names_[i]] =
          gauge_peaks_[i].load(std::memory_order_relaxed);
    }
    snap.process_peak_rss_bytes = ProcessPeakRssBytes();
    return snap;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t& c : retired_counters_) c = 0;
    for (HistAccum& h : retired_hists_) h = HistAccum();
    for (auto& [id, accum] : requests_) {
      std::fill(accum.counters.begin(), accum.counters.end(), 0);
      for (HistAccum& h : accum.hists) h = HistAccum();
    }
    for (const std::shared_ptr<Shard>& shard : shards_) {
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      ZeroShardLocked(shard.get());
    }
    // Gauge levels are intentionally left alone: they track live
    // occupancy and their Add/Sub bookkeeping must stay balanced across
    // resets. Their marks restart from the current level.
    for (size_t i = 0; i < gauge_slots_.size(); ++i) {
      gauge_peaks_[i].store(gauge_slots_[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
  }

  RequestId OpenRequest(std::string label) {
    std::lock_guard<std::mutex> lock(mu_);
    const RequestId id = ++next_request_;
    RequestAccum& accum = requests_[id];
    accum.label = std::move(label);
    accum.open_ns = MonotonicNowNs();
    return id;
  }

  MetricsSnapshot SnapshotRequest(RequestId id) {
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<uint64_t> counter_totals(retired_counters_.size(), 0);
    std::vector<HistAccum> hist_totals(retired_hists_.size());
    auto it = requests_.find(id);
    if (it != requests_.end()) {
      const RequestAccum& accum = it->second;
      const size_t nc = std::min(accum.counters.size(), counter_totals.size());
      for (size_t i = 0; i < nc; ++i) counter_totals[i] += accum.counters[i];
      const size_t nh = std::min(accum.hists.size(), hist_totals.size());
      for (size_t i = 0; i < nh; ++i) {
        AddAccum(accum.hists[i], &hist_totals[i]);
      }
    }
    for (const std::shared_ptr<Shard>& shard : shards_) {
      if (shard->request != id) continue;
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      AddShardLocked(*shard, &counter_totals, &hist_totals);
    }
    FillSnapshotLocked(counter_totals, hist_totals, &snap);
    return snap;
  }

  void CloseRequest(RequestId id) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::shared_ptr<Shard>& shard : shards_) {
      if (shard->request != id) continue;
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      FoldShardLocked(*shard);
      ZeroShardLocked(shard.get());
      shard->closed.store(true, std::memory_order_release);
    }
    auto it = requests_.find(id);
    if (it != requests_.end()) it->second.closed = true;
  }

  void ReleaseRequest(RequestId id) {
    std::lock_guard<std::mutex> lock(mu_);
    requests_.erase(id);
  }

  std::vector<OpenRequestInfo> OpenRequests() {
    std::vector<OpenRequestInfo> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, accum] : requests_) {
      if (accum.closed) continue;
      out.push_back(OpenRequestInfo{id, accum.label, accum.open_ns});
    }
    std::sort(out.begin(), out.end(),
              [](const OpenRequestInfo& a, const OpenRequestInfo& b) {
                return a.id < b.id;
              });
    return out;
  }

 private:
  // All shards a thread has written through, one per request id it has
  // served. Retired (folded into the registry) at thread exit; closed
  // shards are additionally pruned whenever the thread switches request.
  struct ThreadShards {
    explicit ThreadShards(Registry& registry) : registry(registry) {}
    ~ThreadShards() {
      registry.RetireDeferred(t_current_request, internal::t_deferred);
      for (auto& [id, shard] : shards) registry.Retire(shard);
    }
    Registry& registry;
    std::vector<std::pair<RequestId, std::shared_ptr<Shard>>> shards;
    RequestId cached_request = ~RequestId{0};  // no valid id: miss on first use
    Shard* cached_shard = nullptr;
  };

  // Per-request folded totals, accumulated when the request's shards
  // close or their threads exit.
  struct RequestAccum {
    std::string label;
    uint64_t open_ns = 0;
    bool closed = false;
    std::vector<uint64_t> counters;
    std::vector<HistAccum> hists;
  };

  static void FoldHist(const HistBlock& block, HistAccum* out) {
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      out->buckets[b] += block.buckets[b].load(std::memory_order_relaxed);
    }
    out->count += block.count.load(std::memory_order_relaxed);
    out->sum += block.sum.load(std::memory_order_relaxed);
    out->max = std::max(out->max, block.max.load(std::memory_order_relaxed));
  }

  static void AddAccum(const HistAccum& in, HistAccum* out) {
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      out->buckets[b] += in.buckets[b];
    }
    out->count += in.count;
    out->sum += in.sum;
    out->max = std::max(out->max, in.max);
  }

  // Adds a shard's live slots into running totals. Caller holds mu_ and
  // the shard's mu.
  static void AddShardLocked(const Shard& shard,
                             std::vector<uint64_t>* counter_totals,
                             std::vector<HistAccum>* hist_totals) {
    const size_t nc = std::min(shard.counters.size(), counter_totals->size());
    for (size_t i = 0; i < nc; ++i) {
      (*counter_totals)[i] +=
          shard.counters[i].load(std::memory_order_relaxed);
    }
    const size_t nh = std::min(shard.hists.size(), hist_totals->size());
    for (size_t i = 0; i < nh; ++i) {
      FoldHist(shard.hists[i], &(*hist_totals)[i]);
    }
  }

  // Folds a shard into the global retired totals and, if its request is
  // still tracked, into the request accumulator. Caller holds mu_ and
  // the shard's mu; the shard is NOT zeroed (callers that keep it live
  // must zero it to avoid double counting).
  void FoldShardLocked(const Shard& shard) {
    const size_t nc =
        std::min(shard.counters.size(), retired_counters_.size());
    for (size_t i = 0; i < nc; ++i) {
      retired_counters_[i] +=
          shard.counters[i].load(std::memory_order_relaxed);
    }
    const size_t nh = std::min(shard.hists.size(), retired_hists_.size());
    for (size_t i = 0; i < nh; ++i) {
      FoldHist(shard.hists[i], &retired_hists_[i]);
    }
    auto it = requests_.find(shard.request);
    if (it == requests_.end()) return;
    RequestAccum& accum = it->second;
    if (accum.counters.size() < nc) accum.counters.resize(nc, 0);
    for (size_t i = 0; i < nc; ++i) {
      accum.counters[i] += shard.counters[i].load(std::memory_order_relaxed);
    }
    if (accum.hists.size() < nh) accum.hists.resize(nh);
    for (size_t i = 0; i < nh; ++i) {
      FoldHist(shard.hists[i], &accum.hists[i]);
    }
  }

  static void ZeroShardLocked(Shard* shard) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (HistBlock& h : shard->hists) {
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      h.max.store(0, std::memory_order_relaxed);
    }
  }

  // Caller holds mu_. Renders id-indexed totals into the named maps.
  void FillSnapshotLocked(const std::vector<uint64_t>& counter_totals,
                          const std::vector<HistAccum>& hist_totals,
                          MetricsSnapshot* snap) const {
    for (size_t i = 0; i < counter_totals.size(); ++i) {
      snap->counters[counter_names_[i]] = counter_totals[i];
    }
    for (size_t i = 0; i < hist_totals.size(); ++i) {
      HistogramSnapshot h;
      h.count = hist_totals[i].count;
      h.sum = hist_totals[i].sum;
      h.max = hist_totals[i].max;
      h.buckets.assign(hist_totals[i].buckets,
                       hist_totals[i].buckets + kHistogramBuckets);
      snap->histograms[hist_names_[i]] = std::move(h);
    }
  }

  Shard* SwitchShard(ThreadShards& tls, RequestId rid) {
    // Drop shards whose request accounting closed: their totals were
    // folded at CloseRequest; Retire folds any residual writes made
    // since, so every count lands exactly once. Only the owner thread
    // may drop its own shards (the fast path reads them unlocked).
    for (size_t i = tls.shards.size(); i-- > 0;) {
      if (tls.shards[i].second->closed.load(std::memory_order_acquire)) {
        Retire(tls.shards[i].second);
        tls.shards.erase(tls.shards.begin() + static_cast<long>(i));
      }
    }
    std::shared_ptr<Shard> shard;
    for (auto& [id, s] : tls.shards) {
      if (id == rid) {
        shard = s;
        break;
      }
    }
    if (shard == nullptr) {
      shard = std::make_shared<Shard>();
      shard->request = rid;
      std::lock_guard<std::mutex> lock(mu_);
      shards_.push_back(shard);
      tls.shards.emplace_back(rid, shard);
    }
    tls.cached_request = rid;
    tls.cached_shard = shard.get();
    return tls.cached_shard;
  }

  // Thread exit: folds the thread's unpublished deferred counts, made
  // under request `rid`, into the retired totals and the request's
  // accumulator, as Retire does for a shard.
  void RetireDeferred(RequestId rid, internal::DeferredCounts& d) {
    if (d.dirty == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = requests_.find(rid);
    RequestAccum* accum = it == requests_.end() ? nullptr : &it->second;
    if (accum != nullptr && accum->counters.size() < retired_counters_.size()) {
      accum->counters.resize(retired_counters_.size(), 0);
    }
    for (uint64_t bits = d.dirty; bits != 0; bits &= bits - 1) {
      const size_t slot = static_cast<size_t>(std::countr_zero(bits));
      const uint32_t id = deferred_ids_[slot];
      retired_counters_[id] += d.counts[slot];
      if (accum != nullptr) accum->counters[id] += d.counts[slot];
      d.counts[slot] = 0;
    }
    d.dirty = 0;
    d.adds = 0;
  }

  // Thread exit (or lazy prune of a closed shard): fold into the retired
  // totals — and the request accumulator, if still tracked — so counts
  // survive pool teardown, then stop tracking the shard.
  void Retire(const std::shared_ptr<Shard>& shard) {
    std::lock_guard<std::mutex> lock(mu_);
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    FoldShardLocked(*shard);
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i] == shard) {
        shards_.erase(shards_.begin() + static_cast<long>(i));
        break;
      }
    }
  }

  std::mutex mu_;
  std::unordered_map<std::string, uint32_t> counter_ids_;
  std::vector<std::string> counter_names_;
  std::deque<Counter> counter_handles_;  // stable addresses
  std::vector<uint64_t> retired_counters_;
  // Deferred slot -> counter id. Fixed-size: PublishDeferred reads a
  // slot without the lock, after the handle that owns it was returned.
  std::array<uint32_t, kMaxDeferredCounters> deferred_ids_{};
  size_t num_deferred_ = 0;
  std::deque<DeferredCounter> deferred_handles_;  // stable addresses
  std::unordered_map<std::string, uint32_t> hist_ids_;
  std::vector<std::string> hist_names_;
  std::deque<Histogram> hist_handles_;
  std::vector<HistAccum> retired_hists_;
  std::unordered_map<std::string, uint32_t> gauge_ids_;
  std::vector<std::string> gauge_names_;
  std::deque<Gauge> gauge_handles_;
  std::deque<std::atomic<int64_t>> gauge_slots_;  // stable addresses
  std::deque<std::atomic<int64_t>> gauge_peaks_;  // parallel to the slots
  std::vector<std::shared_ptr<Shard>> shards_;
  std::unordered_map<RequestId, RequestAccum> requests_;
  RequestId next_request_ = kNoRequest;
};

void Counter::Add(uint64_t n) {
  Shard* shard = Registry::Get().LocalShard();
  shard->CounterSlot(id_).fetch_add(n, std::memory_order_relaxed);
  shard->CounterSlot(kRegistryWritesId).fetch_add(1, std::memory_order_relaxed);
}

void Histogram::Record(uint64_t value) {
  Shard* shard = Registry::Get().LocalShard();
  shard->CounterSlot(kRegistryWritesId).fetch_add(1, std::memory_order_relaxed);
  HistBlock& block = shard->HistSlot(id_);
  block.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  block.count.fetch_add(1, std::memory_order_relaxed);
  block.sum.fetch_add(value, std::memory_order_relaxed);
  if (value > block.max.load(std::memory_order_relaxed)) {
    block.max.store(value, std::memory_order_relaxed);
  }
}

Counter& GetCounter(std::string_view name) {
  return Registry::Get().GetCounter(name);
}

DeferredCounter& GetDeferredCounter(std::string_view name) {
  return Registry::Get().GetDeferredCounter(name);
}

namespace internal {

void ArmDeferred() { Registry::Get().LocalShard(); }

}  // namespace internal

void PublishDeferred() {
  internal::DeferredCounts& d = internal::t_deferred;
  if (d.dirty != 0) Registry::Get().PublishDeferred(d);
}

Histogram& GetHistogram(std::string_view name) {
  return Registry::Get().GetHistogram(name);
}

Gauge& GetGauge(std::string_view name) {
  return Registry::Get().GetGauge(name);
}

MetricsSnapshot SnapshotMetrics() {
  PublishDeferred();
  return Registry::Get().Snapshot();
}

void ResetMetrics() {
  internal::t_deferred = internal::DeferredCounts();
  Registry::Get().Reset();
}

RequestId CurrentRequestId() { return t_current_request; }

RequestId ExchangeCurrentRequestId(RequestId id) {
  PublishDeferred();
  const RequestId prev = t_current_request;
  t_current_request = id;
  return prev;
}

RequestId OpenRequestAccounting(std::string label) {
  return Registry::Get().OpenRequest(std::move(label));
}

MetricsSnapshot SnapshotRequestMetrics(RequestId id) {
  PublishDeferred();
  return Registry::Get().SnapshotRequest(id);
}

void CloseRequestAccounting(RequestId id) {
  PublishDeferred();
  Registry::Get().CloseRequest(id);
}

void ReleaseRequestAccounting(RequestId id) {
  Registry::Get().ReleaseRequest(id);
}

std::vector<OpenRequestInfo> OpenRequests() {
  return Registry::Get().OpenRequests();
}

}  // namespace obs
}  // namespace wsv
