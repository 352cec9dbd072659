// In-flight watchdog: a sampling thread that watches open spans, open
// requests, and bytecode-VM step counters while a verification runs.
//
// The decision procedures are PSPACE-hard in the worst case; a stuck
// request looks exactly like a slow one unless something *inside* the
// process reports which phase is sitting open and whether the VM is
// still making step progress. The watchdog samples:
//
//   - the open-span stacks (obs/trace.h SnapshotOpenSpans): every
//     in-flight WSV_SPAN with its start time and owning request;
//   - the open requests (obs/metrics.h OpenRequests), treated as a
//     pseudo-phase "request" so a whole job exceeding its deadline is
//     reported even when no span happens to be open;
//   - the global counters (fo/bytecode_steps, ltl/valuations_checked)
//     to distinguish "busy" from "wedged". fo/bytecode_steps is a
//     deferred counter: a working thread publishes it at least every
//     obs::kDeferredPublishInterval adds (a few milliseconds of VM
//     work), so a step delta of 0 over a sample means no VM progress,
//     not one long node expansion.
//
// When a span or request stays open past `stall_deadline_ns`, the
// watchdog emits one "stall" wide event for it (obs/events.h) and a
// warning line. With `heartbeat_secs > 0` it also prints periodic
// progress lines (wsvcli --heartbeat). Stop() performs a final sweep
// before joining, so even a run shorter than the sample interval gets
// its stall events (deadline 0 deterministically flags the open
// request before the terminal event is written).

#ifndef WSV_OBS_WATCHDOG_H_
#define WSV_OBS_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_set>

namespace wsv {
namespace obs {

struct WatchdogOptions {
  /// How often the sampling thread wakes up.
  uint64_t sample_interval_ms = 250;
  /// An open span/request older than this is reported as stalled (once
  /// per span). UINT64_MAX disables stall detection; 0 flags everything
  /// still open at the first sweep — deterministic for tests.
  uint64_t stall_deadline_ns = UINT64_MAX;
  /// Interval for live progress lines; 0 disables them.
  double heartbeat_secs = 0.0;
  /// Where heartbeat/stall lines go (nullptr: stderr).
  std::FILE* stream = nullptr;
};

/// RAII: starts the sampling thread on construction, Stop() (or the
/// destructor) runs a final stall sweep and joins.
class Watchdog {
 public:
  explicit Watchdog(const WatchdogOptions& options);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Final sweep + join. Idempotent.
  void Stop();

  /// How many stall events have been reported so far.
  uint64_t stall_events() const {
    return stall_events_.load(std::memory_order_relaxed);
  }
  /// How many heartbeat lines have been printed so far.
  uint64_t heartbeats() const {
    return heartbeats_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();
  void Sweep(bool allow_heartbeat);

  WatchdogOptions options_;
  uint64_t start_ns_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool joined_ = false;

  // Sweep-only state (the loop thread and the final Stop() sweep never
  // run concurrently: Stop joins first).
  std::unordered_set<std::string> reported_;
  uint64_t last_heartbeat_ns_ = 0;
  uint64_t last_steps_ = 0;

  std::atomic<uint64_t> stall_events_{0};
  std::atomic<uint64_t> heartbeats_{0};
  std::thread thread_;
};

}  // namespace obs
}  // namespace wsv

#endif  // WSV_OBS_WATCHDOG_H_
