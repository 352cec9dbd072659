// Tests for request-scoped telemetry (src/obs/request.h, events.h,
// watchdog.h): exact per-request counter attribution under concurrent
// verifications sharing the process, propagation of the request id
// across thread-pool tasks, snapshot diffing, memory gauges, the
// wide-event JSONL log's atomic publish, and the watchdog's final
// stall sweep.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/thread_pool.h"
#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "verify/ltl_verifier.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

// Mirrors obs_test.cc: under the whole-tree -DWSV_OBS_DISABLED=ON
// configuration the library's instrumentation macros compile to
// no-ops, so assertions about library-recorded work skip; the direct
// registry/request API works in both modes.
#if defined(WSV_OBS_DISABLED)
constexpr bool kInstrumented = false;
#else
constexpr bool kInstrumented = true;
#endif

// --- RequestScope: attribution basics. ----------------------------------

TEST(RequestScope, SingleThreadDelta) {
  obs::ResetMetrics();
  obs::GetCounter("obs_req/outside").Add(5);
  obs::RequestScope scope("unit");
  EXPECT_EQ(obs::CurrentRequestId(), scope.id());
  obs::GetCounter("obs_req/inside").Add(7);
  obs::GetHistogram("obs_req/inside_hist").Record(11);

  obs::MetricsSnapshot delta = scope.Delta();
  EXPECT_EQ(delta.CounterValue("obs_req/inside"), 7u);
  EXPECT_EQ(delta.CounterValue("obs_req/outside"), 0u);
  auto it = delta.histograms.find("obs_req/inside_hist");
  ASSERT_NE(it, delta.histograms.end());
  EXPECT_EQ(it->second.count, 1u);
  EXPECT_EQ(it->second.sum, 11u);

  // The global view still sees everything.
  obs::MetricsSnapshot global = obs::SnapshotMetrics();
  EXPECT_EQ(global.CounterValue("obs_req/outside"), 5u);
  EXPECT_EQ(global.CounterValue("obs_req/inside"), 7u);
}

TEST(RequestScope, CloseFreezesTheDelta) {
  obs::ResetMetrics();
  obs::RequestScope scope("freeze");
  obs::GetCounter("obs_req/frozen").Add(3);
  const obs::MetricsSnapshot& closed = scope.Close();
  EXPECT_EQ(closed.CounterValue("obs_req/frozen"), 3u);
  EXPECT_EQ(obs::CurrentRequestId(), obs::kNoRequest);

  // Writes after Close are not attributed; Delta stays frozen, and the
  // global total still counts the late write (nothing is lost).
  obs::GetCounter("obs_req/frozen").Add(100);
  EXPECT_EQ(scope.Delta().CounterValue("obs_req/frozen"), 3u);
  EXPECT_EQ(obs::SnapshotMetrics().CounterValue("obs_req/frozen"), 103u);
}

TEST(RequestScope, NestedScopesRestoreTheOuterId) {
  obs::ResetMetrics();
  obs::RequestScope outer("outer");
  obs::GetCounter("obs_req/nested").Add(1);
  {
    obs::RequestScope inner("inner");
    EXPECT_EQ(obs::CurrentRequestId(), inner.id());
    obs::GetCounter("obs_req/nested").Add(10);
    EXPECT_EQ(inner.Delta().CounterValue("obs_req/nested"), 10u);
  }
  EXPECT_EQ(obs::CurrentRequestId(), outer.id());
  obs::GetCounter("obs_req/nested").Add(100);
  // The outer request never sees the inner one's work.
  EXPECT_EQ(outer.Delta().CounterValue("obs_req/nested"), 101u);
}

TEST(RequestScope, PoolTasksInheritTheSubmittersRequest) {
  obs::ResetMetrics();
  ThreadPool pool(4);
  obs::RequestScope scope("pooled");
  constexpr int kTasks = 16;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([] { obs::GetCounter("obs_req/pooled_work").Add(3); });
  }
  pool.Wait();
  // Exact while the worker threads are still alive (their shards are
  // live, not retired).
  EXPECT_EQ(scope.Delta().CounterValue("obs_req/pooled_work"),
            uint64_t{3 * kTasks});
  EXPECT_EQ(scope.Close().CounterValue("obs_req/pooled_work"),
            uint64_t{3 * kTasks});
}

// --- The acceptance property: concurrent requests attribute exactly. ----

// Two in-process verification requests run concurrently, each fanning
// out over its own 4-worker pool. Every per-request delta must be
// exact: for every counter and histogram, the two deltas sum to the
// global registry delta over the same window — no lost, double-, or
// cross-attributed work.
TEST(RequestScope, InterleavedVerificationsSumToGlobal) {
  WebService service = std::move(BuildPaperClearLoopService()).value();
  Instance db = LoginDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  // A quantified property, so that its valuations are chunked over the
  // pool's workers (a one-valuation sweep runs on the calling thread).
  auto prop = ParseTemporalProperty(
      "forall m . G(!error(m) | m = \"failed login\")", &service.vocab());
  ASSERT_TRUE(prop.ok()) << prop.status().ToString();

  obs::ResetMetrics();
  obs::MetricsSnapshot deltas[2];
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        obs::RequestScope scope("interleaved_" + std::to_string(t));
        LtlVerifier verifier(&service, options, 4);
        auto r = verifier.VerifyOnDatabase(*prop, db);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_TRUE(r->holds);
        deltas[t] = scope.Close();
      });
    }
    for (std::thread& th : threads) th.join();
  }
  obs::MetricsSnapshot global = obs::SnapshotMetrics();

  for (const auto& [name, total] : global.counters) {
    EXPECT_EQ(deltas[0].CounterValue(name) + deltas[1].CounterValue(name),
              total)
        << "counter " << name << " not exactly attributed";
  }
  for (const auto& [name, h] : global.histograms) {
    uint64_t count = 0;
    uint64_t sum = 0;
    for (const obs::MetricsSnapshot& d : deltas) {
      auto it = d.histograms.find(name);
      if (it == d.histograms.end()) continue;
      count += it->second.count;
      sum += it->second.sum;
    }
    EXPECT_EQ(count, h.count) << "histogram " << name;
    EXPECT_EQ(sum, h.sum) << "histogram " << name;
  }
  if (kInstrumented) {
    EXPECT_GT(global.CounterValue("ltl/valuations_checked"), 0u);
    EXPECT_GT(deltas[0].CounterValue("ltl/valuations_checked"), 0u);
    EXPECT_GT(deltas[1].CounterValue("ltl/valuations_checked"), 0u);
    EXPECT_GT(global.CounterValue("pool/tasks_run"), 0u);
  }
}

// --- Telemetry under cancellation (first-counterexample early exit). ----

TEST(RequestScope, CancellationTelemetry) {
  WebService service = std::move(BuildPaperClearLoopService()).value();
  Instance db = LoginDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  // Violated: the login page *can* log in.
  auto prop = ParseTemporalProperty("G(!logged_in)", &service.vocab());
  ASSERT_TRUE(prop.ok()) << prop.status().ToString();

  obs::ResetMetrics();
  std::string witness1;
  obs::MetricsSnapshot delta1;
  {
    obs::RequestScope scope("jobs1");
    LtlVerifier serial(&service, options, 1);
    auto r = serial.VerifyOnDatabase(*prop, db);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->holds);
    witness1 = r->counterexample->ToString();
    delta1 = scope.Close();
  }
  std::string witness4;
  obs::MetricsSnapshot delta4;
  {
    obs::RequestScope scope("jobs4");
    LtlVerifier parallel(&service, options, 4);
    auto r = parallel.VerifyOnDatabase(*prop, db);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->holds);
    witness4 = r->counterexample->ToString();
    delta4 = scope.Close();
  }

  // Deterministic early exit: same witness at any job count.
  EXPECT_EQ(witness1, witness4);

  // Spans are flushed on cancellation: the sweep span closed and landed
  // in the request delta before Close().
  if (kInstrumented) {
    auto it = delta4.histograms.find("span/verify/parallel_db_sweep");
    ASSERT_NE(it, delta4.histograms.end());
    EXPECT_GE(it->second.count, 1u);
    EXPECT_TRUE(obs::SnapshotOpenSpans().empty());

    // The terminal outcome derives from the request's own delta: the
    // parallel run signalled a cancellation after the winning
    // counterexample, the serial one completed its (single) sweep.
    EXPECT_GE(delta4.CounterValue("verify/cancellations_signalled"), 1u);
    EXPECT_EQ(obs::DeriveOutcome(Status::OK(), delta4),
              "cancelled_early_exit");
    EXPECT_EQ(delta1.CounterValue("verify/cancellations_signalled"), 0u);
    EXPECT_EQ(obs::DeriveOutcome(Status::OK(), delta1), "completed");
  }

  // The pre-sweep phases are deterministic regardless of how the
  // cancellation raced: property translation and database accounting
  // must match between job counts exactly.
  for (const char* name :
       {"automata/gba_states", "automata/buchi_states", "automata/fo_leaves",
        "verify/databases", "ltl/valuations_checked"}) {
    EXPECT_EQ(delta1.CounterValue(name), delta4.CounterValue(name)) << name;
  }
}

// --- Snapshot diffing. ---------------------------------------------------

TEST(Snapshots, DiffSubtractsCountersHistogramsAndGauges) {
  obs::ResetMetrics();
  obs::GetCounter("obs_req/diff_c").Add(5);
  obs::GetHistogram("obs_req/diff_h").Record(10);
  obs::GetGauge("obs_req/diff_g").Add(100);
  obs::MetricsSnapshot earlier = obs::SnapshotMetrics();

  obs::GetCounter("obs_req/diff_c").Add(7);
  obs::GetHistogram("obs_req/diff_h").Record(20);
  obs::GetHistogram("obs_req/diff_h").Record(30);
  obs::GetGauge("obs_req/diff_g").Sub(40);
  obs::MetricsSnapshot later = obs::SnapshotMetrics();

  obs::MetricsSnapshot diff = obs::DiffSnapshots(later, earlier);
  EXPECT_EQ(diff.CounterValue("obs_req/diff_c"), 7u);
  auto it = diff.histograms.find("obs_req/diff_h");
  ASSERT_NE(it, diff.histograms.end());
  EXPECT_EQ(it->second.count, 2u);
  EXPECT_EQ(it->second.sum, 50u);
  // Gauges are signed: the interval saw a net decrease.
  EXPECT_EQ(diff.GaugeValue("obs_req/diff_g"), -40);
  obs::GetGauge("obs_req/diff_g").Sub(60);  // restore balance
}

// --- Gauges: occupancy, not work. ----------------------------------------

TEST(Gauges, TrackLiveValueAndSurviveReset) {
  obs::Gauge& g = obs::GetGauge("obs_req/gauge");
  g.Add(100);
  g.Sub(40);
  EXPECT_EQ(g.Value(), 60);
  EXPECT_EQ(obs::SnapshotMetrics().GaugeValue("obs_req/gauge"), 60);
  // Reset zeroes work counters but must not forge deallocations: the
  // bytes are still live.
  obs::ResetMetrics();
  EXPECT_EQ(obs::SnapshotMetrics().GaugeValue("obs_req/gauge"), 60);
  g.Sub(60);
  EXPECT_EQ(g.Value(), 0);
}

TEST(Gauges, RequestDeltaExcludesGauges) {
  obs::ResetMetrics();
  obs::RequestScope scope("gaugeless");
  obs::GetGauge("obs_req/gauge2").Add(10);
  // Occupancy is process-global (whose allocation is live is not a
  // per-request question); deltas carry only attributable work.
  EXPECT_TRUE(scope.Delta().gauges.empty());
  obs::GetGauge("obs_req/gauge2").Sub(10);
}

TEST(Gauges, LibraryMemoryGaugesAreLive) {
  if (!kInstrumented) GTEST_SKIP() << "instrumentation compiled out";
  // Interning a fresh value must grow the interner gauges.
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  V("obs_req_fresh_value_for_gauge_test");
  obs::MetricsSnapshot after = obs::SnapshotMetrics();
  EXPECT_GT(after.GaugeValue("mem/value_interner_entries"),
            before.GaugeValue("mem/value_interner_entries"));
  EXPECT_GT(after.GaugeValue("mem/value_interner_bytes"),
            before.GaugeValue("mem/value_interner_bytes"));
}

// --- Wide-event log: serialization and atomic publish. -------------------

TEST(EventLog, SerializeWideEvent) {
  obs::WideEvent ev;
  ev.event = "phase";
  ev.phase = "parse";
  ev.request = 7;
  ev.label = "specs/login.wsv";
  ev.ts_ns = 123;
  ev.duration_ns = 456;
  ev.text.emplace_back("spec_hash", "abc");
  ev.nums.emplace_back("errors", 0);
  ev.counters.emplace_back("verify/databases", 2);
  EXPECT_EQ(obs::SerializeWideEvent(ev),
            "{\"event\":\"phase\",\"ts_ns\":123,\"request\":7,"
            "\"label\":\"specs/login.wsv\",\"phase\":\"parse\","
            "\"duration_ns\":456,\"spec_hash\":\"abc\",\"errors\":0,"
            "\"counters\":{\"verify/databases\":2}}");
}

TEST(EventLog, ContentHashIsStableAndSensitive) {
  EXPECT_EQ(obs::ContentHashHex("abc"), obs::ContentHashHex("abc"));
  EXPECT_NE(obs::ContentHashHex("abc"), obs::ContentHashHex("abd"));
  EXPECT_EQ(obs::ContentHashHex("abc").size(), 16u);
}

TEST(EventLog, PublishesByAtomicRename) {
  const std::string path =
      ::testing::TempDir() + "obs_request_test_events.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::EventLog::Get().Open(path).ok());
  ASSERT_TRUE(obs::EventLog::Get().enabled());

  obs::WideEvent ev;
  ev.phase = "parse";
  ev.request = 1;
  obs::EventLog::Get().Emit(ev);
  ev.event = "request";
  obs::EventLog::Get().Emit(ev);

  // While streaming, only the temp sibling exists.
  EXPECT_FALSE(std::ifstream(path).good());
  ASSERT_TRUE(obs::EventLog::Get().Close().ok());
  EXPECT_FALSE(obs::EventLog::Get().enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  uint64_t last_ts = 0;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    // ts_ns is the first field after "event"; monotone file-wide.
    auto pos = line.find("\"ts_ns\":");
    ASSERT_NE(pos, std::string::npos);
    uint64_t ts = std::strtoull(line.c_str() + pos + 8, nullptr, 10);
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(EventLog, DiscardLeavesNoFile) {
  const std::string path =
      ::testing::TempDir() + "obs_request_test_discard.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::EventLog::Get().Open(path).ok());
  obs::WideEvent ev;
  obs::EventLog::Get().Emit(ev);
  obs::EventLog::Get().Discard();
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_FALSE(obs::EventLog::Get().enabled());
}

TEST(FileUtil, WriteFileAtomicRoundTrip) {
  const std::string path = ::testing::TempDir() + "obs_request_test_atomic";
  ASSERT_TRUE(WriteFileAtomic(path, "first\n").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second\n").ok());  // overwrite
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "second\n");
  std::remove(path.c_str());
}

// --- Watchdog. -----------------------------------------------------------

TEST(Watchdog, FinalSweepFlagsTheOpenRequest) {
  obs::ResetMetrics();
  obs::RequestScope scope("stalled");
  obs::WatchdogOptions options;
  // Deadline 0 with a sample interval far beyond the test's lifetime:
  // only Stop()'s deterministic final sweep reports.
  options.stall_deadline_ns = 0;
  options.sample_interval_ms = 60 * 1000;
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  options.stream = sink;
  obs::Watchdog watchdog(options);
  EXPECT_EQ(watchdog.stall_events(), 0u);
  watchdog.Stop();
  EXPECT_GE(watchdog.stall_events(), 1u);
  std::fclose(sink);
}

TEST(Watchdog, NoDeadlineNoStalls) {
  obs::ResetMetrics();
  obs::RequestScope scope("healthy");
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  obs::WatchdogOptions options;
  options.stream = sink;
  obs::Watchdog watchdog(options);
  watchdog.Stop();
  EXPECT_EQ(watchdog.stall_events(), 0u);
  std::fclose(sink);
}

TEST(Watchdog, OpenSpansAreVisibleToTheSampler) {
  if (!kInstrumented) GTEST_SKIP() << "instrumentation compiled out";
  EXPECT_TRUE(obs::SnapshotOpenSpans().empty());
  {
    WSV_SPAN("obs_req/outer_span");
    WSV_SPAN("obs_req/inner_span");
    std::vector<obs::OpenSpan> open = obs::SnapshotOpenSpans();
    ASSERT_EQ(open.size(), 2u);
    EXPECT_EQ(open[0].name, "obs_req/outer_span");
    EXPECT_EQ(open[1].name, "obs_req/inner_span");
  }
  EXPECT_TRUE(obs::SnapshotOpenSpans().empty());
}

}  // namespace
}  // namespace wsv
