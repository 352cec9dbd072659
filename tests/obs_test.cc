// Tests for the observability subsystem (src/obs/): counter aggregation
// across threads, histogram percentiles, span nesting and Chrome-trace
// export, and — the property the sharded registry is designed around —
// identical work-counter totals between serial and parallel runs of the
// same verification.

#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "verify/ltl_verifier.h"
#include "verify/witness_check.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

// This suite runs in two build modes: the normal build, and (via the
// whole-tree -DWSV_OBS_DISABLED=ON configuration) one where every
// instrumentation macro — here AND in the library — compiles to a
// no-op. Tests of the macros and of the library's instrumentation skip
// themselves in the latter; tests of the direct registry API run in
// both.
#if defined(WSV_OBS_DISABLED)
constexpr bool kInstrumented = false;
#else
constexpr bool kInstrumented = true;
#endif

#define SKIP_IF_NOT_INSTRUMENTED()                                \
  do {                                                            \
    if (!kInstrumented) {                                         \
      GTEST_SKIP() << "instrumentation macros compiled out";      \
    }                                                             \
  } while (0)

// --- Registry: counters. ------------------------------------------------

TEST(MetricsRegistry, CounterBasics) {
  obs::ResetMetrics();
  obs::Counter& c = obs::GetCounter("obs_test/basic");
  c.Increment();
  c.Add(41);
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  EXPECT_EQ(snap.CounterValue("obs_test/basic"), 42u);
  EXPECT_EQ(snap.CounterValue("obs_test/never_bumped"), 0u);
}

TEST(MetricsRegistry, SameNameSameCounter) {
  obs::ResetMetrics();
  obs::GetCounter("obs_test/shared").Add(3);
  obs::GetCounter("obs_test/shared").Add(4);
  EXPECT_EQ(obs::SnapshotMetrics().CounterValue("obs_test/shared"), 7u);
}

TEST(MetricsRegistry, ResetZeroesButKeepsNames) {
  obs::GetCounter("obs_test/reset_me").Add(99);
  obs::ResetMetrics();
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  EXPECT_EQ(snap.CounterValue("obs_test/reset_me"), 0u);
  EXPECT_TRUE(snap.counters.count("obs_test/reset_me"));
}

// The core aggregation property: per-thread shards plus retired folds
// add up to the exact total, whether the writers are alive or joined at
// snapshot time.
TEST(MetricsRegistry, CounterAggregationAcrossThreads) {
  obs::ResetMetrics();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        obs::Counter& c = obs::GetCounter("obs_test/mt_total");
        for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
        WSV_COUNT("obs_test/mt_macro", 5);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // All writer threads have exited: their shards were folded into the
  // retired totals, which the snapshot must still see.
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  EXPECT_EQ(snap.CounterValue("obs_test/mt_total"), kThreads * kPerThread);
  EXPECT_EQ(snap.CounterValue("obs_test/mt_macro"),
            kInstrumented ? uint64_t{kThreads} * 5 : 0u);
}

TEST(MetricsRegistry, SnapshotWhileWritersLive) {
  obs::ResetMetrics();
  obs::GetCounter("obs_test/live").Add(1);  // register on this thread too
  std::thread writer([] {
    obs::Counter& c = obs::GetCounter("obs_test/live");
    for (int i = 0; i < 5000; ++i) c.Increment();
  });
  // Snapshots racing the writer must be well-formed and monotonic.
  uint64_t last = 0;
  for (int i = 0; i < 10; ++i) {
    uint64_t v = obs::SnapshotMetrics().CounterValue("obs_test/live");
    EXPECT_GE(v, last);
    last = v;
  }
  writer.join();
  EXPECT_EQ(obs::SnapshotMetrics().CounterValue("obs_test/live"), 5001u);
}

// --- Registry: histograms. ----------------------------------------------

TEST(MetricsRegistry, HistogramCountSumMean) {
  obs::ResetMetrics();
  obs::Histogram& h = obs::GetHistogram("obs_test/hist");
  h.Record(0);
  h.Record(10);
  h.Record(90);
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  const obs::HistogramSnapshot& hs = snap.histograms.at("obs_test/hist");
  EXPECT_EQ(hs.count, 3u);
  EXPECT_EQ(hs.sum, 100u);
  EXPECT_DOUBLE_EQ(hs.Mean(), 100.0 / 3.0);
}

TEST(MetricsRegistry, HistogramPercentiles) {
  obs::ResetMetrics();
  obs::Histogram& h = obs::GetHistogram("obs_test/pct");
  // 90 values near 1us and 10 near 1ms: p50 falls in the 1000-bucket
  // (upper bound 1023 = 2^10 - 1), p99 in the 1000000-bucket
  // (upper bound 1048575 = 2^20 - 1).
  for (int i = 0; i < 90; ++i) h.Record(1000);
  for (int i = 0; i < 10; ++i) h.Record(1000000);
  const obs::HistogramSnapshot hs =
      obs::SnapshotMetrics().histograms.at("obs_test/pct");
  EXPECT_EQ(hs.count, 100u);
  EXPECT_EQ(hs.Percentile(0.5), 1023u);
  EXPECT_EQ(hs.Percentile(0.9), 1023u);
  EXPECT_EQ(hs.Percentile(0.99), 1048575u);
  EXPECT_EQ(hs.Percentile(1.0), 1048575u);
}

TEST(MetricsRegistry, HistogramZeroOnlyBucket) {
  obs::ResetMetrics();
  obs::Histogram& h = obs::GetHistogram("obs_test/zeros");
  h.Record(0);
  const obs::HistogramSnapshot hs =
      obs::SnapshotMetrics().histograms.at("obs_test/zeros");
  EXPECT_EQ(hs.count, 1u);
  EXPECT_EQ(hs.sum, 0u);
  EXPECT_EQ(hs.Percentile(0.5), 0u);
}

TEST(MetricsRegistry, HistogramAggregationAcrossThreads) {
  SKIP_IF_NOT_INSTRUMENTED();
  obs::ResetMetrics();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) WSV_HIST("obs_test/mt_hist", 7);
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::HistogramSnapshot hs =
      obs::SnapshotMetrics().histograms.at("obs_test/mt_hist");
  EXPECT_EQ(hs.count, 400u);
  EXPECT_EQ(hs.sum, 2800u);
}

TEST(MetricsRegistry, ScopedTimerRecordsPlausibleDuration) {
  SKIP_IF_NOT_INSTRUMENTED();
  obs::ResetMetrics();
  {
    WSV_TIMER("obs_test/timer_ns");
  }
  const obs::HistogramSnapshot hs =
      obs::SnapshotMetrics().histograms.at("obs_test/timer_ns");
  EXPECT_EQ(hs.count, 1u);
  // A steady clock cannot run backwards; anything non-huge is fine.
  EXPECT_LT(hs.sum, uint64_t{60} * 1000 * 1000 * 1000);
}

// --- Spans and trace export. --------------------------------------------

TEST(Trace, SpanNestingAndCollect) {
  SKIP_IF_NOT_INSTRUMENTED();
  obs::ResetMetrics();
  obs::StartTracing();
  {
    WSV_SPAN("obs_test_outer");
    {
      WSV_SPAN("obs_test_inner");
    }
  }
  obs::StopTracing();
  std::vector<obs::TraceEvent> events = obs::CollectTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer starts first, and encloses inner.
  EXPECT_EQ(events[0].name, "obs_test_outer");
  EXPECT_EQ(events[1].name, "obs_test_inner");
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_GE(events[0].end_ns, events[1].end_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
  // Spans always feed the phase-table histograms too.
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  EXPECT_EQ(snap.histograms.at("span/obs_test_outer").count, 1u);
  EXPECT_EQ(snap.histograms.at("span/obs_test_inner").count, 1u);
}

TEST(Trace, ThreadsGetDistinctTids) {
  // Uses ScopedSpan directly (not WSV_SPAN) so this runs in the
  // WSV_OBS_DISABLED configuration too.
  obs::StartTracing();
  {
    obs::ScopedSpan main_span("obs_test_main_thread", nullptr);
    std::thread t([] {
      obs::ScopedSpan worker_span("obs_test_worker_thread", nullptr);
    });
    t.join();
  }
  obs::StopTracing();
  std::vector<obs::TraceEvent> events = obs::CollectTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(Trace, DisabledRecordsNothing) {
  obs::StartTracing();
  obs::StopTracing();
  {
    WSV_SPAN("obs_test_after_stop");
  }
  EXPECT_TRUE(obs::CollectTraceEvents().empty());
  // StartTracing clears the previous session's events.
  obs::StartTracing();
  EXPECT_TRUE(obs::CollectTraceEvents().empty());
  obs::StopTracing();
}

TEST(Trace, ChromeExportRoundTrip) {
  obs::StartTracing();
  obs::RecordTraceEvent("alpha \"quoted\"", 1000, 5000);
  obs::RecordTraceEvent("beta", 2000, 3000);
  obs::StopTracing();
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  const std::string json = out.str();
  // Structural spot checks (tools/check_trace.py does the full parse).
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("alpha \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
  // Timestamps are relative to the earliest span: alpha starts at 0us
  // and lasts 4us; beta starts 1us in.
  EXPECT_NE(json.find("\"ts\":0.000,\"dur\":4.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000,\"dur\":1.000"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(json[json.size() - 2], '}');
}

// --- Report formatting. -------------------------------------------------

TEST(Report, FormatDuration) {
  EXPECT_EQ(obs::FormatDurationNs(412), "412ns");
  EXPECT_EQ(obs::FormatDurationNs(3100), "3.1us");
  EXPECT_EQ(obs::FormatDurationNs(24700000), "24.7ms");
  EXPECT_EQ(obs::FormatDurationNs(1300000000), "1.30s");
}

TEST(Report, StatsTableAndJson) {
  obs::ResetMetrics();
  obs::GetCounter("ltl/leaf_memo_hits").Add(3);
  obs::GetCounter("ltl/leaf_memo_misses").Add(1);
  obs::GetHistogram("span/obs_test_phase").Record(1000);
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  std::string table = obs::FormatStatsTable(snap);
  EXPECT_NE(table.find("obs_test_phase"), std::string::npos);
  EXPECT_NE(table.find("ltl/leaf_memo_hits"), std::string::npos);
  EXPECT_NE(table.find("fo-leaf memo hit rate"), std::string::npos);
  EXPECT_NE(table.find("75.0%"), std::string::npos);
  std::string json = obs::StatsToJson(snap);
  EXPECT_NE(json.find("\"ltl/leaf_memo_hits\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"fo_leaf_memo_hit_rate\""), std::string::npos);
  EXPECT_DOUBLE_EQ(obs::LeafMemoHitRate(snap), 0.75);
}

// Witness validation runs the plan-free oracle (fo/interp_evals); those
// evaluations are reported as the witness check's, and the VM's share
// counts verification-path evaluations only, which are all the VM's.
TEST(Report, FoEngineRowSeparatesWitnessOracle) {
  SKIP_IF_NOT_INSTRUMENTED();
  WebService service = std::move(BuildLoginService()).value();
  Instance db = LoginDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  auto prop = ParseTemporalProperty("G(!MP)", &service.vocab());
  ASSERT_TRUE(prop.ok()) << prop.status().ToString();
  obs::ResetMetrics();
  {
    auto r = LtlVerifier(&service, options).VerifyOnDatabase(*prop, db);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->holds);
    ASSERT_TRUE(ValidateWitness(service, *prop, *r->counterexample).ok());
  }
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  const uint64_t vm = snap.CounterValue("fo/bytecode_execs");
  const uint64_t oracle = snap.CounterValue("fo/interp_evals");
  ASSERT_GT(vm, 0u);
  ASSERT_GT(oracle, 0u);
  EXPECT_EQ(obs::BytecodeCompiledShare(snap), 1.0);
  const std::string table = obs::FormatStatsTable(snap);
  EXPECT_NE(table.find("fo eval engine: 100.0% VM (" + std::to_string(vm) +
                       " VM runs; " + std::to_string(oracle) +
                       " witness-check oracle evaluations)"),
            std::string::npos)
      << table;
  EXPECT_NE(obs::StatsToJson(snap).find(
                "\"fo_bytecode_compiled_share\": 1.0000"),
            std::string::npos);
  obs::ResetMetrics();
  EXPECT_EQ(obs::BytecodeCompiledShare(obs::SnapshotMetrics()), -1.0);
}

// Successor generation is timed once per expanded node and reported as
// a --stats row and two --stats-json derived fields.
TEST(Report, SuccessorGenerationRow) {
  SKIP_IF_NOT_INSTRUMENTED();
  WebService service = std::move(BuildLoginService()).value();
  Instance db = LoginDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  auto prop = ParseTemporalProperty("G(!CP | logged_in)", &service.vocab());
  ASSERT_TRUE(prop.ok()) << prop.status().ToString();
  obs::ResetMetrics();
  {
    LtlVerifier verifier(&service, options, 1);
    auto r = verifier.VerifyOnDatabase(*prop, db);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->holds);
  }
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  auto it = snap.histograms.find("runtime/successor_ns");
  ASSERT_NE(it, snap.histograms.end());
  const uint64_t expanded = snap.CounterValue("config_graph/nodes_expanded");
  EXPECT_GT(expanded, 0u);
  EXPECT_EQ(it->second.count, expanded);
  EXPECT_GT(it->second.sum, 0u);
  const std::string table = obs::FormatStatsTable(snap);
  EXPECT_NE(table.find("successor generation: " + std::to_string(expanded) +
                       " nodes expanded in "),
            std::string::npos)
      << table;
  const std::string json = obs::StatsToJson(snap);
  EXPECT_NE(json.find("\"successor_ns\": " + std::to_string(it->second.sum)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"successor_ns_per_node\": "), std::string::npos);
}

// --- Gauge high-water marks. -------------------------------------------

TEST(GaugePeaks, AddRaisesTheMarkAndSubLeavesIt) {
  obs::ResetMetrics();
  obs::Gauge& g = obs::GetGauge("obs_test/peak_add_sub");
  const int64_t base = g.Value();
  g.Add(100);
  g.Sub(60);
  g.Add(30);  // level base+70, below the mark
  EXPECT_EQ(g.Value(), base + 70);
  EXPECT_EQ(g.Peak(), base + 100);
  g.Add(50);  // level base+120, a new mark
  EXPECT_EQ(g.Peak(), base + 120);
  g.Sub(120);
  EXPECT_EQ(g.Value(), base);
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  EXPECT_EQ(snap.GaugeValue("obs_test/peak_add_sub"), base);
  EXPECT_EQ(snap.GaugePeak("obs_test/peak_add_sub"), base + 120);
}

// Four threads each raise the level to its own maximum and back; the
// mark is at least the largest single excursion and at most the sum of
// all concurrent ones, and the level returns exactly to where it was.
TEST(GaugePeaks, ConcurrentAddsKeepTheMaximum) {
  obs::ResetMetrics();
  obs::Gauge& g = obs::GetGauge("obs_test/peak_concurrent");
  const int64_t base = g.Value();
  std::vector<std::thread> threads;
  for (int t = 1; t <= 4; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 1000; ++i) {
        g.Add(t * 10);
        g.Sub(t * 10);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(g.Value(), base);
  EXPECT_GE(g.Peak(), base + 40);
  EXPECT_LE(g.Peak(), base + 100);
}

// ResetMetrics rebases the mark to the live level: a later, smaller
// excursion is measured on its own, not hidden behind the earlier peak.
TEST(GaugePeaks, ResetRebasesTheMarkToTheLevel) {
  obs::Gauge& g = obs::GetGauge("obs_test/peak_reset");
  g.Add(500);
  g.Sub(480);  // level 20 above where it started, mark 500 above
  obs::ResetMetrics();
  const int64_t level = g.Value();
  EXPECT_EQ(g.Peak(), level);
  g.Add(7);
  g.Sub(7);
  EXPECT_EQ(g.Peak(), level + 7);
  g.Sub(20);
}

TEST(GaugePeaks, ReportedInStatsTableAndJson) {
  obs::ResetMetrics();
  obs::Gauge& g = obs::GetGauge("obs_test/peak_report_bytes");
  const int64_t base = g.Value();
  g.Add(3 * 1024 * 1024);
  g.Sub(3 * 1024 * 1024);
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  const std::string table = obs::FormatStatsTable(snap);
  EXPECT_NE(table.find("peak"), std::string::npos) << table;
  EXPECT_NE(table.find(obs::FormatByteCount(base + 3 * 1024 * 1024)),
            std::string::npos)
      << table;
  const std::string json = obs::StatsToJson(snap);
  EXPECT_NE(json.find("\"gauge_peaks\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"obs_test/peak_report_bytes\": " +
                      std::to_string(base + 3 * 1024 * 1024)),
            std::string::npos)
      << json;
#if defined(__linux__)
  EXPECT_GT(snap.process_peak_rss_bytes, 0);
  EXPECT_NE(table.find("process rss (VmHWM)"), std::string::npos) << table;
#endif
}

TEST(Report, LeafMemoRateUndefinedWithoutLookups) {
  obs::ResetMetrics();
  EXPECT_LT(obs::LeafMemoHitRate(obs::SnapshotMetrics()), 0.0);
}

// --- Serial vs parallel counter equality on gallery services. -----------

// The counters that measure *work done* (not scheduling) must agree
// between --jobs 1 and --jobs 4: same databases, same graph, same
// valuations, same products. Pool/* counters are excluded by design
// (jobs=1 runs the serial verifier with no pool at all).
const char* const kWorkCounters[] = {
    "verify/databases",          "db_enum/instances_enumerated",
    "config_graph/nodes",        "config_graph/nodes_expanded",
    "config_graph/edges",        "config_graph/node_dedup_hits",
    "ltl/valuations_checked",    "ltl/products_built",
    "ltl/product_states",        "automata/gba_states",
    "automata/buchi_states",     "automata/fo_leaves",
};

std::map<std::string, uint64_t> WorkCounters(
    const obs::MetricsSnapshot& snap) {
  std::map<std::string, uint64_t> out;
  for (const char* name : kWorkCounters) {
    out[name] = snap.CounterValue(name);
  }
  return out;
}

// Database-enumeration sweep on the login service: every database within
// the bound is swept at both job counts (the property holds, so there is
// no early stop and the totals must coincide exactly — including the
// FO-leaf memo, which is per-database on this path).
TEST(CounterEquality, LoginEnumerationSweep) {
  WebService service = std::move(BuildLoginService()).value();
  LtlVerifyOptions options;
  options.db.fresh_values = 1;
  options.db.max_tuples_per_relation = 1;
  options.graph.constant_pool = {V("d0")};
  auto prop = ParseTemporalProperty("G(!error(\"no such page\"))",
                                    &service.vocab());
  ASSERT_TRUE(prop.ok()) << prop.status().ToString();

  obs::ResetMetrics();
  {
    LtlVerifier serial(&service, options, 1);
    auto r = serial.Verify(*prop);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->holds);
  }
  obs::MetricsSnapshot s1 = obs::SnapshotMetrics();
  auto work1 = WorkCounters(s1);
  uint64_t memo1 = s1.CounterValue("ltl/leaf_memo_hits") +
                   s1.CounterValue("ltl/leaf_memo_misses");

  obs::ResetMetrics();
  {
    LtlVerifier parallel(&service, options, 4);
    auto r = parallel.Verify(*prop);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->holds);
  }
  obs::MetricsSnapshot s4 = obs::SnapshotMetrics();
  auto work4 = WorkCounters(s4);
  uint64_t memo4 = s4.CounterValue("ltl/leaf_memo_hits") +
                   s4.CounterValue("ltl/leaf_memo_misses");

  EXPECT_EQ(work1, work4);
  EXPECT_EQ(memo1, memo4);
  // Trivial equality (all zeros) only counts in the disabled build.
  if (kInstrumented) {
    EXPECT_GT(work1["verify/databases"], 0u);
    EXPECT_GT(work1["config_graph/nodes"], 0u);
  }
}

// The third gallery service (the paper's clear-loop login variant):
// same equality on the fixed-database path with default closure
// candidates.
TEST(CounterEquality, ClearLoopService) {
  WebService service = std::move(BuildPaperClearLoopService()).value();
  Instance db = LoginDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  auto prop = ParseTemporalProperty("G(!CP | logged_in)", &service.vocab());
  ASSERT_TRUE(prop.ok()) << prop.status().ToString();

  obs::ResetMetrics();
  {
    LtlVerifier serial(&service, options, 1);
    auto r = serial.VerifyOnDatabase(*prop, db);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->holds);
  }
  auto work1 = WorkCounters(obs::SnapshotMetrics());

  obs::ResetMetrics();
  {
    LtlVerifier parallel(&service, options, 4);
    auto r = parallel.VerifyOnDatabase(*prop, db);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->holds);
  }
  auto work4 = WorkCounters(obs::SnapshotMetrics());

  EXPECT_EQ(work1, work4);
  if (kInstrumented) {
    EXPECT_GT(work1["config_graph/nodes"], 0u);
    EXPECT_GT(work1["ltl/product_states"], 0u);
  }
}

// Valuation sweep on the e-commerce service (pay-before-ship holds):
// jobs=4 shards the valuation range, so per-shard state *splits* may
// differ — the memo hit/miss split, and (since each shard owns its
// valuation-class table) how many first-of-class products get built —
// but total memo lookups, the class-accounting identity, and the other
// work counters must still match the serial sweep. Each shard expands
// its own lazy configuration graph, so config_graph/* totals vary with
// the cut and are not compared.
TEST(CounterEquality, EcommerceValuationSweep) {
  WebService service = std::move(BuildEcommerceService()).value();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  options.closure_candidates = {V("p1"), V("100"), V("alice")};
  auto prop = ParseTemporalProperty(
      "forall pid, price . ((UPP & payamount(price) & button(\"submit\") "
      "& pick(pid, price) & prod_prices(pid, price)) "
      "B !(conf(name, price) & ship(name, pid)))",
      &service.vocab());
  ASSERT_TRUE(prop.ok()) << prop.status().ToString();

  obs::ResetMetrics();
  {
    LtlVerifier serial(&service, options, 1);
    auto r = serial.VerifyOnDatabase(*prop, db);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->holds);
  }
  obs::MetricsSnapshot s1 = obs::SnapshotMetrics();
  auto work1 = WorkCounters(s1);
  uint64_t memo1 = s1.CounterValue("ltl/leaf_memo_hits") +
                   s1.CounterValue("ltl/leaf_memo_misses");

  obs::ResetMetrics();
  {
    LtlVerifier parallel(&service, options, 4);
    auto r = parallel.VerifyOnDatabase(*prop, db);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->holds);
  }
  obs::MetricsSnapshot s4 = obs::SnapshotMetrics();
  auto work4 = WorkCounters(s4);
  uint64_t memo4 = s4.CounterValue("ltl/leaf_memo_hits") +
                   s4.CounterValue("ltl/leaf_memo_misses");

  // Products are built once per valuation class *per shard*: the shard
  // cut can only add first-of-class builds, never remove one.
  auto drop_cut_dependent = [](std::map<std::string, uint64_t> work) {
    work.erase("ltl/products_built");
    work.erase("ltl/product_states");
    for (auto it = work.begin(); it != work.end();) {
      it = it->first.rfind("config_graph/", 0) == 0 ? work.erase(it)
                                                     : std::next(it);
    }
    return work;
  };
  EXPECT_EQ(drop_cut_dependent(work1), drop_cut_dependent(work4));
  EXPECT_LE(work1["ltl/products_built"], work4["ltl/products_built"]);
  EXPECT_EQ(memo1, memo4);
  for (const obs::MetricsSnapshot* s : {&s1, &s4}) {
    EXPECT_EQ(s->CounterValue("ltl/valuation_classes") +
                  s->CounterValue("ltl/class_hits"),
              s->CounterValue("ltl/valuations_checked"));
  }
  if (kInstrumented) {
    EXPECT_GT(work1["ltl/valuations_checked"], 1u);
    EXPECT_GT(memo1, 0u);
    // The collapse must actually bite on this property: fewer serial
    // products than valuations.
    EXPECT_LT(work1["ltl/products_built"],
              work1["ltl/valuations_checked"]);
  }
}

}  // namespace
}  // namespace wsv
