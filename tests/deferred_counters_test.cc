// Deferred counters stay exact.
//
// The hot-path counters (graph nodes and edges, FO program runs and
// steps, leaf queries) are added to thread-local pending slots and
// published at coarse points: the end of each node expansion and sweep,
// a request switch, and the thread's own snapshots and request close
// (obs/metrics.h). These tests pin what that must not change: on the
// shipped login sweep and e-commerce Property 1, at jobs 1 and 4, every
// counter of the request delta equals the global delta, the work
// counters equal their values before counters were deferred, and a
// snapshot taken by another thread during a sweep sees the counts grow
// expansion by expansion. A quantified login property is chunked over
// the pool's workers at jobs 4 (the other two are one-chunk sweeps,
// which run on the calling thread at any job count), so worker-side
// deferred counts and the pool's publish-before-finish rule are pinned
// too; and a thread publishes by itself after a bounded number of adds.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ltl/ltl_parser.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "verify/ltl_verifier.h"
#include "ws/data_parser.h"
#include "ws/spec_parser.h"

namespace wsv {
namespace {

#if defined(WSV_OBS_DISABLED)
constexpr bool kInstrumented = false;
#else
constexpr bool kInstrumented = true;
#endif

std::string ReadSpec(const std::string& name) {
  std::ifstream in(std::string(WSV_SPECS_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// One `wsvcli verify` run, as the CLI sets it up.
struct Case {
  std::string spec;
  std::string property;
  std::string data;  // empty: every database within `fresh`
  std::vector<std::string> pool;
  int fresh = 1;
  bool unchecked = false;
  bool holds = true;
  // Work counters recorded before the hot counters were deferred.
  std::map<std::string, uint64_t> pinned;
  // The same at jobs 4 for a sweep chunked over the pool; empty for a
  // one-chunk sweep, whose jobs-4 counts are its jobs-1 counts.
  std::map<std::string, uint64_t> pinned_jobs4;
};

// `wsvcli verify specs/login.wsv 'G(!CP | logged_in)' --fresh 2`.
Case LoginFresh2() {
  Case c;
  c.spec = "login.wsv";
  c.property = "G(!CP | logged_in)";
  c.fresh = 2;
  c.pinned = {
      {"config_graph/nodes", 207},         {"config_graph/nodes_expanded", 207},
      {"config_graph/edges", 497},         {"config_graph/node_dedup_hits", 291},
      {"config_graph/edge_dedup_hits", 0}, {"fo/bytecode_execs", 2106},
      {"fo/bytecode_steps", 9091},         {"ltl/fo_leaf_queries", 0},
      {"ltl/fo_leaf_evals", 497},          {"ltl/product_states", 497},
  };
  return c;
}

// Property 1 on the small e-commerce database (VIOLATED):
// `wsvcli verify specs/ecommerce.wsv 'G(!PIP) | F(PIP & F(CC))'
//  specs/ecommerce_small.wsd --unchecked --pool alice,pw`.
Case EcommerceProperty1() {
  Case c;
  c.spec = "ecommerce.wsv";
  c.property = "G(!PIP) | F(PIP & F(CC))";
  c.data = "ecommerce_small.wsd";
  c.pool = {"alice", "pw"};
  c.unchecked = true;
  c.holds = false;
  c.pinned = {
      {"config_graph/nodes", 63},          {"config_graph/nodes_expanded", 31},
      {"config_graph/edges", 149},         {"config_graph/node_dedup_hits", 88},
      {"config_graph/edge_dedup_hits", 0}, {"fo/bytecode_execs", 1159},
      {"fo/bytecode_steps", 5515},         {"ltl/fo_leaf_queries", 0},
      {"ltl/fo_leaf_evals", 447},          {"ltl/product_states", 222},
  };
  return c;
}

// `wsvcli verify specs/login.wsv
//  'forall m . G(!error(m) | m = "failed login")' specs/login.wsd
//  --pool alice,pw,u0`: seven valuations, four chunks at jobs 4, each
// building its own graph.
Case LoginQuantified() {
  Case c;
  c.spec = "login.wsv";
  c.property = "forall m . G(!error(m) | m = \"failed login\")";
  c.data = "login.wsd";
  c.pool = {"alice", "pw", "u0"};
  c.pinned = {
      {"config_graph/nodes", 19},          {"config_graph/nodes_expanded", 19},
      {"config_graph/edges", 46},          {"config_graph/node_dedup_hits", 28},
      {"config_graph/edge_dedup_hits", 0}, {"fo/bytecode_execs", 166},
      {"fo/bytecode_steps", 882},          {"ltl/fo_leaf_queries", 46},
      {"ltl/product_states", 46},          {"ltl/valuations_checked", 7},
  };
  c.pinned_jobs4 = {
      {"config_graph/nodes", 76},           {"config_graph/nodes_expanded", 76},
      {"config_graph/edges", 184},          {"config_graph/node_dedup_hits", 112},
      {"config_graph/edge_dedup_hits", 0},  {"fo/bytecode_execs", 664},
      {"fo/bytecode_steps", 3528},          {"ltl/fo_leaf_queries", 184},
      {"ltl/product_states", 184},          {"ltl/valuations_checked", 7},
      {"pool/tasks_submitted", 4},          {"pool/tasks_run", 4},
  };
  return c;
}

struct Deltas {
  obs::MetricsSnapshot request;
  obs::MetricsSnapshot global;
};

// Parses and verifies `c` at `jobs` inside one request scope; the
// global delta is taken from a reset registry after the scope closed.
Deltas RunCase(const Case& c, int jobs,
               std::function<bool()> cancel_check = nullptr) {
  obs::ResetMetrics();
  Deltas out;
  {
    obs::RequestScope scope("deferred_counters_test");
    {
      auto service = ParseServiceSpec(ReadSpec(c.spec));
      EXPECT_TRUE(service.ok()) << service.status().ToString();
      if (!service.ok()) return out;
      LtlVerifyOptions options;
      for (const std::string& v : c.pool) {
        options.graph.constant_pool.push_back(Value::Intern(v));
      }
      options.db.fresh_values = c.fresh;
      options.require_input_bounded = !c.unchecked;
      options.graph.cancel_check = std::move(cancel_check);
      auto prop = ParseTemporalProperty(c.property, &service->vocab());
      EXPECT_TRUE(prop.ok()) << prop.status().ToString();
      if (!prop.ok()) return out;
      LtlVerifier verifier(&*service, options, jobs);
      StatusOr<LtlVerifyResult> r = Status::Internal("not run");
      if (c.data.empty()) {
        r = verifier.Verify(*prop);
      } else {
        auto db = ParseDataFile(ReadSpec(c.data), &service->vocab());
        EXPECT_TRUE(db.ok()) << db.status().ToString();
        if (!db.ok()) return out;
        r = verifier.VerifyOnDatabase(*prop, *db);
      }
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) {
        EXPECT_EQ(r->holds, c.holds);
      }
    }
    out.request = scope.Close();
  }
  out.global = obs::SnapshotMetrics();
  return out;
}

void ExpectExact(const Case& c, int jobs) {
  SCOPED_TRACE(c.spec + " '" + c.property + "' at jobs " +
               std::to_string(jobs));
  const Deltas d = RunCase(c, jobs);
  for (const auto& [name, total] : d.global.counters) {
    EXPECT_EQ(d.request.CounterValue(name), total) << "counter " << name;
  }
  if (!kInstrumented) return;
  const bool chunked = jobs > 1 && !c.pinned_jobs4.empty();
  for (const auto& [name, value] : chunked ? c.pinned_jobs4 : c.pinned) {
    EXPECT_EQ(d.request.CounterValue(name), value) << "counter " << name;
  }
  if (chunked) {
    EXPECT_GT(d.request.CounterValue("pool/tasks_run"), 0u);
  } else {
    EXPECT_EQ(d.request.CounterValue("pool/tasks_submitted"), 0u);
  }
  EXPECT_GT(d.request.CounterValue("obs/registry_writes"), 0u);
}

// One test, in a fixed order: value ids are interned process-wide in
// first-use order and order the rows a run enumerates, so the pinned
// e-commerce counts hold for a process that ran the login sweep first.
TEST(DeferredCounters, RequestDeltaIsExactAndUnchanged) {
  for (const Case& c :
       {LoginFresh2(), EcommerceProperty1(), LoginQuantified()}) {
    ExpectExact(c, 1);
    ExpectExact(c, 4);
  }
}

// Another thread's snapshot sees published work only, and work is
// published at the end of every node expansion: polled between
// expansions (the graph's cancellation hook runs before each one), the
// other thread's view of fo/bytecode_steps grows.
TEST(DeferredCounters, OtherThreadSeesProgressPerExpansion) {
  if (!kInstrumented) GTEST_SKIP() << "observability compiled out";
  std::vector<uint64_t> seen;
  int polls = 0;
  auto poll = [&]() {
    ++polls;
    if (polls % 20 == 0 && seen.size() < 5) {
      std::thread other([&] {
        seen.push_back(
            obs::SnapshotMetrics().CounterValue("fo/bytecode_steps"));
      });
      other.join();
    }
    return false;
  };
  RunCase(LoginFresh2(), 1, poll);
  ASSERT_EQ(seen.size(), 5u) << "polled " << polls << " times";
  EXPECT_GT(seen.front(), 0u);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GT(seen[i], seen[i - 1]) << "snapshot " << i;
  }
}

// Work between the coarse publish points still reaches other threads:
// after kDeferredPublishInterval deferred adds the thread publishes by
// itself, so another thread's snapshot lags by a bounded amount.
TEST(DeferredCounters, PublishesByItselfAfterAnInterval) {
  if (!kInstrumented) GTEST_SKIP() << "observability compiled out";
  obs::ResetMetrics();
  auto seen_elsewhere = [] {
    uint64_t value = 0;
    std::thread other([&] {
      value = obs::SnapshotMetrics().CounterValue("obs_test/deferred_adds");
    });
    other.join();
    return value;
  };
  obs::DeferredCounter& counter =
      obs::GetDeferredCounter("obs_test/deferred_adds");
  for (uint64_t i = 1; i < obs::kDeferredPublishInterval; ++i) counter.Add(2);
  EXPECT_EQ(seen_elsewhere(), 0u);
  counter.Add(2);
  EXPECT_EQ(seen_elsewhere(), 2 * obs::kDeferredPublishInterval);
  counter.Add(2);
  EXPECT_EQ(seen_elsewhere(), 2 * obs::kDeferredPublishInterval);
  EXPECT_EQ(obs::SnapshotMetrics().CounterValue("obs_test/deferred_adds"),
            2 * obs::kDeferredPublishInterval + 2);
}

}  // namespace
}  // namespace wsv
