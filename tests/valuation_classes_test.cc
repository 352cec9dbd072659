// Valuation equivalence-class collapsing (verify/ltl_verifier.cc).
//
// The sweep may skip the product build + emptiness run for a valuation
// whose FO leaves all resolve to previously seen truth columns — the
// products are identical, so the verdict is class-invariant. These
// tests pin the load-bearing properties: the collapsed sweep reports
// exactly the naive sweep's verdict and lowest-index counterexample on
// the gallery services (LtlVerifyOptions::class_collapse = false forces
// the naive sweep), the class accounting adds up, shard splits at higher job
// counts keep the totals consistent, and the db_enum fresh-value
// symmetry pruning never drops an orbit.

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "obs/metrics.h"
#include "verify/db_enum.h"
#include "verify/ltl_verifier.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

#if defined(WSV_OBS_DISABLED)
constexpr bool kInstrumented = false;
#else
constexpr bool kInstrumented = true;
#endif

// `options` with the naive one-product-per-valuation sweep forced.
LtlVerifyOptions Naive(LtlVerifyOptions options) {
  options.class_collapse = false;
  return options;
}

struct SweepRun {
  bool holds = true;
  std::string cex;  // CounterExample::ToString(), empty when none
  uint64_t valuations = 0;
  uint64_t classes = 0;
  uint64_t class_hits = 0;
  uint64_t products_built = 0;
  uint64_t products_skipped = 0;
  uint64_t product_states = 0;
  uint64_t databases = 0;
};

// Runs `prop` on one database (or over the enumeration when `db` is
// null) at the given job count and snapshots the sweep counters.
SweepRun RunSweep(const WebService& service, const LtlVerifyOptions& options,
             const std::string& prop, const Instance* db, int jobs) {
  auto p = ParseTemporalProperty(prop, &service.vocab());
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  obs::ResetMetrics();
  LtlVerifier verifier(&service, options, jobs);
  auto r = db ? verifier.VerifyOnDatabase(*p, *db) : verifier.Verify(*p);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  SweepRun out;
  out.holds = r->holds;
  if (r->counterexample.has_value()) out.cex = r->counterexample->ToString();
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  out.valuations = snap.CounterValue("ltl/valuations_checked");
  out.classes = snap.CounterValue("ltl/valuation_classes");
  out.class_hits = snap.CounterValue("ltl/class_hits");
  out.products_built = snap.CounterValue("ltl/products_built");
  out.products_skipped = snap.CounterValue("ltl/products_skipped");
  out.product_states = snap.CounterValue("ltl/product_states");
  out.databases = r->databases_checked;
  return out;
}

// Collapsed and naive sweeps must agree on the verdict and on the
// lowest-index witness, and the collapsed run's class accounting must
// cover every checked valuation exactly once.
void ExpectCollapseTransparent(const SweepRun& collapsed,
                               const SweepRun& naive) {
  EXPECT_EQ(collapsed.holds, naive.holds);
  EXPECT_EQ(collapsed.cex, naive.cex);
  EXPECT_EQ(collapsed.valuations, naive.valuations);
  EXPECT_EQ(collapsed.databases, naive.databases);
  if (!kInstrumented) return;
  EXPECT_EQ(collapsed.classes + collapsed.class_hits, collapsed.valuations);
  EXPECT_EQ(collapsed.products_built, collapsed.classes);
  EXPECT_EQ(collapsed.products_skipped, collapsed.class_hits);
  // The naive sweep builds one product per valuation and no classes.
  EXPECT_EQ(naive.classes, 0u);
  EXPECT_EQ(naive.class_hits, 0u);
  EXPECT_EQ(naive.products_built, naive.valuations);
}

// --- Gallery service 1: login. ------------------------------------------

class LoginCollapseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ws = BuildLoginService();
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    service_ = std::move(ws).value();
    db_ = LoginDatabase();
    options_.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  }

  WebService service_;
  Instance db_;
  LtlVerifyOptions options_;
};

TEST_F(LoginCollapseTest, ViolatedClosurePropertyMatchesNaive) {
  const std::string prop = "forall m . G(!error(m))";
  SweepRun collapsed = RunSweep(service_, options_, prop, &db_, 1);
  SweepRun naive = RunSweep(service_, Naive(options_), prop, &db_, 1);
  ExpectCollapseTransparent(collapsed, naive);
  // The known witness: the faithfulness check must keep rejecting the
  // spurious pool valuations on cached violating classes too.
  ASSERT_FALSE(collapsed.holds);
  EXPECT_NE(collapsed.cex.find("m=failed login"), std::string::npos)
      << collapsed.cex;
}

TEST_F(LoginCollapseTest, HoldingClosurePropertyCollapses) {
  // Holds: errors range over messages, never over the pool values the
  // closure variable sweeps. Every valuation resolves to the same leaf
  // columns except the ones binding m to values a run can produce.
  const std::string prop = "forall m . G(!CP | logged_in)";
  SweepRun collapsed = RunSweep(service_, options_, prop, &db_, 1);
  SweepRun naive = RunSweep(service_, Naive(options_), prop, &db_, 1);
  ExpectCollapseTransparent(collapsed, naive);
  EXPECT_TRUE(collapsed.holds);
  if (kInstrumented) {
    // The property ignores m entirely: one class regardless of the
    // candidate count.
    EXPECT_EQ(collapsed.classes, 1u);
    EXPECT_GT(collapsed.valuations, 1u);
  }
}

// --- Gallery service 2: e-commerce (the paper's running example). -------

TEST(EcommerceCollapseTest, PayBeforeShipMatchesNaive) {
  auto ws = BuildEcommerceService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  options.closure_candidates = {V("p1"), V("100"), V("alice")};
  const std::string prop =
      "forall pid, price . ((UPP & payamount(price) & button(\"submit\") "
      "& pick(pid, price) & prod_prices(pid, price)) "
      "B !(conf(name, price) & ship(name, pid)))";

  SweepRun collapsed = RunSweep(*ws, options, prop, &db, 1);
  SweepRun naive = RunSweep(*ws, Naive(options), prop, &db, 1);
  ExpectCollapseTransparent(collapsed, naive);
  EXPECT_TRUE(collapsed.holds);
  if (kInstrumented) {
    // 9 valuations, but only the (p1, 100) binding ever flips a leaf:
    // the collapse is what the PR is for.
    EXPECT_EQ(collapsed.valuations, 9u);
    EXPECT_LT(collapsed.products_built, naive.products_built);
    EXPECT_LT(collapsed.product_states, naive.product_states);
  }
}

TEST(EcommerceCollapseTest, ViolatedEventualityMatchesNaive) {
  auto ws = BuildEcommerceService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  const std::string prop = "G(!PIP) | F(PIP & F(CC))";

  SweepRun collapsed = RunSweep(*ws, options, prop, &db, 1);
  SweepRun naive = RunSweep(*ws, Naive(options), prop, &db, 1);
  ExpectCollapseTransparent(collapsed, naive);
  EXPECT_FALSE(collapsed.holds);
}

// --- Gallery service 3: the paper's clear-loop login variant. -----------

TEST(ClearLoopCollapseTest, ClosureSweepMatchesNaive) {
  auto ws = BuildPaperClearLoopService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = LoginDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  for (const char* prop : {"forall m . G(!error(m))", "G(!CP | logged_in)"}) {
    SweepRun collapsed = RunSweep(*ws, options, prop, &db, 1);
    SweepRun naive = RunSweep(*ws, Naive(options), prop, &db, 1);
    ExpectCollapseTransparent(collapsed, naive);
  }
}

// --- jobs=1 vs jobs=4. --------------------------------------------------

TEST(CollapseJobsTest, EnumerationSweepCountersMatchAcrossJobs) {
  // On the database-enumeration path every task sweeps its database's
  // whole valuation range in one call, so the class tables see the same
  // index sets at any job count and even the products-built total is
  // exact — including the class accounting identity per side.
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.db.fresh_values = 1;
  options.db.max_tuples_per_relation = 1;
  options.graph.constant_pool = {V("d0")};
  const std::string prop = "G(!error(\"no such page\"))";

  SweepRun jobs1 = RunSweep(*ws, options, prop, nullptr, 1);
  SweepRun jobs4 = RunSweep(*ws, options, prop, nullptr, 4);
  EXPECT_EQ(jobs1.holds, jobs4.holds);
  EXPECT_TRUE(jobs1.holds);
  EXPECT_EQ(jobs1.databases, jobs4.databases);
  EXPECT_EQ(jobs1.valuations, jobs4.valuations);
  EXPECT_EQ(jobs1.classes, jobs4.classes);
  EXPECT_EQ(jobs1.class_hits, jobs4.class_hits);
  EXPECT_EQ(jobs1.products_built, jobs4.products_built);
  EXPECT_EQ(jobs1.product_states, jobs4.product_states);
  if (kInstrumented) {
    EXPECT_EQ(jobs4.classes + jobs4.class_hits, jobs4.valuations);
    EXPECT_GT(jobs1.valuations, 0u);
  }
}

TEST(CollapseJobsTest, ChunkedSweepVerdictAndAccountingMatchAcrossJobs) {
  // On the fixed-database path the range is sharded, each shard owning
  // a class table: the split of products across shards may differ from
  // the serial sweep (it can only grow), but verdict, witness, total
  // valuations, and the per-side accounting identity all hold.
  auto ws = BuildEcommerceService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  options.closure_candidates = {V("p1"), V("100"), V("alice")};
  const std::string prop =
      "forall pid, price . ((UPP & payamount(price) & button(\"submit\") "
      "& pick(pid, price) & prod_prices(pid, price)) "
      "B !(conf(name, price) & ship(name, pid)))";

  SweepRun jobs1 = RunSweep(*ws, options, prop, &db, 1);
  SweepRun jobs4 = RunSweep(*ws, options, prop, &db, 4);
  EXPECT_EQ(jobs1.holds, jobs4.holds);
  EXPECT_EQ(jobs1.cex, jobs4.cex);
  EXPECT_EQ(jobs1.valuations, jobs4.valuations);
  EXPECT_LE(jobs1.products_built, jobs4.products_built);
  if (kInstrumented) {
    EXPECT_EQ(jobs1.classes + jobs1.class_hits, jobs1.valuations);
    EXPECT_EQ(jobs4.classes + jobs4.class_hits, jobs4.valuations);
  }
}

// --- db_enum fresh-value symmetry pruning. ------------------------------

// Applies a permutation of the fresh values to an instance (the test's
// own relabeling, independent of the enumerator's).
Instance Relabel(const Instance& in, const std::map<Value, Value>& pi) {
  auto map_value = [&](Value v) {
    auto it = pi.find(v);
    return it == pi.end() ? v : it->second;
  };
  Instance out;
  for (Value v : in.domain()) out.AddDomainValue(v);
  for (const auto& [name, rel] : in.relations()) {
    (void)out.EnsureRelation(name, rel.arity());
    for (Row t : rel.rows()) {
      Tuple mapped(t.begin(), t.end());
      for (Value& v : mapped) v = map_value(v);
      out.MutableRelation(name)->Insert(mapped);
    }
  }
  for (const auto& [name, v] : in.constants()) {
    out.SetConstant(name, map_value(v));
  }
  return out;
}

TEST(DbEnumSymmetryTest, VisitsOneRepresentativePerOrbit) {
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  DbEnumOptions options;
  options.fresh_values = 2;
  options.max_tuples_per_relation = 1;

  obs::ResetMetrics();
  std::vector<Instance> visited;
  auto r = EnumerateDatabases(*ws, options,
                              [&](const Instance& db) -> StatusOr<bool> {
                                visited.push_back(db);
                                return false;
                              });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(visited.empty());
  if (kInstrumented) {
    EXPECT_GT(obs::SnapshotMetrics().CounterValue("db_enum/symmetry_pruned"),
              0u);
  }

  // No two visited instances are related by the d0<->d1 swap, and the
  // visited set is closed under canonicalization: each instance's swap
  // image is either itself or absent.
  const std::map<Value, Value> swap = {{V("d0"), V("d1")},
                                       {V("d1"), V("d0")}};
  std::set<std::string> seen;
  for (const Instance& db : visited) seen.insert(db.ToString());
  EXPECT_EQ(seen.size(), visited.size());  // no duplicates either
  for (const Instance& db : visited) {
    Instance swapped = Relabel(db, swap);
    if (swapped == db) continue;
    EXPECT_EQ(seen.count(swapped.ToString()), 0u)
        << "isomorphic pair visited:\n"
        << db.ToString();
  }
}

TEST(DbEnumSymmetryTest, VerdictsUnchangedByPruning) {
  // Soundness smoke test: with two interchangeable fresh values the
  // pruned enumeration must still decide both a holding and a violated
  // property exactly as before, at any job count.
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.db.fresh_values = 2;
  options.db.max_tuples_per_relation = 1;
  options.graph.constant_pool = {V("d0")};

  SweepRun holding1 = RunSweep(*ws, options, "G(!error(\"no such page\"))",
                          nullptr, 1);
  SweepRun holding4 = RunSweep(*ws, options, "G(!error(\"no such page\"))",
                          nullptr, 4);
  EXPECT_TRUE(holding1.holds);
  EXPECT_TRUE(holding4.holds);
  EXPECT_EQ(holding1.databases, holding4.databases);

  SweepRun violated1 = RunSweep(*ws, options, "G(!CP)", nullptr, 1);
  SweepRun violated4 = RunSweep(*ws, options, "G(!CP)", nullptr, 4);
  EXPECT_FALSE(violated1.holds);
  EXPECT_FALSE(violated4.holds);
  EXPECT_EQ(violated1.cex, violated4.cex);
  EXPECT_EQ(violated1.databases, violated4.databases);
}

}  // namespace
}  // namespace wsv
