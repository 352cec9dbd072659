// LtlVerifier at jobs > 1 (verify/ltl_verifier.h) and its thread
// pool. The load-bearing property is determinism: at any job count the
// engine must report exactly the serial verifier's verdict and witness,
// so most tests here are serial-vs-parallel equality checks over the
// gallery services, plus direct unit tests of the pool and of the
// cancellation plumbing.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/thread_pool.h"
#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "ltl/run_semantics.h"
#include "obs/metrics.h"
#include "verify/config_graph.h"
#include "verify/ltl_verifier.h"
#include "verify/witness_check.h"
#include "ws/builder.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

// --- thread pool -------------------------------------------------------------

TEST(ThreadPoolTest, ResolveJobCount) {
  EXPECT_EQ(ResolveJobCount(3), 3);
  EXPECT_EQ(ResolveJobCount(1), 1);
  EXPECT_GE(ResolveJobCount(0), 1);
  EXPECT_GE(ResolveJobCount(-1), 1);
}

TEST(ThreadPoolTest, SubmitAndDrain) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
  // The pool is reusable after a Wait.
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPoolTest, CancelPendingDropsQueuedTasksOnly) {
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> blocker_started{false};
  std::atomic<int> ran{0};

  // Occupy the single worker, then queue tasks behind it.
  pool.Submit([&] {
    blocker_started.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  while (!blocker_started.load()) {
  }
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }

  size_t dropped = pool.CancelPending();
  EXPECT_EQ(dropped, 10u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
  // The in-flight blocker finished; every queued task was cancelled.
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The exception is consumed; the pool keeps working.
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

// --- serial/parallel equivalence --------------------------------------------

class ParallelLoginTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ws = BuildLoginService();
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    service_ = std::move(ws).value();
    db_ = LoginDatabase();
    options_.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
    options_.require_input_bounded = true;
  }

  // Runs the property serially and at --jobs 4 and asserts identical
  // verdicts and witnesses; returns the parallel result.
  LtlVerifyResult CheckBothOnDb(const std::string& prop) {
    auto p = ParseTemporalProperty(prop, &service_.vocab());
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    auto serial = LtlVerifier(&service_, options_).VerifyOnDatabase(*p, db_);
    auto par =
        LtlVerifier(&service_, options_, 4).VerifyOnDatabase(*p, db_);
    EXPECT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_TRUE(par.ok()) << par.status().ToString();
    EXPECT_EQ(serial->holds, par->holds) << prop;
    EXPECT_EQ(serial->counterexample.has_value(),
              par->counterexample.has_value());
    if (serial->counterexample.has_value() &&
        par->counterexample.has_value()) {
      EXPECT_EQ(serial->counterexample->ToString(),
                par->counterexample->ToString())
          << prop;
    }
    return std::move(*par);
  }

  WebService service_;
  Instance db_;
  LtlVerifyOptions options_;
};

TEST_F(ParallelLoginTest, HoldingPropertyAgrees) {
  LtlVerifyResult r = CheckBothOnDb("G(!CP | logged_in)");
  EXPECT_TRUE(r.holds);
  EXPECT_TRUE(r.complete_within_bounds);
}

TEST_F(ParallelLoginTest, ViolatedPropertyAgreesOnWitness) {
  LtlVerifyResult r = CheckBothOnDb("G(!MP)");
  ASSERT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  // The parallel witness genuinely violates the property — cross-check
  // through the independent lasso-semantics evaluator.
  auto p = ParseTemporalProperty("G(!MP)", &service_.vocab());
  ASSERT_TRUE(p.ok());
  auto again = EvaluateLtlOnLasso(*p, r.counterexample->run,
                                  r.counterexample->database, service_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(*again);
  // And replays through the standalone witness validator.
  Status witness = ValidateWitness(service_, *p, *r.counterexample);
  EXPECT_TRUE(witness.ok()) << witness.ToString();
}

TEST_F(ParallelLoginTest, UniversalClosureAgreesOnValuation) {
  // The valuation sweep is what gets chunked across workers; the
  // lowest-index witness must still win.
  LtlVerifyResult r = CheckBothOnDb("forall m . G(!error(m))");
  ASSERT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->valuation.at("m"), V("failed login"));
}

TEST_F(ParallelLoginTest, EventualityViolationAgrees) {
  LtlVerifyResult r = CheckBothOnDb("G(!CP) | F(CP & F(BYE))");
  EXPECT_FALSE(r.holds);
}

TEST_F(ParallelLoginTest, EnumeratedDatabaseSweepAgrees) {
  // Database-level fan-out: the lowest-index violating database must be
  // reported, with the same databases_checked count as the serial stop.
  LtlVerifyOptions options;
  options.db.fresh_values = 1;
  options.db.max_tuples_per_relation = 1;
  options.graph.constant_pool = {V("d0")};
  auto p = ParseTemporalProperty("G(!CP)", &service_.vocab());
  ASSERT_TRUE(p.ok());
  auto serial = LtlVerifier(&service_, options).Verify(*p);
  auto par = LtlVerifier(&service_, options, 4).Verify(*p);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  ASSERT_FALSE(serial->holds);
  ASSERT_FALSE(par->holds);
  EXPECT_EQ(serial->databases_checked, par->databases_checked);
  ASSERT_TRUE(par->counterexample.has_value());
  EXPECT_EQ(serial->counterexample->ToString(),
            par->counterexample->ToString());
  Status witness = ValidateWitness(service_, *p, *par->counterexample);
  EXPECT_TRUE(witness.ok()) << witness.ToString();
}

TEST_F(ParallelLoginTest, HoldingEnumeratedSweepAgrees) {
  LtlVerifyOptions options;
  options.db.fresh_values = 1;
  options.db.max_tuples_per_relation = 1;
  options.graph.constant_pool = {V("d0")};
  auto p = ParseTemporalProperty("G(!error(\"no such page\"))",
                                 &service_.vocab());
  ASSERT_TRUE(p.ok());
  auto serial = LtlVerifier(&service_, options).Verify(*p);
  auto par = LtlVerifier(&service_, options, 4).Verify(*p);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_EQ(serial->holds, par->holds);
  // With no winner, every enumerated database was checked on both sides.
  EXPECT_EQ(serial->databases_checked, par->databases_checked);
}

// A database sweep is one valuation, hence one chunk: at any job count
// it runs on the calling thread, submits nothing to a pool, and reports
// what the serial sweep reports.
TEST(OneChunkSweepTest, RunsInlineAtEveryJobCount) {
  WebService service = std::move(BuildLoginService()).value();
  LtlVerifyOptions options;
  options.db.fresh_values = 2;
  auto p = ParseTemporalProperty("G(!CP | logged_in)", &service.vocab());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  auto serial = LtlVerifier(&service, options).Verify(*p);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int jobs : {2, 4}) {
    obs::ResetMetrics();
    auto par = LtlVerifier(&service, options, jobs).Verify(*p);
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    obs::MetricsSnapshot snap = obs::SnapshotMetrics();
    EXPECT_EQ(snap.CounterValue("pool/tasks_submitted"), 0u) << jobs;
    EXPECT_EQ(snap.CounterValue("verify/valuation_chunks"), 1u) << jobs;
    EXPECT_EQ(par->holds, serial->holds) << jobs;
    EXPECT_EQ(par->databases_checked, serial->databases_checked) << jobs;
    EXPECT_EQ(par->total_graph_nodes, serial->total_graph_nodes) << jobs;
    EXPECT_EQ(par->total_product_states, serial->total_product_states)
        << jobs;
  }
}

TEST(ParallelEcommerceTest, PaperPropertiesAgree) {
  auto ws = BuildEcommerceService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;

  // Example 3.2's eventuality (violated).
  {
    auto p = ParseTemporalProperty("G(!PIP) | F(PIP & F(CC))", &ws->vocab());
    ASSERT_TRUE(p.ok());
    auto serial = LtlVerifier(&*ws, options).VerifyOnDatabase(*p, db);
    auto par = LtlVerifier(&*ws, options, 4).VerifyOnDatabase(*p, db);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    ASSERT_FALSE(serial->holds);
    ASSERT_FALSE(par->holds);
    EXPECT_EQ(serial->counterexample->ToString(),
              par->counterexample->ToString());
  }

  // Example 3.4's pay-before-ship (holds); two closure variables, so the
  // valuation chunking and the FO-leaf memo both get exercised.
  {
    LtlVerifyOptions closure_options = options;
    closure_options.closure_candidates = {V("p1"), V("100"), V("alice")};
    auto p = ParseTemporalProperty(
        "forall pid, price . ((UPP & payamount(price) & button(\"submit\") "
        "& pick(pid, price) & prod_prices(pid, price)) "
        "B !(conf(name, price) & ship(name, pid)))",
        &ws->vocab());
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    auto serial = LtlVerifier(&*ws, closure_options).VerifyOnDatabase(*p, db);
    auto par = LtlVerifier(&*ws, closure_options, 4).VerifyOnDatabase(*p, db);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    EXPECT_TRUE(serial->holds);
    EXPECT_TRUE(par->holds);
  }
}

// --- cancellation plumbing ---------------------------------------------------

TEST(CancellationTest, ConfigGraphBuildObservesCancelCheck) {
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok());
  Instance db = LoginDatabase();
  Stepper stepper(&*ws, &db);
  ConfigGraphOptions options;
  options.constant_pool = {V("alice"), V("pw"), V("u0")};
  int polls = 0;
  options.cancel_check = [&polls] { return ++polls > 3; };
  auto graph = BuildConfigGraph(stepper, options);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kCancelled);
  // The build stopped mid-way, not after exhausting the graph.
  EXPECT_EQ(polls, 4);
}

TEST(CancellationTest, ValuationSweepObservesStopPredicate) {
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok());
  Instance db = LoginDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  auto p = ParseTemporalProperty("forall m . G(!error(m))", &ws->vocab());
  ASSERT_TRUE(p.ok());
  auto automaton = BuildNegatedAutomaton(*ws, *p, true);
  ASSERT_TRUE(automaton.ok()) << automaton.status().ToString();
  auto check = LtlDatabaseCheck::Create(&*ws, options, &*p, &*automaton, db,
                                        /*abort_on_lasso=*/false);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  ASSERT_GT(check->NumValuations(), 1u);

  // A stop that fires immediately aborts with kCancelled...
  uint64_t product_states = 0;
  auto cancelled = check->CheckValuations(
      0, check->NumValuations(), [](uint64_t) { return true; },
      &product_states);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(product_states, 0u);

  // ...and one that never fires finds the serial witness.
  auto found = check->CheckValuations(0, check->NumValuations(), nullptr,
                                      &product_states);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ((**found).cex.valuation.at("m"), V("failed login"));
}

// A class is counted where the class table records it, after its
// product search finished: a search cancelled mid-way counts neither a
// class nor a product, so ltl/valuation_classes == ltl/products_built on
// every exit path.
TEST(CancellationTest, CancelledSearchCountsNoClass) {
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok());
  Instance db = LoginDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  auto p = ParseTemporalProperty("forall m . G(!error(m))", &ws->vocab());
  ASSERT_TRUE(p.ok());
  auto automaton = BuildNegatedAutomaton(*ws, *p, true);
  ASSERT_TRUE(automaton.ok()) << automaton.status().ToString();
  auto check = LtlDatabaseCheck::Create(&*ws, options, &*p, &*automaton, db,
                                        /*abort_on_lasso=*/false);
  ASSERT_TRUE(check.ok()) << check.status().ToString();

  // The first poll (before valuation 0) passes; the next one, inside
  // valuation 0's product search, cancels.
  int polls = 0;
  obs::ResetMetrics();
  auto cancelled = check->CheckValuations(
      0, check->NumValuations(), [&polls](uint64_t) { return ++polls > 1; },
      nullptr);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_GT(polls, 1);
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  EXPECT_EQ(snap.CounterValue("ltl/valuations_checked"), 1u);
  EXPECT_EQ(snap.CounterValue("ltl/valuation_classes"), 0u);
  EXPECT_EQ(snap.CounterValue("ltl/products_built"), 0u);
}

}  // namespace
}  // namespace wsv
