#include <gtest/gtest.h>

#include <random>

#include "ltl/ltl_parser.h"
#include "reductions/fdid.h"
#include "reductions/fovalidity.h"
#include "reductions/qbf.h"
#include "reductions/turing.h"
#include "verify/error_free.h"
#include "verify/ltl_verifier.h"
#include "ws/classify.h"

namespace wsv {
namespace {

// --- QBF / Lemma A.6 ---------------------------------------------------------

TEST(QbfTest, DirectEvaluation) {
  // exists x . x          -> true
  EXPECT_TRUE(*EvaluateQbf(*Qbf::Exists("x", Qbf::Var("x"))));
  // forall x . x          -> false
  EXPECT_FALSE(*EvaluateQbf(*Qbf::Forall("x", Qbf::Var("x"))));
  // forall x . x | !x     -> true
  EXPECT_TRUE(*EvaluateQbf(
      *Qbf::Forall("x", Qbf::Or(Qbf::Var("x"), Qbf::Not(Qbf::Var("x"))))));
  // exists x . forall y . x & (y | !y)
  EXPECT_TRUE(*EvaluateQbf(*Qbf::Exists(
      "x", Qbf::Forall("y", Qbf::And(Qbf::Var("x"),
                                     Qbf::Or(Qbf::Var("y"),
                                             Qbf::Not(Qbf::Var("y"))))))));
  // Free variables are an error.
  EXPECT_FALSE(EvaluateQbf(*Qbf::Var("x")).ok());
}

TEST(QbfTest, ServiceIsInputBounded) {
  QbfPtr f = Qbf::Exists("x", Qbf::Var("x"));
  auto ws = BuildQbfService(*f);
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Status st = CheckInputBoundedService(*ws);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

class QbfReductionTest : public ::testing::TestWithParam<int> {};

TEST_P(QbfReductionTest, ErrorFreenessMatchesTruth) {
  std::vector<QbfPtr> formulas{
      Qbf::Exists("x", Qbf::Var("x")),
      Qbf::Forall("x", Qbf::Var("x")),
      Qbf::Forall("x", Qbf::Or(Qbf::Var("x"), Qbf::Not(Qbf::Var("x")))),
      Qbf::Exists("x", Qbf::And(Qbf::Var("x"), Qbf::Not(Qbf::Var("x")))),
      Qbf::Exists(
          "x", Qbf::Forall("y", Qbf::Or(Qbf::Not(Qbf::Var("x")),
                                        Qbf::Var("y")))),
      Qbf::Forall(
          "x", Qbf::Exists("y", Qbf::Or(Qbf::Not(Qbf::Var("x")),
                                        Qbf::Var("y")))),
  };
  const QbfPtr& f = formulas[static_cast<size_t>(GetParam())];
  bool truth = *EvaluateQbf(*f);
  auto ws = BuildQbfService(*f);
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  ErrorFreeOptions options;
  options.db.fresh_values = 0;          // domain = {"0", "1"}
  options.db.max_tuples_per_relation = 2;
  auto r = CheckErrorFree(*ws, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Lemma A.6: the service is error-free iff the formula is FALSE.
  EXPECT_EQ(r->error_free, !truth) << f->ToString();
}

INSTANTIATE_TEST_SUITE_P(Formulas, QbfReductionTest,
                         ::testing::Range(0, 6));

// --- Turing machines / Theorem 3.7 -------------------------------------------

TuringMachine HaltingMachine() {
  // q0 on blank: write 1, move right, q1; q1 on blank: halt.
  TuringMachine tm;
  tm.moves.push_back({"q0", "b", "1", "q1", TuringMachine::Dir::kRight});
  tm.moves.push_back({"q1", "b", "b", "qH", TuringMachine::Dir::kStay});
  return tm;
}

TuringMachine LoopingMachine() {
  // q0 on blank: stay on q0 forever.
  TuringMachine tm;
  tm.moves.push_back({"q0", "b", "b", "q0", TuringMachine::Dir::kStay});
  return tm;
}

TuringMachine LeftRightMachine() {
  // Bounces once: right then left, then halts at the left end.
  TuringMachine tm;
  tm.moves.push_back({"q0", "b", "1", "q1", TuringMachine::Dir::kRight});
  tm.moves.push_back({"q1", "b", "1", "q2", TuringMachine::Dir::kLeft});
  tm.moves.push_back({"q2", "1", "1", "qH", TuringMachine::Dir::kStay});
  return tm;
}

TEST(TuringTest, SimulatorGroundTruth) {
  EXPECT_TRUE(SimulateTm(HaltingMachine(), 10));
  EXPECT_FALSE(SimulateTm(LoopingMachine(), 100));
  EXPECT_TRUE(SimulateTm(LeftRightMachine(), 10));
}

TEST(TuringTest, ServiceViolatesInputBoundednessOnlyInOptions) {
  auto ws = BuildTuringService(HaltingMachine());
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  // The init options rule uses state atoms with variables — the paper's
  // extension (i) — so the classifier must reject it.
  EXPECT_FALSE(CheckInputBoundedService(*ws).ok());
}

StatusOr<bool> MachineHaltsWithinBounds(const TuringMachine& tm,
                                        int fresh_cells) {
  WSV_ASSIGN_OR_RETURN(WebService ws, BuildTuringService(tm));
  WSV_ASSIGN_OR_RETURN(TemporalProperty prop,
                       TuringNonHaltingProperty(tm, ws));
  LtlVerifyOptions options;
  options.require_input_bounded = false;
  options.db.fresh_values = fresh_cells;
  options.db.max_tuples_per_relation = fresh_cells + 1;
  options.extra_constant_values = 0;
  LtlVerifier verifier(&ws, options);
  WSV_ASSIGN_OR_RETURN(LtlVerifyResult r, verifier.Verify(prop));
  return !r.holds;  // a violation == the halting state is reachable
}

TEST(TuringTest, HaltingMachineDetected) {
  auto halts = MachineHaltsWithinBounds(HaltingMachine(), 2);
  ASSERT_TRUE(halts.ok()) << halts.status().ToString();
  EXPECT_TRUE(*halts);
}

TEST(TuringTest, LoopingMachineProducesNoViolation) {
  auto halts = MachineHaltsWithinBounds(LoopingMachine(), 2);
  ASSERT_TRUE(halts.ok()) << halts.status().ToString();
  EXPECT_FALSE(*halts);
}

TEST(TuringTest, LeftMovesSimulateCorrectly) {
  auto halts = MachineHaltsWithinBounds(LeftRightMachine(), 2);
  ASSERT_TRUE(halts.ok()) << halts.status().ToString();
  EXPECT_TRUE(*halts);
}

// --- FD + ID implication / Theorem 3.8 ---------------------------------------

TEST(FdidTest, ClosureOracle) {
  // A -> B, B -> C implies A -> C.
  FdidInstance good;
  good.arity = 3;
  good.fds = {{{0}, 1}, {{1}, 2}};
  good.goal = {{0}, 2};
  EXPECT_TRUE(FdImplies(good));
  // ... but not C -> A.
  FdidInstance bad = good;
  bad.goal = {{2}, 0};
  EXPECT_FALSE(FdImplies(bad));
}

TEST(FdidTest, ServiceUsesStateProjections) {
  FdidInstance inst;
  inst.arity = 2;
  inst.fds = {{{0}, 1}};
  inst.goal = {{0}, 1};
  auto red = BuildFdidReduction(inst);
  ASSERT_TRUE(red.ok()) << red.status().ToString();
  // State projections break input-boundedness (Theorem 3.8's point).
  EXPECT_FALSE(CheckInputBoundedService(red->service).ok());
}

StatusOr<bool> FdidHoldsWithinBounds(const FdidInstance& inst) {
  WSV_ASSIGN_OR_RETURN(FdidReduction red, BuildFdidReduction(inst));
  LtlVerifyOptions options;
  options.require_input_bounded = false;
  options.db.fresh_values = 2;
  options.db.max_tuples_per_relation = 2;  // R supplies 2 domain values
  options.extra_constant_values = 0;
  options.graph.max_nodes = 40000;
  LtlVerifier verifier(&red.service, options);
  WSV_ASSIGN_OR_RETURN(LtlVerifyResult r, verifier.Verify(red.property));
  return r.holds;
}

TEST(FdidTest, TrivialImplicationHolds) {
  // {A -> B} implies A -> B.
  FdidInstance inst;
  inst.arity = 2;
  inst.fds = {{{0}, 1}};
  inst.goal = {{0}, 1};
  auto r = FdidHoldsWithinBounds(inst);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(*r);
}

TEST(FdidTest, NonImplicationRefutedWithWitness) {
  // {} does not imply A -> B: a two-tuple S refutes it.
  FdidInstance inst;
  inst.arity = 2;
  inst.fds = {};
  inst.goal = {{0}, 1};
  EXPECT_FALSE(FdImplies(inst));
  auto r = FdidHoldsWithinBounds(inst);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(*r);
}

TEST(FdidTest, InclusionDependencySatisfiedTrivially) {
  // S[0] subseteq S[0] always holds, so it never fires viol; goal A -> A
  // holds trivially.
  FdidInstance inst;
  inst.arity = 2;
  inst.inds = {{{0}, {0}}};
  inst.goal = {{0}, 0};
  auto r = FdidHoldsWithinBounds(inst);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(*r);
}


// --- exists-forall FO validity / Theorem 4.2 ---------------------------------

// Random databases: the service route must agree with direct evaluation.
class FoValidityTest : public ::testing::TestWithParam<int> {};

TEST_P(FoValidityTest, ServiceRouteAgreesWithDirectEvaluation) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()));
  auto v = [](const std::string& s) { return Value::Intern(s); };
  const char* matrices[] = {
      "Rel(x, y) | !Rel(x, y)",  // valid
      "Rel(x, y)",               // exists a row-complete x
      "!Rel(x, y)",              // exists an isolated x
      "Rel(x, y) -> Rel(y, x)",  // x whose edges are all symmetric
      "x = y | Rel(x, y)",
  };
  for (int iter = 0; iter < 4; ++iter) {
    Instance db;
    std::vector<Value> dom{v("a"), v("b")};
    if (rng() % 2) dom.push_back(v("c"));
    for (Value d : dom) ASSERT_TRUE(db.AddFact("Dom", {d}).ok());
    (void)db.EnsureRelation("Rel", 2);
    for (Value d1 : dom) {
      for (Value d2 : dom) {
        if (rng() % 2) {
          ASSERT_TRUE(db.AddFact("Rel", {d1, d2}).ok());
        }
      }
    }
    for (const char* psi : matrices) {
      SCOPED_TRACE(std::string(psi) + " iter " + std::to_string(iter));
      auto red = BuildFoValidityReduction(psi);
      ASSERT_TRUE(red.ok()) << red.status().ToString();
      auto direct = ExistsForallDirect(psi, db);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      auto via = ExistsForallViaService(*red, db);
      ASSERT_TRUE(via.ok()) << via.status().ToString();
      EXPECT_EQ(*direct, *via);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoValidityTest, ::testing::Values(5, 6));

TEST(FoValidityTest2, ReductionServiceIsInputBounded) {
  auto red = BuildFoValidityReduction("Rel(x, y)");
  ASSERT_TRUE(red.ok()) << red.status().ToString();
  // Theorem 4.2's point: the *service* stays input-bounded; the
  // undecidability comes from the branching-time property.
  Status st = CheckInputBoundedService(red->service);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(red->property.formula->IsCtl());
}

}  // namespace
}  // namespace wsv
