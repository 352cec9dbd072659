// On-the-fly verifier vs reference checker equivalence, witness
// validation, and determinism (`ctest -L otf`).
//
// The verifier (lazy configuration graph, nested-DFS product search,
// class collapse, slicing) is checked against the reference checker
// (reference_checker.h: full configuration graph + full product per
// valuation + SCC emptiness), per property:
//   - identical verdicts on the gallery services and on seeded random
//     formulas,
//   - every VIOLATED verdict yields a witness that survives the
//     standalone replay validator,
//   - lowest-valuation-index witness selection is deterministic, and
//     the removed `force_eager` option is rejected.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "reference_checker.h"
#include "verify/ltl_verifier.h"
#include "verify/witness_check.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

// Runs one (service, property, database) through the verifier and the
// reference checker and requires verdict agreement. On VIOLATED both
// must pick the witness at the same (lowest) valuation index, and both
// witnesses must survive the independent replay validator. The lasso
// itself may differ (different emptiness searches), so only the
// valuation is compared.
void ExpectEquivalent(const WebService& service,
                      const TemporalProperty& property, const Instance& db,
                      const LtlVerifyOptions& options,
                      const std::string& what) {
  auto r_otf = LtlVerifier(&service, options).VerifyOnDatabase(property, db);
  auto r_ref = ReferenceVerifyOnDatabase(service, property, db, options);
  ASSERT_EQ(r_otf.ok(), r_ref.ok())
      << what << ": otf=" << r_otf.status().ToString()
      << " reference=" << r_ref.status().ToString();
  if (!r_otf.ok()) return;
  EXPECT_EQ(r_otf->holds, r_ref->holds) << what;
  EXPECT_EQ(r_otf->complete_within_bounds, r_ref->complete_within_bounds)
      << what;
  if (r_otf->holds || r_otf->holds != r_ref->holds) return;
  ASSERT_TRUE(r_otf->counterexample.has_value()) << what;
  ASSERT_TRUE(r_ref->counterexample.has_value()) << what;
  EXPECT_EQ(r_otf->counterexample->valuation, r_ref->counterexample->valuation)
      << what;
  Status otf_witness = ValidateWitness(service, property, *r_otf->counterexample);
  EXPECT_TRUE(otf_witness.ok()) << what << ": " << otf_witness.ToString();
  Status ref_witness =
      ValidateWitness(service, property, *r_ref->counterexample);
  EXPECT_TRUE(ref_witness.ok()) << what << ": " << ref_witness.ToString();
}

class LoginOtfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ws = BuildLoginService();
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    service_ = std::move(ws).value();
    db_ = LoginDatabase();
    options_.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  }

  void CheckProperty(const std::string& prop) {
    auto p = ParseTemporalProperty(prop, &service_.vocab());
    ASSERT_TRUE(p.ok()) << prop << ": " << p.status().ToString();
    ExpectEquivalent(service_, *p, db_, options_, prop);
  }

  WebService service_;
  Instance db_;
  LtlVerifyOptions options_;
};

TEST_F(LoginOtfTest, GalleryPropertiesAgree) {
  // The verify_test fixtures: a mix of HOLDS, VIOLATED, and
  // universally-closed properties.
  CheckProperty("G(!CP | logged_in)");
  CheckProperty("G(!(logged_in & error(\"failed login\")))");
  CheckProperty("G(!MP)");
  CheckProperty("forall m . G(!error(m))");
  CheckProperty("G(!CP) | F(CP & F(BYE))");
  CheckProperty("F(BYE)");
}

TEST_F(LoginOtfTest, SeededRandomFormulasAgree) {
  // Seeded formula fuzzing (no wall-clock APIs): verifier and reference
  // must agree on every generated formula, and every violation witness must
  // replay. Atoms cover pages, a state proposition, and an FO leaf.
  std::mt19937 rng(20260806u);
  auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  const char* atoms[] = {"HP",  "MP",        "CP",
                         "BYE", "logged_in", "error(\"failed login\")"};
  // NOLINTNEXTLINE(misc-no-recursion)
  auto gen = [&](auto&& self, int depth) -> std::string {
    if (depth == 0 || pick(4) == 0) return atoms[pick(6)];
    switch (pick(6)) {
      case 0:
        return "!(" + self(self, depth - 1) + ")";
      case 1:
        return "G(" + self(self, depth - 1) + ")";
      case 2:
        return "F(" + self(self, depth - 1) + ")";
      case 3:
        return "X(" + self(self, depth - 1) + ")";
      case 4:
        return "(" + self(self, depth - 1) + " & " + self(self, depth - 1) +
               ")";
      default:
        return "(" + self(self, depth - 1) + " | " + self(self, depth - 1) +
               ")";
    }
  };
  for (int i = 0; i < 40; ++i) {
    const std::string formula = gen(gen, 3);
    SCOPED_TRACE("seed formula #" + std::to_string(i) + ": " + formula);
    CheckProperty(formula);
  }
}

TEST_F(LoginOtfTest, OnTheFlyWitnessIsDeterministic) {
  auto p = ParseTemporalProperty("forall m . G(!error(m))", &service_.vocab());
  ASSERT_TRUE(p.ok());
  LtlVerifier verifier(&service_, options_);
  auto r1 = verifier.VerifyOnDatabase(*p, db_);
  auto r2 = verifier.VerifyOnDatabase(*p, db_);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_FALSE(r1->holds);
  ASSERT_TRUE(r1->counterexample.has_value() &&
              r2->counterexample.has_value());
  EXPECT_EQ(r1->counterexample->ToString(), r2->counterexample->ToString());
}

TEST_F(LoginOtfTest, ForceEagerIsRejected) {
  // The eager engine is gone; its option survives only as a compile
  // shim, and setting it fails closed in both verifiers.
  auto p = ParseTemporalProperty("G(!MP)", &service_.vocab());
  ASSERT_TRUE(p.ok());
  LtlVerifyOptions options = options_;
  options.force_eager = true;
  auto serial = LtlVerifier(&service_, options).VerifyOnDatabase(*p, db_);
  EXPECT_EQ(serial.status().code(), StatusCode::kInvalidArgument);
  for (int jobs : {1, 4}) {
    auto parallel =
        LtlVerifier(&service_, options, jobs).VerifyOnDatabase(*p, db_);
    EXPECT_EQ(parallel.status().code(), StatusCode::kInvalidArgument) << jobs;
    auto swept = LtlVerifier(&service_, options, jobs).Verify(*p);
    EXPECT_EQ(swept.status().code(), StatusCode::kInvalidArgument) << jobs;
  }
}

TEST_F(LoginOtfTest, ParallelJobsAgreeWithSerial) {
  // The sharded sweep runs an independent on-the-fly search per chunk;
  // lowest-index witness selection must make jobs irrelevant.
  auto p = ParseTemporalProperty("forall m . G(!error(m))", &service_.vocab());
  ASSERT_TRUE(p.ok());
  std::string cex1, cex4;
  {
    LtlVerifier verifier(&service_, options_, /*jobs=*/1);
    auto r = verifier.VerifyOnDatabase(*p, db_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->holds);
    ASSERT_TRUE(r->counterexample.has_value());
    Status w = ValidateWitness(service_, *p, *r->counterexample);
    EXPECT_TRUE(w.ok()) << w.ToString();
    cex1 = r->counterexample->ToString();
  }
  {
    LtlVerifier verifier(&service_, options_, /*jobs=*/4);
    auto r = verifier.VerifyOnDatabase(*p, db_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->holds);
    ASSERT_TRUE(r->counterexample.has_value());
    cex4 = r->counterexample->ToString();
  }
  EXPECT_EQ(cex1, cex4);
}

// --- the paper's running example -------------------------------------

class EcommerceOtfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ws = BuildEcommerceService();
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    service_ = std::move(ws).value();
    db_ = EcommerceSmallDatabase();
    options_.graph.constant_pool = {V("alice"), V("pw")};
    options_.require_input_bounded = false;
  }

  WebService service_;
  Instance db_;
  LtlVerifyOptions options_;
};

TEST_F(EcommerceOtfTest, Property1ViolatedIdentically) {
  // Paper Property 1 (eventuality not enforced): the flagship early-exit
  // case — the on-the-fly search finds the lasso in ~100 product states
  // where the full product has 159k.
  auto p = ParseTemporalProperty("G(!PIP) | F(PIP & F(CC))",
                                 &service_.vocab());
  ASSERT_TRUE(p.ok());
  ExpectEquivalent(service_, *p, db_, options_, "property 1");
}

TEST_F(EcommerceOtfTest, Property4HoldsIdentically) {
  // Paper Property 4 (pay-before-ship): HOLDS, so the on-the-fly search
  // must sweep every valuation to the end and still agree.
  LtlVerifyOptions options = options_;
  options.closure_candidates = {V("p1"), V("100"), V("alice")};
  auto p = ParseTemporalProperty(
      "forall pid, price . ((UPP & payamount(price) & button(\"submit\") "
      "& pick(pid, price) & prod_prices(pid, price)) "
      "B !(conf(name, price) & ship(name, pid)))",
      &service_.vocab());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ExpectEquivalent(service_, *p, db_, options, "property 4");
}

// --- witness validator negatives --------------------------------------

class WitnessTamperTest : public LoginOtfTest {
 protected:
  CounterExample GenuineCex(const std::string& prop, TemporalProperty* out) {
    auto p = ParseTemporalProperty(prop, &service_.vocab());
    EXPECT_TRUE(p.ok());
    *out = *p;
    auto r = LtlVerifier(&service_, options_).VerifyOnDatabase(*p, db_);
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r->holds);
    return *r->counterexample;
  }
};

TEST_F(WitnessTamperTest, RejectsEmptyRun) {
  TemporalProperty p;
  CounterExample cex = GenuineCex("G(!MP)", &p);
  cex.run.steps.clear();
  EXPECT_FALSE(ValidateWitness(service_, p, cex).ok());
}

TEST_F(WitnessTamperTest, RejectsOutOfRangeLoopStart) {
  TemporalProperty p;
  CounterExample cex = GenuineCex("G(!MP)", &p);
  cex.run.loop_start = cex.run.steps.size();
  EXPECT_FALSE(ValidateWitness(service_, p, cex).ok());
}

TEST_F(WitnessTamperTest, RejectsForgedPage) {
  TemporalProperty p;
  CounterExample cex = GenuineCex("G(!MP)", &p);
  // Rename the violating page: the claimed run no longer replays.
  for (auto& step : cex.run.steps) {
    if (step.page == "MP") step.page = "CP";
  }
  EXPECT_FALSE(ValidateWitness(service_, p, cex).ok());
}

TEST_F(WitnessTamperTest, RejectsUnboundValuation) {
  TemporalProperty p;
  CounterExample cex = GenuineCex("forall m . G(!error(m))", &p);
  cex.valuation.clear();
  EXPECT_FALSE(ValidateWitness(service_, p, cex).ok());
}

TEST_F(WitnessTamperTest, RejectsNonViolatingValuation) {
  TemporalProperty p;
  CounterExample cex = GenuineCex("forall m . G(!error(m))", &p);
  // The run is legal but under this binding the formula is satisfied,
  // so the witness claims a violation it does not exhibit.
  cex.valuation["m"] = V("not an error message");
  EXPECT_FALSE(ValidateWitness(service_, p, cex).ok());
}

}  // namespace
}  // namespace wsv
