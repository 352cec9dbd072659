#include <gtest/gtest.h>

#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "verify/db_enum.h"
#include "verify/error_free.h"
#include "verify/ltl_verifier.h"
#include "verify/transform.h"
#include "verify/witness_check.h"
#include "ws/builder.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

class LoginVerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ws = BuildLoginService();
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    service_ = std::move(ws).value();
    db_ = LoginDatabase();
    options_.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
    options_.require_input_bounded = true;
  }

  StatusOr<LtlVerifyResult> VerifyOnDb(const std::string& prop) {
    auto p = ParseTemporalProperty(prop, &service_.vocab());
    if (!p.ok()) return p.status();
    LtlVerifier verifier(&service_, options_);
    return verifier.VerifyOnDatabase(*p, db_);
  }

  WebService service_;
  Instance db_;
  LtlVerifyOptions options_;
};

TEST_F(LoginVerifyTest, SafetyPropertyHolds) {
  // CP is only reachable after a successful login.
  auto r = VerifyOnDb("G(!CP | logged_in)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->holds);
  EXPECT_TRUE(r->complete_within_bounds);
}

TEST_F(LoginVerifyTest, SuccessAndFailureAreExclusive) {
  auto r = VerifyOnDb("G(!(logged_in & error(\"failed login\")))");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->holds);
}

TEST_F(LoginVerifyTest, ViolationProducesGenuineCounterexample) {
  // MP is reachable (wrong password from the pool).
  auto r = VerifyOnDb("G(!MP)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->holds);
  ASSERT_TRUE(r->counterexample.has_value());
  const CounterExample& cex = *r->counterexample;
  // The returned lasso genuinely violates the property under the lasso
  // semantics — cross-check through an independent code path.
  auto p = ParseTemporalProperty("G(!MP)", &service_.vocab());
  ASSERT_TRUE(p.ok());
  auto again = EvaluateLtlOnLasso(*p, cex.run, cex.database, service_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(*again);
  // And through the standalone replay validator.
  Status witness = ValidateWitness(service_, *p, cex);
  EXPECT_TRUE(witness.ok()) << witness.ToString();
}

TEST_F(LoginVerifyTest, UniversalClosureCounterexample) {
  auto r = VerifyOnDb("forall m . G(!error(m))");
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->holds);
  ASSERT_TRUE(r->counterexample.has_value());
  EXPECT_EQ(r->counterexample->valuation.at("m"), V("failed login"));
  auto p = ParseTemporalProperty("forall m . G(!error(m))", &service_.vocab());
  ASSERT_TRUE(p.ok());
  Status witness = ValidateWitness(service_, *p, *r->counterexample);
  EXPECT_TRUE(witness.ok()) << witness.ToString();
}

TEST_F(LoginVerifyTest, EventualityFailsBecauseUserMayIdle) {
  // Example 3.2's navigation property shape: reaching CP does not force
  // ever reaching BYE (the user can idle on CP forever).
  auto r = VerifyOnDb("G(!CP) | F(CP & F(BYE))");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->holds);
}

TEST_F(LoginVerifyTest, RequiresInputBoundedWhenAsked) {
  auto ecom = BuildEcommerceService();
  ASSERT_TRUE(ecom.ok());
  LtlVerifier verifier(&*ecom, options_);
  auto p = ParseTemporalProperty("G(!ERR)", &ecom->vocab());
  ASSERT_TRUE(p.ok());
  auto r = verifier.VerifyOnDatabase(*p, EcommerceDatabase());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotInputBounded);
}

TEST_F(LoginVerifyTest, EnumeratedDatabasesFindEmptyUserTable) {
  // Over all databases (including the empty user table), login always
  // fails; CP unreachable iff user table lacks the typed pair. G(!CP)
  // must be violated on some database where the pool pair is present.
  LtlVerifyOptions options;
  options.db.fresh_values = 1;
  options.db.max_tuples_per_relation = 1;
  options.graph.constant_pool = {V("d0")};
  LtlVerifier verifier(&service_, options);
  auto p = ParseTemporalProperty("G(!CP)", &service_.vocab());
  ASSERT_TRUE(p.ok());
  auto r = verifier.Verify(*p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->holds);
  EXPECT_GE(r->databases_checked, 1u);
}

// --- error-freeness ----------------------------------------------------------

TEST(ErrorFreeTest, LoginServiceIsErrorFree) {
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok());
  ErrorFreeOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  auto r = CheckErrorFreeOnDatabase(*ws, LoginDatabase(), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->error_free) << r->witness->ToString();
}

TEST(ErrorFreeTest, PaperClearLoopIsNot) {
  auto ws = BuildPaperClearLoopService();
  ASSERT_TRUE(ws.ok());
  ErrorFreeOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  auto r = CheckErrorFreeOnDatabase(*ws, LoginDatabase(), options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->error_free);
  ASSERT_TRUE(r->witness.has_value());
  EXPECT_NE(r->witness->reason.find("condition ii"), std::string::npos)
      << r->witness->reason;
  // The witness path ends on the page that triggered the error.
  EXPECT_FALSE(r->witness->path.empty());
}

TEST(ErrorFreeTest, AmbiguousTargetsDetected) {
  ServiceBuilder b("Amb");
  b.Input("go", 0);
  b.Page("HP").UseInput("go").Target("A", "go").Target("B", "go");
  b.Page("A");
  b.Page("B");
  b.Home("HP").Error("E");
  auto ws = b.Build();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  ErrorFreeOptions options;
  Instance db;
  auto r = CheckErrorFreeOnDatabase(*ws, db, options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->error_free);
  EXPECT_NE(r->witness->reason.find("condition iii"), std::string::npos);
}

TEST(ErrorFreeTest, UnprovidedConstantDetected) {
  // CP's rule uses `name`, which CP does not request and HP never
  // provided... HP does request it here, so route through a page that
  // uses `password` never requested anywhere.
  ServiceBuilder b("Miss");
  b.Database("user", 2);
  b.InputConstant("name").InputConstant("password");
  b.Input("go", 0);
  b.Page("HP").UseInput("go").UseInput("name").Target("CP", "go");
  b.Page("CP").Insert("s", "user(name, password)");
  b.State("s", 0);
  EXPECT_FALSE(b.Build().ok());  // states declared after pages
}

TEST(ErrorFreeTest, UnprovidedConstantDetectedAtRuntime) {
  ServiceBuilder b("Miss");
  b.Database("user", 2);
  b.State("s", 0);
  b.InputConstant("name");
  b.InputConstant("password");
  b.Input("go", 0);
  b.Page("HP").UseInput("go").UseInput("name").Target("CP", "go");
  b.Page("CP").Insert("s", "user(name, password)");
  b.Home("HP").Error("E");
  auto ws = b.Build();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  ErrorFreeOptions options;
  options.graph.constant_pool = {V("a")};
  Instance db;
  ASSERT_TRUE(db.AddFact("user", {V("a"), V("a")}).ok());
  auto r = CheckErrorFreeOnDatabase(*ws, db, options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->error_free);
  EXPECT_NE(r->witness->reason.find("condition i"), std::string::npos);
}

// --- Lemma A.5: error-freeness via transformation ---------------------------

TEST(TransformErrorFreeTest, AgreesWithDirectCheckOnErrorFreeService) {
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok());
  auto tr = TransformErrorFree(*ws);
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  // The transformed service never reaches the trap page.
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  options.require_input_bounded = false;  // trap guards add negations
  LtlVerifier verifier(&tr->service, options);
  auto r = verifier.VerifyOnDatabase(tr->property, LoginDatabase());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->holds) << r->counterexample->ToString();
}

TEST(TransformErrorFreeTest, AgreesOnErroringService) {
  auto ws = BuildPaperClearLoopService();
  ASSERT_TRUE(ws.ok());
  auto tr = TransformErrorFree(*ws);
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  LtlVerifier verifier(&tr->service, options);
  auto r = verifier.VerifyOnDatabase(tr->property, LoginDatabase());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->holds);
  // And the transformed service itself is error-free (Lemma A.5).
  ErrorFreeOptions ef;
  ef.graph.constant_pool = {V("alice"), V("pw")};
  auto direct = CheckErrorFreeOnDatabase(tr->service, LoginDatabase(), ef);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(direct->error_free) << direct->witness->ToString();
}

TEST(TransformErrorFreeTest, AmbiguityRoutedToTrap) {
  ServiceBuilder b("Amb");
  b.Input("go", 0);
  b.Page("HP").UseInput("go").Target("A", "go").Target("B", "go");
  b.Page("A");
  b.Page("B");
  b.Home("HP").Error("E");
  auto ws = b.Build();
  ASSERT_TRUE(ws.ok());
  auto tr = TransformErrorFree(*ws);
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  LtlVerifyOptions options;
  options.require_input_bounded = false;
  LtlVerifier verifier(&tr->service, options);
  Instance db;
  auto r = verifier.VerifyOnDatabase(tr->property, db);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->holds);
}

// --- Lemma A.10: reduction to simple services --------------------------------

TEST(TransformSimpleTest, ProducesValidSinglePageService) {
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok());
  auto tr = TransformToSimple(*ws);
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  EXPECT_EQ(tr->service.pages().size(), 1u);
  // Input constants became database constants.
  EXPECT_TRUE(tr->service.vocab().InputConstants().empty());
  EXPECT_TRUE(tr->service.vocab().IsConstant("name"));
}

TEST(TransformSimpleTest, BehaviorMatchesPerConstantAssignment) {
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok());
  auto tr = TransformToSimple(*ws);
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();

  auto p = ParseTemporalProperty("G(!MP)", &ws->vocab());
  ASSERT_TRUE(p.ok());
  auto rewritten = RewritePropertyForSimple(*p, *ws, *tr);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();

  LtlVerifyOptions options;
  options.require_input_bounded = false;
  LtlVerifier verifier(&tr->service, options);

  // Correct credentials: MP unreachable.
  Instance good = LoginDatabase();
  good.SetConstant("name", V("alice"));
  good.SetConstant("password", V("pw"));
  auto r1 = verifier.VerifyOnDatabase(*rewritten, good);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r1->holds) << r1->counterexample->ToString();

  // Wrong credentials: the MP marker is reached.
  Instance bad = LoginDatabase();
  bad.SetConstant("name", V("alice"));
  bad.SetConstant("password", V("wrong"));
  auto r2 = verifier.VerifyOnDatabase(*rewritten, bad);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_FALSE(r2->holds);
}

// --- The paper's e-commerce properties ---------------------------------------

class EcommerceVerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ws = BuildEcommerceService();
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    service_ = std::move(ws).value();
    db_ = EcommerceSmallDatabase();
    // Keep the constant pool tight: the session user is alice.
    options_.graph.constant_pool = {V("alice"), V("pw")};
    options_.require_input_bounded = false;  // CC/UPP/VOP/POP options
  }

  StatusOr<LtlVerifyResult> VerifyOnDb(const std::string& prop) {
    auto p = ParseTemporalProperty(prop, &service_.vocab());
    if (!p.ok()) return p.status();
    LtlVerifier verifier(&service_, options_);
    return verifier.VerifyOnDatabase(*p, db_);
  }

  WebService service_;
  Instance db_;
  LtlVerifyOptions options_;
};

TEST_F(EcommerceVerifyTest, PayBeforeShipHolds) {
  // Property (4) of Example 3.4: any shipped product was paid for, with
  // the payment step (beta') occurring strictly before conf & ship.
  // Closure variables only matter on catalog values: restrict the
  // valuation candidates to them (sound; violating pid/price must be in
  // prod_prices for conf & ship to co-occur).
  options_.closure_candidates = {V("p1"), V("100"), V("alice")};
  std::string beta =
      "(UPP & payamount(price) & button(\"submit\") & pick(pid, price) "
      "& prod_prices(pid, price))";
  auto r = VerifyOnDb("forall pid, price . (" + beta +
                      " B !(conf(name, price) & ship(name, pid)))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->holds) << r->counterexample->ToString();
  EXPECT_TRUE(r->complete_within_bounds);
}

TEST_F(EcommerceVerifyTest, NavigationEventualityFails) {
  // Property (1) of Example 3.2 with P = PIP, Q = CC: the user may
  // never visit the cart.
  auto r = VerifyOnDb("G(!PIP) | F(PIP & F(CC))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->holds);
}

TEST_F(EcommerceVerifyTest, ErrorFreeOnFixture) {
  ErrorFreeOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  auto r = CheckErrorFreeOnDatabase(service_, db_, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->error_free) << r->witness->ToString();
}

// The summary line `wsvcli verify` and `check-errors` print for a check
// that found nothing: counts verbatim, a saturated database count as
// "≥ 2^64" rather than the sentinel's digits, and the truncation mark.
TEST(WithinBoundsLineTest, FormatsCountsAndSaturation) {
  EXPECT_EQ(WithinBoundsLine("HOLDS", 667,
                             {{207, "graph nodes"}, {497, "product states"}},
                             true),
            "HOLDS within bounds (667 database(s), 207 graph nodes, "
            "497 product states)");
  EXPECT_EQ(WithinBoundsLine("error-free", 1, {{42, "configurations"}},
                             false),
            "error-free within bounds (1 database(s), 42 configurations) "
            "[truncated]");
  EXPECT_EQ(WithinBoundsLine("HOLDS", UINT64_MAX,
                             {{1499998, "graph nodes"}, {4000000, "product states"}},
                             false),
            "HOLDS within bounds (\u2265 2^64 database(s), 1499998 graph "
            "nodes, 4000000 product states) [truncated]");
  // One below the sentinel is a real count.
  EXPECT_EQ(WithinBoundsLine("HOLDS", UINT64_MAX - 1, {}, true),
            "HOLDS within bounds (18446744073709551614 database(s))");
}

}  // namespace
}  // namespace wsv
