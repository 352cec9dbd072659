// Cross-validation tests: independent code paths of the library must
// agree with each other on the same questions.

#include <gtest/gtest.h>

#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "reductions/qbf.h"
#include "runtime/interpreter.h"
#include "verify/error_free.h"
#include "verify/ltl_verifier.h"
#include "verify/transform.h"
#include "ws/builder.h"
#include "ws/data_parser.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

// --- Error-freeness: the direct reachability check and the Lemma A.5
// transformation + LTL route must agree — across QBF-generated services
// with known error status. Routes 1 and 2 both search one graph whose
// nodes decide the database (DESIGN.md §6j), so they share that code;
// the independent checks are route 3 (Lemma A.6's ground truth via the
// QBF evaluator) and lazy_database_test's per-database oracle.
class QbfThreeWayTest : public ::testing::TestWithParam<int> {};

TEST_P(QbfThreeWayTest, DirectTransformAndTruthAgree) {
  std::vector<QbfPtr> formulas{
      Qbf::Exists("x", Qbf::Var("x")),
      Qbf::Forall("x", Qbf::Var("x")),
      Qbf::Exists("x", Qbf::Forall("y", Qbf::Or(Qbf::Not(Qbf::Var("x")),
                                                Qbf::Var("y")))),
      Qbf::Forall("x", Qbf::Exists("y", Qbf::And(Qbf::Var("y"),
                                                 Qbf::Not(Qbf::Var("x"))))),
  };
  const QbfPtr& f = formulas[static_cast<size_t>(GetParam())];
  bool truth = *EvaluateQbf(*f);
  WebService service = std::move(BuildQbfService(*f)).value();

  // Route 1: direct error search.
  ErrorFreeOptions ef_options;
  ef_options.db.fresh_values = 0;
  ef_options.db.max_tuples_per_relation = 2;
  auto direct = CheckErrorFree(service, ef_options);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  // Route 2: Lemma A.5 transformation + LTL verification of G !trap.
  auto tr = TransformErrorFree(service);
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  LtlVerifyOptions options;
  options.require_input_bounded = false;
  options.db.fresh_values = 0;
  options.db.max_tuples_per_relation = 2;
  LtlVerifier verifier(&tr->service, options);
  auto via_transform = verifier.Verify(tr->property);
  ASSERT_TRUE(via_transform.ok()) << via_transform.status().ToString();

  EXPECT_EQ(direct->error_free, via_transform->holds) << f->ToString();
  // Route 3: Lemma A.6 ground truth.
  EXPECT_EQ(direct->error_free, !truth) << f->ToString();
}

INSTANTIATE_TEST_SUITE_P(Formulas, QbfThreeWayTest, ::testing::Range(0, 4));

// --- Lemma A.10: the simple service must produce the same page sequence
// as the original under corresponding user scripts (page propositions
// track the page one step behind the transition rules).
TEST(SimpleEquivalenceTest, PagePropositionsTrackOriginalRun) {
  WebService original = std::move(BuildLoginService()).value();
  SimpleTransform tr = std::move(TransformToSimple(original)).value();

  // Original run: login succeeds, then logout.
  Instance db = LoginDatabase();
  std::vector<UserChoice> script;
  {
    UserChoice login;
    login.constant_values["name"] = V("alice");
    login.constant_values["password"] = V("pw");
    login.relation_choices["button"] = Tuple{V("login")};
    script.push_back(login);
    UserChoice logout;
    logout.relation_choices["button"] = Tuple{V("logout")};
    script.push_back(logout);
  }
  ScriptedInputProvider provider(script);
  Interpreter interp(&original, &db);
  auto run = interp.Run(provider, 3);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->page_sequence,
            (std::vector<std::string>{"HP", "CP", "BYE"}));

  // Simple run: same database plus the constants, same button picks.
  Instance simple_db = LoginDatabase();
  simple_db.SetConstant("name", V("alice"));
  simple_db.SetConstant("password", V("pw"));
  std::vector<UserChoice> simple_script;
  for (UserChoice c : script) {
    c.constant_values.clear();  // constants are in the database now
    simple_script.push_back(c);
  }
  ScriptedInputProvider simple_provider(simple_script);
  Interpreter simple_interp(&tr.service, &simple_db);
  auto simple_run = simple_interp.Run(simple_provider, 3);
  ASSERT_TRUE(simple_run.ok()) << simple_run.status().ToString();
  ASSERT_FALSE(simple_run->reached_error) << simple_run->error_reason;

  // At step i the simple service's page propositions encode V_i: no
  // proposition set means the home page.
  for (size_t i = 0; i < 3; ++i) {
    const TraceStep& step = simple_run->trace[i];
    std::string current = original.home_page();
    for (const auto& [page, prop] : tr.page_prop) {
      const Relation* rel = step.state.FindRelation(prop);
      if (rel != nullptr && rel->AsBool()) current = page;
    }
    EXPECT_EQ(current, run->page_sequence[i]) << "step " << i;
  }
}

// --- Lossless input (Theorem 3.9's extension (iii)). -------------------
TEST(LosslessInputTest, PrevAccumulatesAllInputs) {
  ServiceBuilder b("Lossless");
  b.Database("D", 1);
  b.Input("I", 1);
  b.State("seen_two", 0);
  b.Page("P")
      .Options("I(x)", "D(x)")
      // Two distinct values visible in prev at once: only possible under
      // lossless semantics.
      .Insert("seen_two",
              "exists x . prev.I(x) & (exists y . prev.I(y) & x != y)");
  b.Home("P").Error("E");
  WebService service = std::move(b.Build()).value();
  Instance db;
  ASSERT_TRUE(db.AddFact("D", {V("a")}).ok());
  ASSERT_TRUE(db.AddFact("D", {V("b")}).ok());

  auto run_with = [&](bool lossless) {
    Stepper stepper(&service, &db);
    stepper.SetLosslessInput(lossless);
    Config c = stepper.InitialConfig();
    for (const char* pick : {"a", "b", "a"}) {
      UserChoice choice;
      choice.relation_choices["I"] = Tuple{V(pick)};
      auto out = stepper.Step(c, choice);
      EXPECT_TRUE(out.ok());
      c = out->next;
    }
    return c.state.FindRelation("seen_two")->AsBool();
  };
  EXPECT_FALSE(run_with(false));  // standard: prev holds one tuple
  EXPECT_TRUE(run_with(true));    // lossless: prev accumulates {a, b}
}

// --- Data files round-trip. --------------------------------------------
TEST(DataParserTest, RoundTrip) {
  Instance db = EcommerceDatabase();
  std::string text = DataFileToString(db);
  WebService service = std::move(BuildEcommerceService()).value();
  auto parsed = ParseDataFile(text, &service.vocab());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (const auto& [name, rel] : db.relations()) {
    const Relation* got = parsed->FindRelation(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_TRUE(*got == rel) << name;
  }
}

TEST(DataParserTest, ChecksVocabulary) {
  WebService service = std::move(BuildLoginService()).value();
  EXPECT_FALSE(ParseDataFile("nosuch(a).", &service.vocab()).ok());
  EXPECT_FALSE(ParseDataFile("user(a).", &service.vocab()).ok());  // arity
  EXPECT_FALSE(
      ParseDataFile("const name = a.", &service.vocab()).ok());  // input
  EXPECT_TRUE(ParseDataFile("user(a, b).", &service.vocab()).ok());
  // Unchecked parsing accepts anything well-formed.
  EXPECT_TRUE(ParseDataFile("anything(x, \"y z\", 42).", nullptr).ok());
  EXPECT_FALSE(ParseDataFile("missing_dot(a)", nullptr).ok());
}

// --- Verifier counterexamples re-validate under run semantics. ----------
TEST(CounterexampleValidityTest, EveryCounterexampleReEvaluatesFalse) {
  WebService service = std::move(BuildLoginService()).value();
  Instance db = LoginDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  LtlVerifier verifier(&service, options);
  const char* violated[] = {
      "G(!MP)",
      "G(!CP)",
      "forall m . G(!error(m))",
      "G(HP)",
      "F(CP)",
  };
  for (const char* text : violated) {
    SCOPED_TRACE(text);
    auto prop = ParseTemporalProperty(text, &service.vocab());
    ASSERT_TRUE(prop.ok());
    auto r = verifier.VerifyOnDatabase(*prop, db);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->holds);
    ASSERT_TRUE(r->counterexample.has_value());
    // Independent re-evaluation through the lasso semantics, restricted
    // to the counterexample's valuation.
    auto again = EvaluateLtlOnLassoWithValuation(
        *prop->formula, r->counterexample->run, r->counterexample->database,
        service, r->counterexample->valuation, FoEngine::kCompiled);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_FALSE(*again);
  }
}

}  // namespace
}  // namespace wsv
