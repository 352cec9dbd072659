// The accepting-lasso search against the reference oracle
// (`ctest -L search`).
//
// The reference checker (reference_checker.h) is the oracle: the
// verifier's CVWY nested DFS (automata/emptiness.h), serial and in the
// chunked jobs=2 sweep, must agree with it on every verdict, pick the
// witness at the same (lowest) valuation index, and produce only
// witnesses that survive the standalone replay validator. Which *lasso*
// is returned may differ from the oracle's SCC-based search; only lasso
// existence decides a verdict.
//
// Also here: cancellation drain of the chunked sweep under jobs=4 (the
// suite is in the tsan label for that reason).

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "reference_checker.h"
#include "verify/ltl_verifier.h"
#include "verify/witness_check.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

struct EngineResult {
  std::string engine;
  StatusOr<LtlVerifyResult> result = Status::Internal("not run");
};

// Runs one (service, property, database) through the reference oracle,
// the serial sweep and the chunked sweep at jobs=2, then cross-checks
// them. Witness *runs* are not compared with the oracle's (its search
// legitimately finds different lassos); verdict, completeness, witness
// valuation, and witness validity are.
void ExpectStrategiesAgree(const WebService& service,
                           const TemporalProperty& property,
                           const Instance& db, const LtlVerifyOptions& options,
                           const std::string& what) {
  std::vector<EngineResult> results;

  results.push_back(
      {"reference", ReferenceVerifyOnDatabase(service, property, db, options)});
  for (int jobs : {1, 2}) {
    results.push_back(
        {"jobs=" + std::to_string(jobs),
         LtlVerifier(&service, options, jobs).VerifyOnDatabase(property, db)});
  }

  const EngineResult& oracle = results.front();
  ASSERT_TRUE(oracle.result.ok())
      << what << ": " << oracle.result.status().ToString();
  for (size_t i = 1; i < results.size(); ++i) {
    const EngineResult& r = results[i];
    ASSERT_TRUE(r.result.ok())
        << what << " [" << r.engine << "]: " << r.result.status().ToString();
    EXPECT_EQ(r.result->holds, oracle.result->holds)
        << what << " [" << r.engine << "]";
    EXPECT_EQ(r.result->complete_within_bounds,
              oracle.result->complete_within_bounds)
        << what << " [" << r.engine << "]";
    if (oracle.result->holds || r.result->holds != oracle.result->holds) {
      continue;
    }
    ASSERT_TRUE(r.result->counterexample.has_value())
        << what << " [" << r.engine << "]";
    ASSERT_TRUE(oracle.result->counterexample.has_value()) << what;
    EXPECT_EQ(r.result->counterexample->valuation,
              oracle.result->counterexample->valuation)
        << what << " [" << r.engine << "]";
    Status witness = ValidateWitness(service, property,
                                     *r.result->counterexample);
    EXPECT_TRUE(witness.ok())
        << what << " [" << r.engine << "]: " << witness.ToString();
  }
}

// Seeded random LTL formulas over the given atoms (no wall-clock APIs;
// the same generator shape as the otf_test fuzz, so coverage composes).
std::vector<std::string> SeededFormulas(uint32_t seed, int count,
                                        const std::vector<const char*>& atoms) {
  std::mt19937 rng(seed);
  auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  // NOLINTNEXTLINE(misc-no-recursion)
  auto gen = [&](auto&& self, int depth) -> std::string {
    if (depth == 0 || pick(4) == 0) {
      return atoms[static_cast<size_t>(pick(static_cast<int>(atoms.size())))];
    }
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
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(gen(gen, 3));
  return out;
}

void FuzzService(const WebService& service, const Instance& db,
                 LtlVerifyOptions options, uint32_t seed, int count,
                 const std::vector<const char*>& atoms,
                 const std::string& label) {
  for (const std::string& formula : SeededFormulas(seed, count, atoms)) {
    SCOPED_TRACE(label + ": " + formula);
    auto p = ParseTemporalProperty(formula, &service.vocab());
    ASSERT_TRUE(p.ok()) << formula << ": " << p.status().ToString();
    ExpectStrategiesAgree(service, *p, db, options, label + ": " + formula);
  }
}

// --- differential fuzz over three gallery services ---------------------

TEST(StrategyFuzz, LoginRandomFormulasAgree) {
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  FuzzService(*ws, LoginDatabase(), options, 20260809u, 20,
              {"HP", "MP", "CP", "BYE", "logged_in",
               "error(\"failed login\")"},
              "login");
}

TEST(StrategyFuzz, PaperClearLoopRandomFormulasAgree) {
  auto ws = BuildPaperClearLoopService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  FuzzService(*ws, LoginDatabase(), options, 20260810u, 10,
              {"HP", "MP", "CP", "logged_in", "error(\"failed login\")"},
              "clear-loop");
}

TEST(StrategyFuzz, CatalogSearchRandomFormulasAgree) {
  auto ws = BuildInputDrivenSearchService(CatalogSearchSpec());
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.require_input_bounded = false;
  FuzzService(*ws, CatalogSearchDatabase(), options, 20260811u, 10,
              {"Browse", "ERR", "new_sel", "I(\"products\")", "I(\"d1\")"},
              "catalog");
}

// --- the paper's running example, targeted -----------------------------

TEST(StrategyEcommerce, Property1AgreesAcrossStrategies) {
  auto ws = BuildEcommerceService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  auto p = ParseTemporalProperty("G(!PIP) | F(PIP & F(CC))", &ws->vocab());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ExpectStrategiesAgree(*ws, *p, db, options, "ecommerce property 1");
}

TEST(StrategyEcommerce, QuantifiedClosureAgreesAcrossStrategies) {
  // Universal closure variables make faithfulness lasso-dependent: the
  // sweep must agree with the oracle on verdict *and* witness valuation.
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  auto p = ParseTemporalProperty("forall m . G(!error(m))", &ws->vocab());
  ASSERT_TRUE(p.ok());
  ExpectStrategiesAgree(*ws, *p, LoginDatabase(), options,
                        "login quantified");
}

// --- cancellation drain under jobs=4 (tsan) ----------------------------

TEST(StrategyCancellationTest, EarlyExitDrainsCleanly) {
  // A quantified violated property at jobs=4: the sliced probe searches
  // racing chunks, the first marker cancels the rest, and the full-spec
  // phase must still land on the serial witness.
  // TSan (this suite carries the tsan label) checks the drain for races.
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = LoginDatabase();
  auto p = ParseTemporalProperty("forall m . G(!error(m))", &ws->vocab());
  ASSERT_TRUE(p.ok());

  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};

  std::string serial_cex;
  {
    auto r = LtlVerifier(&*ws, options).VerifyOnDatabase(*p, db);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->holds);
    serial_cex = r->counterexample->ToString();
  }

  LtlVerifier verifier(&*ws, options, /*jobs=*/4);
  auto r = verifier.VerifyOnDatabase(*p, db);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->holds);
  ASSERT_TRUE(r->counterexample.has_value());
  EXPECT_EQ(r->counterexample->valuation.begin()->second,
            V("failed login"));
  EXPECT_EQ(r->counterexample->ToString(), serial_cex);
  Status witness = ValidateWitness(*ws, *p, *r->counterexample);
  EXPECT_TRUE(witness.ok()) << witness.ToString();
}

}  // namespace
}  // namespace wsv
