// Differential fuzz for the property-directed spec slicer.
//
// The slicer's contract (analysis/slice.h, DESIGN.md §10) is that
// verification of a sliced service is *observationally identical* to
// verification of the full one: same verdict, same lowest-index witness,
// same databases_checked — for every property, not just the gallery
// ones. This suite hammers that contract with seeded random temporal
// properties over three gallery services, comparing a normal (sliced)
// run against an enable_slice = false run of the same request, and runs
// every violated sliced verdict through the independent witness checker.
//
// The generator is deliberately ground (no closure variables): quantified
// sweeps multiply runtime without exercising any new slicer code path —
// the cone depends only on which relation symbols the leaves mention,
// which the ground pool already varies.

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "verify/ltl_verifier.h"
#include "verify/witness_check.h"

namespace wsv {
namespace {

// Literal values the random atoms draw arguments from: a mix of values
// that occur in the gallery databases (so some leaves are sometimes
// true) and values that occur nowhere (leaves that are always false).
const char* const kValues[] = {"alice", "pw", "laptop", "p1",
                               "100",   "go", "nosuch"};

// One random ground atom: a page proposition, or a state/database
// relation applied to random literals.
std::string RandomAtom(std::mt19937_64& rng, const Vocabulary& vocab) {
  std::vector<const RelationSymbol*> pool;
  for (const RelationSymbol& r : vocab.relations()) {
    if (r.kind == SymbolKind::kPage || r.kind == SymbolKind::kState ||
        r.kind == SymbolKind::kDatabase) {
      pool.push_back(&r);
    }
  }
  const RelationSymbol& r = *pool[rng() % pool.size()];
  if (r.arity == 0) return r.name;
  std::string atom = r.name + "(";
  for (int i = 0; i < r.arity; ++i) {
    if (i > 0) atom += ", ";
    atom += "\"";
    atom += kValues[rng() % (sizeof(kValues) / sizeof(kValues[0]))];
    atom += "\"";
  }
  atom += ")";
  return atom;
}

// Depth-bounded random LTL formula over ground atoms.
std::string RandomProperty(std::mt19937_64& rng, const Vocabulary& vocab,
                           int depth) {
  if (depth <= 0) return RandomAtom(rng, vocab);
  switch (rng() % 8) {
    case 0:
      return "!(" + RandomProperty(rng, vocab, depth - 1) + ")";
    case 1:
      return "G(" + RandomProperty(rng, vocab, depth - 1) + ")";
    case 2:
      return "F(" + RandomProperty(rng, vocab, depth - 1) + ")";
    case 3:
      return "X(" + RandomProperty(rng, vocab, depth - 1) + ")";
    case 4:
      return "(" + RandomProperty(rng, vocab, depth - 1) + " & " +
             RandomProperty(rng, vocab, depth - 1) + ")";
    case 5:
      return "(" + RandomProperty(rng, vocab, depth - 1) + " | " +
             RandomProperty(rng, vocab, depth - 1) + ")";
    case 6:
      return "(" + RandomProperty(rng, vocab, depth - 1) + " U " +
             RandomProperty(rng, vocab, depth - 1) + ")";
    default:
      return RandomAtom(rng, vocab);
  }
}

struct Fixture {
  const char* name;
  WebService service;
  Instance db;
  LtlVerifyOptions options;
  // Enumeration bounds of the fixture's Verify comparisons; unset where
  // even the smallest enumeration is too slow for a fuzz corpus (the
  // empty e-commerce database alone costs more than the rest of this
  // suite).
  std::optional<DbEnumOptions> sweep_db;
};

std::vector<Fixture> BuildFixtures() {
  std::vector<Fixture> fixtures;
  {
    Fixture f;
    f.name = "ecommerce";
    f.service = std::move(BuildEcommerceService()).value();
    f.db = EcommerceSmallDatabase();
    f.options.graph.constant_pool = {Value::Intern("alice"),
                                     Value::Intern("pw")};
    fixtures.push_back(std::move(f));
  }
  {
    Fixture f;
    f.name = "login";
    f.service = std::move(BuildLoginService()).value();
    f.db = LoginDatabase();
    f.sweep_db.emplace();
    f.sweep_db->fresh_values = 0;
    f.sweep_db->max_tuples_per_relation = 1;
    fixtures.push_back(std::move(f));
  }
  {
    Fixture f;
    f.name = "paper-clear-loop";
    f.service = std::move(BuildPaperClearLoopService()).value();
    f.db = LoginDatabase();
    f.sweep_db.emplace();
    f.sweep_db->fresh_values = 0;
    f.sweep_db->max_tuples_per_relation = 1;
    fixtures.push_back(std::move(f));
  }
  for (Fixture& f : fixtures) {
    // Random ground properties are rarely input-bounded; the bounded
    // search is run regardless, and verdict identity is what's under
    // test.
    f.options.require_input_bounded = false;
  }
  return fixtures;
}

// One sliced result against the unsliced serial one: same verdict, same
// databases_checked and completeness, and the byte-identical
// counterexample, which the independent witness checker also accepts.
void ExpectSameOutcome(const Fixture& f, const TemporalProperty& property,
                       const StatusOr<LtlVerifyResult>& sliced,
                       const LtlVerifyResult& unsliced,
                       const std::string& what) {
  ASSERT_TRUE(sliced.ok()) << what << ": " << sliced.status().message();
  EXPECT_EQ(sliced->holds, unsliced.holds) << what;
  EXPECT_EQ(sliced->databases_checked, unsliced.databases_checked) << what;
  EXPECT_EQ(sliced->complete_within_bounds, unsliced.complete_within_bounds)
      << what;
  ASSERT_EQ(sliced->counterexample.has_value(),
            unsliced.counterexample.has_value())
      << what;
  if (sliced->counterexample.has_value()) {
    // Lowest-index-wins witness selection must be slicing-invariant:
    // the full-spec re-check resumes from the sliced lasso marker, so
    // the two runs must surface the byte-identical counterexample.
    EXPECT_EQ(sliced->counterexample->ToString(),
              unsliced.counterexample->ToString())
        << what;
    EXPECT_TRUE(
        ValidateWitness(f.service, property, *sliced->counterexample).ok())
        << what;
  }
}

LtlVerifyOptions Unsliced(LtlVerifyOptions options) {
  options.enable_slice = false;
  return options;
}

// The core oracle: one property, one service, sliced vs unsliced. The
// sliced side runs inline and at jobs = 4, where VerifyOnDatabase chunks
// both phases' valuation ranges across the pool.
void ExpectSlicedRunIdentical(const Fixture& f,
                              const TemporalProperty& property,
                              const std::string& text) {
  auto unsliced = LtlVerifier(&f.service, Unsliced(f.options))
                      .VerifyOnDatabase(property, f.db);
  ASSERT_TRUE(unsliced.ok()) << text << ": " << unsliced.status().message();
  for (int jobs : {1, 4}) {
    ExpectSameOutcome(
        f, property,
        LtlVerifier(&f.service, f.options, jobs).VerifyOnDatabase(property,
                                                                  f.db),
        *unsliced,
        std::string(f.name) + ": " + text + " (jobs " +
            std::to_string(jobs) + ")");
  }
}

// The same oracle over enumerated databases: Verify at jobs = 4 runs
// each database's two-phase check as its own pool task, over the
// fixture's small enumeration.
void ExpectSlicedSweepIdentical(const Fixture& f,
                                const TemporalProperty& property,
                                const std::string& text) {
  LtlVerifyOptions options = f.options;
  options.db = *f.sweep_db;
  auto unsliced = LtlVerifier(&f.service, Unsliced(options)).Verify(property);
  ASSERT_TRUE(unsliced.ok()) << text << ": " << unsliced.status().message();
  ExpectSameOutcome(f, property,
                    LtlVerifier(&f.service, options, 4).Verify(property),
                    *unsliced,
                    std::string(f.name) + ": " + text + " (Verify, jobs 4)");
}

TEST(SliceFuzz, RandomPropertiesVerdictAndWitnessIdentical) {
  constexpr int kPropertiesPerService = 40;
  std::vector<Fixture> fixtures = BuildFixtures();
  int violated = 0;
  int holds = 0;
  for (size_t s = 0; s < fixtures.size(); ++s) {
    const Fixture& f = fixtures[s];
    for (int i = 0; i < kPropertiesPerService; ++i) {
      std::mt19937_64 rng(0x51CE0000u + 1000 * s + i);
      const std::string text =
          RandomProperty(rng, f.service.vocab(), /*depth=*/3);
      auto prop = ParseTemporalProperty(text, &f.service.vocab());
      ASSERT_TRUE(prop.ok()) << text << ": " << prop.status().message();
      SCOPED_TRACE(std::string(f.name) + ": " + text);
      ExpectSlicedRunIdentical(f, *prop, text);
      if (f.sweep_db.has_value()) {
        ExpectSlicedSweepIdentical(f, *prop, text);
      }
      LtlVerifier verifier(&f.service, f.options);
      auto r = verifier.VerifyOnDatabase(*prop, f.db);
      if (r.ok()) (r->holds ? holds : violated)++;
    }
  }
  // The generator must exercise both phases of the two-phase check: the
  // sliced probe alone (HOLDS) and the full-spec re-run from the lasso
  // marker (VIOLATED). A degenerate corpus would vacuously pass.
  EXPECT_GE(violated, 5);
  EXPECT_GE(holds, 5);
}

// The gallery properties the benchmarks track, pinned here as
// deterministic regression anchors (the fuzz corpus drifts whenever the
// generator changes; these never do).
TEST(SliceFuzz, GalleryPropertiesVerdictIdentical) {
  std::vector<Fixture> fixtures = BuildFixtures();
  const Fixture& ecommerce = fixtures[0];
  const Fixture& login = fixtures[1];
  for (const char* text :
       {"G(!PIP) | F(PIP & F(CC))", "G(!error(\"no such page\"))"}) {
    auto prop = ParseTemporalProperty(text, &ecommerce.service.vocab());
    ASSERT_TRUE(prop.ok()) << text;
    ExpectSlicedRunIdentical(ecommerce, *prop, text);
  }
  for (const char* text : {"G(!CP | logged_in)", "F(BYE) | G(!BYE)"}) {
    auto prop = ParseTemporalProperty(text, &login.service.vocab());
    ASSERT_TRUE(prop.ok()) << text;
    ExpectSlicedRunIdentical(login, *prop, text);
  }
}

// Quantified sweep: universally closed properties keep the
// multi-valuation path (per-valuation probe markers, lowest-index
// selection across valuations) under differential coverage, over the
// fixed e-commerce database and over the enumerated login databases.
TEST(SliceFuzz, QuantifiedClosureSweepIdentical) {
  std::vector<Fixture> fixtures = BuildFixtures();
  Fixture& ecommerce = fixtures[0];
  ecommerce.options.closure_candidates = {Value::Intern("p1"),
                                          Value::Intern("100"),
                                          Value::Intern("alice")};
  const char* text =
      "forall pid . (G(!cart(pid, \"100\")) | F(prod_prices(pid, \"100\")))";
  auto prop = ParseTemporalProperty(text, &ecommerce.service.vocab());
  ASSERT_TRUE(prop.ok()) << prop.status().message();
  ExpectSlicedRunIdentical(ecommerce, *prop, text);

  const Fixture& login = fixtures[1];
  // The button properties are violated at several valuations, in
  // several chunks at jobs = 4: the lowest must win in both phases.
  for (const char* login_text :
       {"forall m . G(!error(m))", "forall m . (G(!error(m)) | F(BYE))",
        "forall x . G(!button(x))",
        "forall x . G(!button(x) | x = \"login\")"}) {
    auto login_prop = ParseTemporalProperty(login_text, &login.service.vocab());
    ASSERT_TRUE(login_prop.ok()) << login_prop.status().message();
    ExpectSlicedRunIdentical(login, *login_prop, login_text);
    ExpectSlicedSweepIdentical(login, *login_prop, login_text);
  }
}

}  // namespace
}  // namespace wsv
