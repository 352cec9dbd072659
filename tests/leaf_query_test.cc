// Set-at-a-time FO leaf evaluation (`ctest -L otf`; DESIGN.md §6f).
//
// The on-the-fly sweep runs every closure-dependent leaf once per edge
// as a query over its free closure variables and reads each binding's
// truth out of the answer; bindings whose values extend the active
// domain of a quantified leaf fall back to per-binding evaluation. Both
// must be invisible in the results. Each seeded quantified property is
// checked on three gallery services against
//   - the reference checker (reference_checker.h), which evaluates every
//     binding separately (the oracle): same verdict, both witnesses
//     replay, and — where the two checkers' lassos agree on
//     faithfulness, see kReferenceValuation — the same witness
//     valuation, i.e. the same lowest violating index;
//   - the on-the-fly sweep with every leaf forced onto per-binding
//     evaluation (a repeated closure candidate disables the tables,
//     since answers map back to bindings by value): same verdict and
//     byte-identical witness, because the lazy graph grows identically;
//   - jobs=4: byte-identical witness.
// Plus a service whose input constant arrives late (condition (a) on
// complemented leaves), and the counter budget of the Property 4
// family: at most two queries per discovered edge per leaf, and no
// per-binding evaluation at all.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "obs/metrics.h"
#include "reference_checker.h"
#include "verify/ltl_verifier.h"
#include "verify/witness_check.h"
#include "ws/spec_parser.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

uint64_t Counter(const char* name) {
  return obs::SnapshotMetrics().CounterValue(name);
}

std::string Witness(const LtlVerifyResult& r) {
  return r.counterexample.has_value() ? r.counterexample->ToString() : "";
}

// Work counters summed over the whole fuzz, so the suite can prove both
// evaluation paths actually ran.
struct PathCounts {
  uint64_t queries = 0;
  uint64_t fallbacks = 0;
};

// Whether the fuzz compares the witness valuation with the reference
// oracle's. Both checkers keep one lasso per valuation (class) and skip
// a valuation whose value is missing from that lasso's domain, so when
// a service admits lassos with different domains (the clear loop
// re-asks for the input constants) the DFS and SCC searches can settle
// on different lowest faithful valuations. That divergence predates the
// leaf tables — the per-binding on-the-fly oracle, which reproduces the
// earlier sweep exactly, matches the set-at-a-time witness byte for
// byte — so such services check the valuation against that oracle only.
enum ReferenceValuation { kReferenceValuation, kNoReferenceValuation };

void ExpectSetAtATimeExact(const WebService& service,
                           const TemporalProperty& property,
                           const Instance& db, const LtlVerifyOptions& base,
                           ReferenceValuation ref_valuation,
                           const std::string& what, PathCounts* counts) {
  LtlVerifyOptions options = base;
  options.closure_candidates =
      ResolveClosureCandidates(service, property, db, base);
  ASSERT_FALSE(options.closure_candidates.empty()) << what;

  obs::ResetMetrics();
  auto otf = LtlVerifier(&service, options).VerifyOnDatabase(property, db);
  counts->queries += Counter("ltl/fo_leaf_queries");
  counts->fallbacks += Counter("ltl/fo_leaf_fallbacks");

  auto ref = ReferenceVerifyOnDatabase(service, property, db, options);

  LtlVerifyOptions per_binding_opts = options;
  per_binding_opts.closure_candidates.push_back(
      options.closure_candidates.front());
  obs::ResetMetrics();
  auto per_binding =
      LtlVerifier(&service, per_binding_opts).VerifyOnDatabase(property, db);
  EXPECT_EQ(Counter("ltl/fo_leaf_queries"), 0u) << what;

  auto jobs4 =
      LtlVerifier(&service, options, 4).VerifyOnDatabase(property, db);

  ASSERT_EQ(otf.ok(), ref.ok())
      << what << ": otf=" << otf.status().ToString()
      << " reference=" << ref.status().ToString();
  if (!otf.ok()) return;
  for (const auto* r : {&per_binding, &jobs4}) {
    ASSERT_TRUE(r->ok()) << what << ": " << r->status().ToString();
  }
  EXPECT_EQ(otf->holds, ref->holds) << what;
  EXPECT_EQ(otf->complete_within_bounds, ref->complete_within_bounds)
      << what;
  for (const auto* r : {&per_binding, &jobs4}) {
    EXPECT_EQ((*r)->holds, otf->holds) << what;
    EXPECT_EQ(Witness(**r), Witness(*otf)) << what;
  }
  if (otf->holds || ref->holds) return;
  ASSERT_TRUE(otf->counterexample.has_value()) << what;
  ASSERT_TRUE(ref->counterexample.has_value()) << what;
  // The reference search may close a different lasso, but (see
  // ReferenceValuation) not at another valuation: lowest index wins in
  // both.
  if (ref_valuation == kReferenceValuation) {
    EXPECT_EQ(otf->counterexample->valuation, ref->counterexample->valuation)
        << what;
  }
  Status witness = ValidateWitness(service, property, *otf->counterexample);
  EXPECT_TRUE(witness.ok()) << what << ": " << witness.ToString();
  Status ref_witness = ValidateWitness(service, property, *ref->counterexample);
  EXPECT_TRUE(ref_witness.ok()) << what << ": " << ref_witness.ToString();
}

// FO leaf templates over the closure variables $a and $b ($b = $a for
// one-variable properties): quantifier-free leaves with negation,
// equality, disjunction and literals outside the database, and guarded
// `exists` leaves whose truth can depend on the active domain.
struct FuzzVocab {
  std::vector<const char*> props;   // closure-free atoms
  std::vector<const char*> leaves;  // closure-dependent FO leaves
};

std::string Instantiate(std::string tmpl, const std::string& a,
                        const std::string& b) {
  for (size_t p = tmpl.find("$a"); p != std::string::npos;
       p = tmpl.find("$a")) {
    tmpl.replace(p, 2, a);
  }
  for (size_t p = tmpl.find("$b"); p != std::string::npos;
       p = tmpl.find("$b")) {
    tmpl.replace(p, 2, b);
  }
  return tmpl;
}

// Seeded quantified properties (no wall-clock APIs): a random temporal
// skeleton over the vocabulary, closed by `forall x` or `forall x, y`.
// Every property mentions at least one closure-dependent leaf.
std::vector<std::string> SeededProperties(uint32_t seed, int count,
                                          const FuzzVocab& vocab) {
  std::mt19937 rng(seed);
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(
        std::uniform_int_distribution<int>(0, static_cast<int>(n) - 1)(rng));
  };
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    const bool two = pick(2) == 1;
    const std::string a = "x";
    const std::string b = two ? "y" : "x";
    auto leaf = [&]() {
      std::string l = Instantiate(vocab.leaves[pick(vocab.leaves.size())],
                                  two && pick(2) == 1 ? b : a,
                                  two ? (pick(2) == 1 ? a : b) : a);
      return l;
    };
    // NOLINTNEXTLINE(misc-no-recursion)
    auto gen = [&](auto&& self, int depth) -> std::string {
      if (depth == 0 || pick(4) == 0) {
        return pick(3) == 0 ? vocab.props[pick(vocab.props.size())] : leaf();
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
    std::string body = gen(gen, 3);
    // Guarantee a closure-dependent leaf under a temporal operator.
    body = (pick(2) == 0 ? "G(" : "F(") + leaf() + ") | " + body;
    out.push_back(std::string("forall ") + (two ? "x, y" : "x") + " . (" +
                  body + ")");
  }
  return out;
}

PathCounts FuzzService(const WebService& service, const Instance& db,
                       const LtlVerifyOptions& options,
                       ReferenceValuation ref_valuation, uint32_t seed,
                       int count, const FuzzVocab& vocab,
                       const std::string& label) {
  PathCounts counts;
  for (const std::string& text : SeededProperties(seed, count, vocab)) {
    SCOPED_TRACE(label + ": " + text);
    auto p = ParseTemporalProperty(text, &service.vocab());
    EXPECT_TRUE(p.ok()) << text << ": " << p.status().ToString();
    if (!p.ok()) continue;
    ExpectSetAtATimeExact(service, *p, db, options, ref_valuation,
                          label + ": " + text, &counts);
  }
  return counts;
}

// --- differential fuzz over the gallery ---------------------------------

constexpr int kPropertiesPerService = 40;

TEST(LeafQueryFuzz, LoginAgreesWithPerBindingOracle) {
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  // u0 and zz1 are outside the database: bindings to them extend the
  // domain of the `exists` leaves, which must fall back.
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0"), V("zz1")};
  options.require_input_bounded = false;
  FuzzVocab vocab;
  vocab.props = {"HP", "MP", "CP", "BYE", "logged_in"};
  vocab.leaves = {
      "error($a)",
      "!error($a)",
      "button($a)",
      "(button($a) | error($b))",
      "$a = \"login\"",
      "$a = $b",
      "$a != \"zz9\"",
      "(user($a, $b) & !logged_in)",
      "(error($a) & $a = name)",
      "!(error($a) & $a = name)",
      "!(button($a) & $b = \"quit\")",
      "(exists z . (button(z) & z = $a))",
      "(exists z . user($a, z))",
      "(exists z . (error(z) & z != $a))",
      "!(exists z . (user(z, $b) & button(\"login\")))",
  };
  PathCounts c = FuzzService(*ws, LoginDatabase(), options,
                             kReferenceValuation, 20261017u,
                             kPropertiesPerService, vocab, "login");
  EXPECT_GT(c.queries, 0u);
  EXPECT_GT(c.fallbacks, 0u);
}

TEST(LeafQueryFuzz, PaperClearLoopAgreesWithPerBindingOracle) {
  auto ws = BuildPaperClearLoopService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  options.require_input_bounded = false;
  FuzzVocab vocab;
  vocab.props = {"HP", "MP", "CP", "logged_in"};
  vocab.leaves = {
      "error($a)",
      "!error($a)",
      "(button($a) | $b = \"clear\")",
      "!($a = $b)",
      "($a = password & !button(\"clear\"))",
      "!(user($a, $b) & $b = password)",
      "(user($b, $a) | !button($a))",
      "(exists z . (button(z) & z != $a))",
      "(exists z . user(z, $b))",
      "!(exists z . (error(z) & z = $a))",
  };
  PathCounts c = FuzzService(*ws, LoginDatabase(), options,
                             kNoReferenceValuation, 20261018u,
                             kPropertiesPerService, vocab, "clear-loop");
  EXPECT_GT(c.queries, 0u);
  EXPECT_GT(c.fallbacks, 0u);
}

TEST(LeafQueryFuzz, CatalogSearchAgreesWithPerBindingOracle) {
  auto ws = BuildInputDrivenSearchService(CatalogSearchSpec());
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  LtlVerifyOptions options;
  options.require_input_bounded = false;
  FuzzVocab vocab;
  vocab.props = {"Browse", "new_sel", "I(\"products\")"};
  vocab.leaves = {
      "I($a)",
      "!I($a)",
      "(I($a) | newDesktop($b))",
      "$a = \"new\"",
      "($a = $b & !new_sel)",
      "$a != \"zz9\"",
      "RI($a, $b)",
      "(exists z . RI(z, $a))",
      "(exists z . (I(z) & RI(z, $a)))",
      "!(exists z . (RI($b, z) & I(z)))",
      "(exists z . (I(z) & z != $a))",
  };
  PathCounts c = FuzzService(*ws, CatalogSearchDatabase(), options,
                             kReferenceValuation, 20261019u,
                             kPropertiesPerService, vocab, "catalog");
  EXPECT_GT(c.queries, 0u);
  EXPECT_GT(c.fallbacks, 0u);
}

TEST(LeafQueryFuzz, UnprovidedInputConstantKeepsLeafFalse) {
  // `code` is requested only on the second page, so on every edge out of
  // Start a leaf naming it is false at every binding (condition (a)) —
  // also when the table stores the answer of the leaf's negation, as it
  // does for the automaton leaf !R(x) | x != code that the negated
  // property turns R(x) & x = code into.
  auto ws = ParseServiceSpec(R"wsv(
service LateConstant;
database R(v);
input code const;
input button(label);
page Start {
  options button(x) :- x = "go" | x = "stay";
  target Form :- button("go");
}
page Form {
  input code;
  options button(x) :- x = "back";
  target Start :- button("back");
}
home Start;
error ERR;
)wsv");
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db;
  ASSERT_TRUE(db.AddFact("R", {V("r1")}).ok());
  ASSERT_TRUE(db.AddFact("R", {V("r2")}).ok());
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("r1"), V("u0")};
  options.require_input_bounded = false;
  PathCounts counts;
  for (const char* text : {
           "forall x . G(!(R(x) & x = code))",
           "forall x . G(Start | (R(x) & x = code))",
           "forall x . F(R(x) & x = code)",
           "forall x . (G(Start) | F(Form & (R(x) & x = code)))",
           "forall x, y . G(Start | (R(x) & x = code) | (R(y) & y != code))",
       }) {
    SCOPED_TRACE(text);
    auto p = ParseTemporalProperty(text, &ws->vocab());
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    ExpectSetAtATimeExact(*ws, *p, db, options, kReferenceValuation, text,
                          &counts);
  }
  EXPECT_GT(counts.queries, 0u);
}

// --- counter budget (the e-commerce running example) --------------------

// Runs `text` on the small e-commerce fixture and returns the request's
// counter snapshot.
obs::MetricsSnapshot RunEcommerce(const std::string& text,
                                  const LtlVerifyOptions& options,
                                  bool expect_holds) {
  auto ws = BuildEcommerceService();
  EXPECT_TRUE(ws.ok()) << ws.status().ToString();
  auto p = ParseTemporalProperty(text, &ws->vocab());
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  obs::ResetMetrics();
  auto r = LtlVerifier(&*ws, options)
               .VerifyOnDatabase(*p, EcommerceSmallDatabase());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) {
    EXPECT_EQ(r->holds, expect_holds) << text;
  }
  return obs::SnapshotMetrics();
}

void ExpectQueryBudget(const obs::MetricsSnapshot& snap) {
  const uint64_t queries = snap.CounterValue("ltl/fo_leaf_queries");
  const uint64_t edges = snap.CounterValue("config_graph/edges");
  const uint64_t leaves = snap.CounterValue("automata/fo_leaves");
  EXPECT_GT(queries, 0u);
  EXPECT_LE(queries, 2 * edges * leaves)
      << "edges=" << edges << " leaves=" << leaves;
  EXPECT_EQ(snap.CounterValue("ltl/fo_leaf_evals"), 0u);
  EXPECT_EQ(snap.CounterValue("ltl/fo_leaf_fallbacks"), 0u);
}

TEST(LeafQueryBudget, EcommercePayBeforeShipQueriesOncePerEdgeAndLeaf) {
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  ExpectQueryBudget(RunEcommerce(
      "forall pid, price . ((UPP & payamount(price) & button(\"submit\") "
      "& pick(pid, price) & prod_prices(pid, price)) "
      "B !(conf(name, price) & ship(name, pid)))",
      options, /*expect_holds=*/true));
}

TEST(LeafQueryBudget, EcommerceShippedIsPaidQueriesOncePerEdgeAndLeaf) {
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  ExpectQueryBudget(RunEcommerce(
      "forall pid . G(!shipped(pid) | paid(pid, \"100\"))", options,
      /*expect_holds=*/true));
}

TEST(LeafQueryBudget, GuardedExistsOverDatabaseValuesNeverFallsBack) {
  // A quantified leaf only falls back for bindings that extend the
  // active domain. With every candidate a database value, none does.
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  options.closure_candidates = {V("p1"), V("100"), V("alice")};
  ExpectQueryBudget(RunEcommerce(
      "forall pid . G(!shipped(pid) | (exists pr . paid(pid, pr)))", options,
      /*expect_holds=*/true));
}

}  // namespace
}  // namespace wsv
