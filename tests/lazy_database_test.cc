// Database facts decided during the search (DESIGN.md §6j) against the
// enumeration they replace.
//
// LtlVerifier::Verify checks every database within the bounds as one
// configuration graph whose nodes decide the database as runs probe it.
// The oracle here is the per-database loop that graph replaced: the
// test-only reference checker (tests/reference_checker.h) run on each
// database EnumerateDatabases visits. The verdicts must agree, a
// VIOLATED witness must replay through ValidateWitness, and the
// reference checker must find a violation on the witness's own
// database. Both sides also agree across job counts and slicing.
//
// CheckErrorFree searches the same kind of graph, without property
// leaves, for an edge into the error page. Its oracle is
// CheckErrorFreeOnDatabase on each enumerated database; an error
// witness must replay through ValidateErrorWitness and name a database
// on which that oracle finds an error.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "reductions/qbf.h"
#include "reference_checker.h"
#include "verify/db_enum.h"
#include "verify/error_free.h"
#include "verify/ltl_verifier.h"
#include "verify/witness_check.h"
#include "ws/spec_parser.h"

namespace wsv {
namespace {

// A catalog whose options scan a database relation, and whose rules
// read a database constant: offering the picks decides the whole `item`
// relation, and a pick decides `featured`.
constexpr char kCatalogSpec[] = R"wsv(
service Catalog;

database item(id);
constant featured;
state chosen(id);
state hit;
input pick(id);

page HP {
  options pick(x) :- item(x);
  state +chosen(x) :- pick(x);
  state +hit :- pick(featured);
  target DONE :- exists x . pick(x);
}

page DONE {
}

home HP;
error ERR;
)wsv";

struct Case {
  std::string name;
  WebService service;
  LtlVerifyOptions options;
  std::vector<std::string> properties;
};

LtlVerifyOptions Bounds(int fresh, int max_tuples) {
  LtlVerifyOptions options;
  options.db.fresh_values = fresh;
  options.db.max_tuples_per_relation = max_tuples;
  options.require_input_bounded = false;
  return options;
}

const std::vector<std::string>& LoginProperties() {
  static const std::vector<std::string> kProps = {
      "G(!CP | logged_in)",
      "G(!CP)",
      "G(!MP)",
      "F(BYE) | G(!BYE)",
      "G(!error(\"failed login\"))",
      "G(!CP | F(BYE))",
      "G(!logged_in | !MP)",
      "G(!HP | X(!HP))",
      "F(BYE | MP)",
      // Leaves naming the database relation.
      "G(!user(\"alice\", \"pw\"))",
      "G(!MP | !user(\"alice\", \"pw\"))",
      "G(!CP | user(\"alice\", \"pw\") | user(\"d0\", \"d0\") | !logged_in)",
  };
  return kProps;
}

std::vector<Case> Cases() {
  std::vector<Case> cases;
  for (int bound : {1, 2}) {
    Case c;
    c.name = "login fresh " + std::to_string(bound);
    c.service = std::move(BuildLoginService()).value();
    c.options = Bounds(bound, bound);
    c.properties = LoginProperties();
    cases.push_back(std::move(c));
  }
  // The sweep_db fixtures of slice_test.
  {
    Case c;
    c.name = "login sweep_db";
    c.service = std::move(BuildLoginService()).value();
    c.options = Bounds(0, 1);
    c.properties = LoginProperties();
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.name = "paper-clear-loop sweep_db";
    c.service = std::move(BuildPaperClearLoopService()).value();
    c.options = Bounds(0, 1);
    c.properties = {
        "G(!ERR)",
        "G(!CP | logged_in)",
        "G(!CP)",
        "G(!MP)",
        "F(CP | MP | ERR)",
        "G(!logged_in | CP)",
        "G(!ERR | F(CP))",
        "X(ERR) | X(CP) | X(MP)",
        "G(HP | CP | MP | ERR)",
        "G(!user(\"alice\", \"pw\"))",
        "G(!CP | user(\"alice\", \"pw\") | !user(\"alice\", \"pw\"))",
        "G(!CP | exists u . user(u, \"pw\"))",
        "G(!MP | !(exists u . user(u, u)))",
    };
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.name = "catalog";
    c.service = std::move(ParseServiceSpec(kCatalogSpec)).value();
    c.options = Bounds(2, 2);
    c.properties = {
        "G(!DONE)",
        "G(!chosen(\"a\"))",
        "G(!chosen(\"b\"))",
        "G(!chosen(\"a\") | item(\"a\"))",
        "G(!DONE | F(DONE))",
        "F(DONE)",
        "G(HP | DONE)",
        "G(!item(\"a\"))",
        "G(!item(\"a\") | !item(\"b\"))",
        "G(!chosen(\"a\") | !item(\"b\") | X(chosen(\"a\")))",
        "G(!DONE | !item(\"a\") | chosen(\"a\") | chosen(\"b\"))",
        // Leaves that read a relation or a constant whole.
        "G(!DONE | exists x . item(x))",
        "G(!hit)",
        "G(!hit | chosen(featured))",
        "G(!chosen(featured))",
    };
    cases.push_back(std::move(c));
  }
  return cases;
}

// The enumeration Verify replaced: the reference checker on every
// database the enumerator visits. Returns whether the property holds on
// all of them.
bool HoldsOnEveryDatabase(const Case& c, const TemporalProperty& property) {
  DbEnumOptions db = c.options.db;
  for (Value v : property.formula->Literals()) db.base_values.push_back(v);
  bool holds = true;
  auto done = EnumerateDatabases(
      c.service, db, [&](const Instance& database) -> StatusOr<bool> {
        WSV_ASSIGN_OR_RETURN(
            LtlVerifyResult r,
            ReferenceVerifyOnDatabase(c.service, property, database,
                                      c.options));
        holds = r.holds;
        return !holds;
      });
  EXPECT_TRUE(done.ok()) << done.status().ToString();
  return holds;
}

// Runs every case against the per-database reference; both verdicts
// must be exercised, or the comparison says little.
TEST(LazyDatabase, VerdictsMatchThePerDatabaseReference) {
  int holds = 0;
  int violated = 0;
  for (const Case& c : Cases()) {
    for (const std::string& text : c.properties) {
      SCOPED_TRACE(c.name + ": " + text);
      auto property = ParseTemporalProperty(text, &c.service.vocab());
      ASSERT_TRUE(property.ok()) << property.status().ToString();
      auto lazy = LtlVerifier(&c.service, c.options).Verify(*property);
      ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
      const bool want = HoldsOnEveryDatabase(c, *property);
      ASSERT_EQ(lazy->holds, want);
      (want ? holds : violated)++;

      DbEnumOptions db = c.options.db;
      for (Value v : property->formula->Literals()) {
        db.base_values.push_back(v);
      }
      if (lazy->holds) {
        EXPECT_EQ(lazy->databases_checked, CountDatabases(c.service, db));
        continue;
      }
      EXPECT_EQ(lazy->databases_checked, 1u);
      ASSERT_TRUE(lazy->counterexample.has_value());
      const CounterExample& cex = *lazy->counterexample;
      Status witness = ValidateWitness(c.service, *property, cex);
      EXPECT_TRUE(witness.ok()) << witness.ToString();
      auto on_witness_db = ReferenceVerifyOnDatabase(
          c.service, *property, cex.database, c.options);
      ASSERT_TRUE(on_witness_db.ok()) << on_witness_db.status().ToString();
      EXPECT_FALSE(on_witness_db->holds) << cex.ToString();
    }
  }
  EXPECT_GE(holds, 10);
  EXPECT_GE(violated, 10);
}

// The verdict, the witness text and databases_checked do not depend on
// the job count or on slicing.
TEST(LazyDatabase, OutcomeIndependentOfJobsAndSlicing) {
  for (const Case& c : Cases()) {
    for (const std::string& text : c.properties) {
      SCOPED_TRACE(c.name + ": " + text);
      auto property = ParseTemporalProperty(text, &c.service.vocab());
      ASSERT_TRUE(property.ok()) << property.status().ToString();
      auto serial = LtlVerifier(&c.service, c.options).Verify(*property);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      const std::string want =
          serial->counterexample.has_value()
              ? serial->counterexample->ToString()
              : "";
      LtlVerifyOptions unsliced = c.options;
      unsliced.enable_slice = false;
      for (const auto& [options, jobs] :
           std::vector<std::pair<LtlVerifyOptions, int>>{
               {c.options, 4}, {unsliced, 1}, {unsliced, 2}}) {
        auto other = LtlVerifier(&c.service, options, jobs).Verify(*property);
        ASSERT_TRUE(other.ok()) << other.status().ToString();
        EXPECT_EQ(other->holds, serial->holds);
        EXPECT_EQ(other->databases_checked, serial->databases_checked);
        EXPECT_EQ(other->counterexample.has_value()
                      ? other->counterexample->ToString()
                      : "",
                  want);
      }
    }
  }
}

// The no-database sweep expands one graph and enumerates nothing.
TEST(LazyDatabase, LoginFreshTwoIsOneSmallGraph) {
  WebService service = std::move(BuildLoginService()).value();
  LtlVerifyOptions options;
  options.db.fresh_values = 2;
  auto property = ParseTemporalProperty("G(!CP | logged_in)", &service.vocab());
  ASSERT_TRUE(property.ok());
  auto r = LtlVerifier(&service, options).Verify(*property);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->holds);
  // 407 databases up to symmetry, 667 without it.
  EXPECT_EQ(r->databases_checked, 667u);
  // The per-database graphs expanded 41,079 nodes.
  EXPECT_LE(r->total_graph_nodes, 4108u);
}

struct ErrorCase {
  std::string name;
  WebService service;
  ErrorFreeOptions options;
};

ErrorFreeOptions ErrorBounds(int fresh, int max_tuples) {
  ErrorFreeOptions options;
  options.db.fresh_values = fresh;
  options.db.max_tuples_per_relation = max_tuples;
  return options;
}

std::vector<ErrorCase> ErrorCases() {
  std::vector<ErrorCase> cases;
  // wsvcli check-errors' bounds: --fresh N, two tuples per relation.
  for (int fresh : {1, 2}) {
    cases.push_back({"login fresh " + std::to_string(fresh),
                     std::move(BuildLoginService()).value(),
                     ErrorBounds(fresh, 2)});
  }
  cases.push_back({"login sweep_db", std::move(BuildLoginService()).value(),
                   ErrorBounds(0, 1)});
  cases.push_back({"paper-clear-loop sweep_db",
                   std::move(BuildPaperClearLoopService()).value(),
                   ErrorBounds(0, 1)});
  cases.push_back({"catalog", std::move(ParseServiceSpec(kCatalogSpec)).value(),
                   ErrorBounds(2, 2)});
  // consistency_test's QBF services (Lemma A.6: an error iff true).
  const std::vector<QbfPtr> formulas{
      Qbf::Exists("x", Qbf::Var("x")),
      Qbf::Forall("x", Qbf::Var("x")),
      Qbf::Exists("x", Qbf::Forall("y", Qbf::Or(Qbf::Not(Qbf::Var("x")),
                                                Qbf::Var("y")))),
      Qbf::Forall("x", Qbf::Exists("y", Qbf::And(Qbf::Var("y"),
                                                 Qbf::Not(Qbf::Var("x"))))),
  };
  for (const QbfPtr& f : formulas) {
    cases.push_back({"qbf " + f->ToString(),
                     std::move(BuildQbfService(*f)).value(),
                     ErrorBounds(0, 2)});
  }
  return cases;
}

// The enumeration CheckErrorFree replaced: CheckErrorFreeOnDatabase on
// every database the enumerator visits.
bool ErrorFreeOnEveryDatabase(const ErrorCase& c) {
  bool error_free = true;
  auto done = EnumerateDatabases(
      c.service, c.options.db, [&](const Instance& database) -> StatusOr<bool> {
        WSV_ASSIGN_OR_RETURN(
            ErrorFreeResult r,
            CheckErrorFreeOnDatabase(c.service, database, c.options));
        error_free = r.error_free;
        return !error_free;
      });
  EXPECT_TRUE(done.ok()) << done.status().ToString();
  return error_free;
}

TEST(LazyDatabase, ErrorFreenessMatchesThePerDatabaseCheck) {
  int error_free = 0;
  int errors = 0;
  for (const ErrorCase& c : ErrorCases()) {
    SCOPED_TRACE(c.name);
    auto lazy = CheckErrorFree(c.service, c.options);
    ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
    EXPECT_TRUE(lazy->complete_within_bounds);
    ASSERT_EQ(lazy->error_free, ErrorFreeOnEveryDatabase(c));
    (lazy->error_free ? error_free : errors)++;
    if (lazy->error_free) {
      EXPECT_EQ(lazy->databases_checked,
                CountDatabases(c.service, c.options.db));
      continue;
    }
    EXPECT_EQ(lazy->databases_checked, 1u);
    ASSERT_TRUE(lazy->witness.has_value());
    const ErrorWitness& witness = *lazy->witness;
    Status replay = ValidateErrorWitness(c.service, witness);
    EXPECT_TRUE(replay.ok()) << replay.ToString() << "\n"
                             << witness.ToString();
    auto on_witness_db =
        CheckErrorFreeOnDatabase(c.service, witness.database, c.options);
    ASSERT_TRUE(on_witness_db.ok()) << on_witness_db.status().ToString();
    ASSERT_FALSE(on_witness_db->error_free) << witness.ToString();
    // Both searches are breadth-first, so both paths are shortest.
    EXPECT_EQ(on_witness_db->witness->path.size(), witness.path.size());
    EXPECT_EQ(on_witness_db->witness->reason, witness.reason);
  }
  EXPECT_GE(error_free, 5);
  EXPECT_GE(errors, 3);
}

// wsvcli check-errors specs/login.wsv --fresh N discovers the graph
// `verify` expands for a property without leaves.
TEST(LazyDatabase, LoginCheckErrorsIsOneSmallGraph) {
  WebService service = std::move(BuildLoginService()).value();
  const std::vector<std::pair<int, uint64_t>> pinned = {
      {1, 148}, {2, 207}, {3, 276}};
  for (const auto& [fresh, nodes] : pinned) {
    SCOPED_TRACE("fresh " + std::to_string(fresh));
    ErrorFreeOptions options;
    options.db.fresh_values = fresh;
    auto r = CheckErrorFree(service, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->error_free);
    EXPECT_TRUE(r->complete_within_bounds);
    EXPECT_EQ(r->total_graph_nodes, nodes);
    EXPECT_EQ(r->databases_checked, CountDatabases(service, options.db));
  }
}

// The validator rejects an error witness with a step dropped or a
// reason changed: the clear-loop service's re-request error (condition
// ii) and a true QBF's ambiguity (condition iii), whose error step
// records no pick.
TEST(LazyDatabase, TamperedErrorWitnessIsRejected) {
  QbfPtr f = Qbf::Exists("x", Qbf::Var("x"));
  std::vector<ErrorCase> cases;
  cases.push_back({"paper-clear-loop",
                   std::move(BuildPaperClearLoopService()).value(),
                   ErrorBounds(0, 1)});
  cases.push_back({"qbf " + f->ToString(),
                   std::move(BuildQbfService(*f)).value(), ErrorBounds(0, 2)});
  for (const auto& [name, service, options] : cases) {
    auto r = CheckErrorFree(service, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->error_free);
    const ErrorWitness& witness = *r->witness;
    SCOPED_TRACE(witness.ToString());
    ASSERT_TRUE(ValidateErrorWitness(service, witness).ok());

    ErrorWitness no_first = witness;
    no_first.path.erase(no_first.path.begin());
    EXPECT_FALSE(ValidateErrorWitness(service, no_first).ok());
    ErrorWitness no_last = witness;
    no_last.path.pop_back();
    EXPECT_FALSE(ValidateErrorWitness(service, no_last).ok());
    ErrorWitness other_reason = witness;
    other_reason.reason += " (edited)";
    EXPECT_FALSE(ValidateErrorWitness(service, other_reason).ok());
  }
}

// A lasso that enters the error page on an ambiguous pick replays too:
// the step records no pick, so the validator finds one.
TEST(LazyDatabase, LassoThroughAnAmbiguousStepReplays) {
  QbfPtr f = Qbf::Exists("x", Qbf::Var("x"));
  WebService service = std::move(BuildQbfService(*f)).value();
  auto property = ParseTemporalProperty("G(!" + service.error_page() + ")",
                                        &service.vocab());
  ASSERT_TRUE(property.ok()) << property.status().ToString();
  auto r = LtlVerifier(&service, Bounds(0, 2)).Verify(*property);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->holds);
  Status witness = ValidateWitness(service, *property, *r->counterexample);
  EXPECT_TRUE(witness.ok()) << witness.ToString() << "\n"
                            << r->counterexample->ToString();
}

TEST(LazyDatabase, CountDatabasesSaturates) {
  WebService service = std::move(BuildLoginService()).value();
  DbEnumOptions db;
  db.fresh_values = 2;
  db.max_tuples_per_relation = 2;
  // 6 domain values, 36 facts: 1 + 36 + 630 subsets.
  EXPECT_EQ(CountDatabases(service, db), 667u);
  db.max_tuples_per_relation = -1;
  EXPECT_EQ(CountDatabases(service, db), uint64_t{1} << 36);
  // 14 values, 196 facts: 2^196 subsets.
  db.fresh_values = 10;
  EXPECT_EQ(CountDatabases(service, db), UINT64_MAX);
  db.max_tuples_per_relation = 20;
  EXPECT_EQ(CountDatabases(service, db), UINT64_MAX);
}

}  // namespace
}  // namespace wsv
