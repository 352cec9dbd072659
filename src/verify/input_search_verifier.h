// Web services with input-driven search (Definition 4.7, Theorem 4.9,
// Example 4.8 / Figure 1).
//
// The class: a single unary input relation I, propositional states
// (including not_start) and actions, a database with a constant i0 and a
// designated binary search relation RI, and input option rules of the
// canonical form
//
//   Options_I(y) :- (!not_start & y = i0)
//                 | (not_start & (exists x . prev.I(x) & RI(x, y))
//                    & phi(y))
//
// where phi is quantifier-free over the database and the propositional
// states. The user walks the RI graph (Figure 1's category hierarchy),
// one node per step.
//
// This module provides: a generator from a declarative spec (used by the
// catalog example and benches), a structural classifier, and the CTL /
// CTL* verifier for the class. Theorem 4.9 decides verification by
// reducing to CTL(*) satisfiability over labels that record the page
// propositions plus the *type* of the current input with respect to the
// unary database relations; our verifier materializes exactly those
// labels as Kripke states per candidate database, and the companion
// bench exercises the CTL-satisfiability tableau (ctl/ctl_sat.h) that
// the reduction targets.
//
// Naming: "search" here is the paper's *input-driven search* service
// class (the user searching a category hierarchy), not graph search.
// The linear-time verifier's accepting-lasso search lives in
// automata/emptiness.h; this module's Kripke model checking goes
// through ctl/ctl_star_check.h, which runs its own accepting-cycle
// reachability over an explicit product.

#ifndef WSV_VERIFY_INPUT_SEARCH_VERIFIER_H_
#define WSV_VERIFY_INPUT_SEARCH_VERIFIER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "ctl/kripke.h"
#include "ltl/ltl.h"
#include "verify/abstraction.h"
#include "verify/db_enum.h"
#include "ws/service.h"

namespace wsv {

/// Declarative description of one page of an input-driven-search service.
struct SearchPageSpec {
  std::string name;
  /// Quantifier-free condition on the next input y, over the unary
  /// database relations and propositional states (free variable: y).
  std::string phi = "true";
  /// Target rules: (page, condition over props / current input I).
  std::vector<std::pair<std::string, std::string>> targets;
  /// Propositional state rules: (state, insert?, condition).
  struct StateUpdate {
    std::string state;
    bool insert = true;
    std::string condition;
  };
  std::vector<StateUpdate> states;
};

struct InputDrivenSearchSpec {
  std::string name = "Search";
  std::vector<std::string> unary_db;     // e.g. newDesktop, usedLaptop
  std::vector<std::string> prop_states;  // besides not_start
  std::vector<std::string> prop_actions;
  std::vector<SearchPageSpec> pages;
  std::string home;
  std::string error_page = "ERR";
};

/// Builds the Web service for the spec (canonical option-rule shape).
StatusOr<WebService> BuildInputDrivenSearchService(
    const InputDrivenSearchSpec& spec);

/// Structural membership check for Definition 4.7.
Status CheckInputDrivenSearch(const WebService& service);

struct SearchVerifyResult {
  bool holds = true;
  uint64_t databases_checked = 0;
  uint64_t total_kripke_states = 0;
  /// Database on which the property failed, when !holds.
  std::optional<Instance> failing_database;
};

struct SearchVerifyOptions {
  DbEnumOptions db;
  KripkeBuildOptions kripke;
};

/// Verifies a propositional CTL or CTL* property over all databases
/// within the bounds (Theorem 4.9's question, answered explicitly).
StatusOr<SearchVerifyResult> VerifyInputDrivenSearch(
    const WebService& service, const TemporalProperty& property,
    const SearchVerifyOptions& options);

/// Verifies over one fixed database (e.g. the Figure 1 hierarchy).
StatusOr<SearchVerifyResult> VerifyInputDrivenSearchOnDatabase(
    const WebService& service, const TemporalProperty& property,
    const Instance& database, const KripkeBuildOptions& options);

}  // namespace wsv

#endif  // WSV_VERIFY_INPUT_SEARCH_VERIFIER_H_
