// Propositional abstraction and Kripke construction (Theorem 4.4 /
// Lemma A.12).
//
// BuildPropositionalKripke: for a *propositional* input-bounded service
// (states and actions of arity 0, no Prev_I) and a fixed database, builds
// the Kripke structure whose states are the proposition sets occurring in
// the run tree — pages, state propositions, action propositions,
// propositional inputs, and ground input atoms I(c1,...,ck) for the
// chosen input tuples. Lemma A.12 justifies merging configurations by
// label: in this class the label determines the successor labels, so CTL
// and CTL* truth are preserved.
//
// AbstractToPropositional: Example 4.3's abstraction — replaces every
// state, action, and database atom with a proposition of the same name
// (positive-arity state/action relations become propositions; rule heads
// are closed with existential quantifiers over their former parameters).
// Input atoms stay parameterized. The result over-approximates the
// original's navigation behavior and falls in the propositional class.

#ifndef WSV_VERIFY_ABSTRACTION_H_
#define WSV_VERIFY_ABSTRACTION_H_

#include "common/status.h"
#include "ctl/kripke.h"
#include "verify/config_graph.h"
#include "ws/service.h"

namespace wsv {

struct KripkeBuildOptions {
  ConfigGraphOptions graph;
  /// Verify the service is in the propositional class first. The
  /// input-driven-search verifier disables this: its services use Prev_I,
  /// but their labels include the chosen input tuple, which again
  /// determines successor labels, so label-merging stays sound.
  bool check_propositional = true;
};

/// Builds the propositional Kripke structure of the service over `db`.
/// The service must be in the propositional class (ws/classify.h).
StatusOr<Kripke> BuildPropositionalKripke(const WebService& service,
                                          const Instance& database,
                                          const KripkeBuildOptions& options);

/// Abstracts an arbitrary service to the propositional class; fails with
/// Unsupported on constructs that cannot be abstracted (Prev_I atoms).
StatusOr<WebService> AbstractToPropositional(const WebService& service);

/// Kripke structure with one state per configuration-graph *edge* and no
/// label merging: sound bounded branching-time checking for services
/// outside the propositional class (where merging by label would be
/// unsound because hidden positive-arity state distinguishes behaviors).
/// Used by the Theorem 4.2 reduction tests; exponential in the service.
StatusOr<Kripke> BuildUnmergedKripke(const WebService& service,
                                     const Instance& database,
                                     const KripkeBuildOptions& options);

}  // namespace wsv

#endif  // WSV_VERIFY_ABSTRACTION_H_
