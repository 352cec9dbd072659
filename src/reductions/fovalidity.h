// The Theorem 4.2 reduction: branching-time verification of
// input-bounded CTL-FO properties is undecidable, because path
// quantifiers can simulate first-order quantification — finite validity
// of prefix-class  exists x forall y  sentences reduces to it.
//
// For a quantifier-free matrix psi(x, y) over a binary database relation
// Rel and unary Dom, the generated *simple* service lets the user pick a
// value for x (recorded in the state relation SX), then re-offers
// exactly that x while y ranges over the whole domain; one step later
// the proposition truephi reflects psi(x, y) (vacuously true when the
// user abstained, so only completed picks "bite"). Then
//
//   exists x forall y psi  is true on database D
//     <=>  some engaged initial state of the (unmerged) Kripke structure
//          satisfies  A X (A X (truephi))
//
// mirroring the appendix's E X A X A X (true_psi) at the root. Finite
// validity quantifies over all databases — undecidable, which is the
// theorem's point; the bounded enumerator decides each bounded instance.

#ifndef WSV_REDUCTIONS_FOVALIDITY_H_
#define WSV_REDUCTIONS_FOVALIDITY_H_

#include <string>

#include "common/status.h"
#include "ltl/ltl.h"
#include "verify/abstraction.h"
#include "ws/service.h"

namespace wsv {

struct FoValidityReduction {
  WebService service;
  /// The CTL formula A X (A X (truephi)), to be checked at engaged
  /// initial states (those where the user picked an x).
  TemporalProperty property;
};

/// Builds the reduction service for the matrix `psi_text`, a
/// quantifier-free formula over Rel(x, y), Dom(x), Dom(y), equalities,
/// with free variables exactly x and y.
StatusOr<FoValidityReduction> BuildFoValidityReduction(
    const std::string& psi_text);

/// Decides  exists x forall y psi  over one database (with Dom as the
/// quantification range) through the reduction: builds the unmerged
/// Kripke structure and checks the property at the engaged initial
/// states.
StatusOr<bool> ExistsForallViaService(const FoValidityReduction& reduction,
                                      const Instance& database);

/// Ground truth: direct active-domain evaluation of
/// exists x (Dom(x) & forall y (Dom(y) -> psi)) on the plan-free oracle
/// (fo/evaluator.h).
StatusOr<bool> ExistsForallDirect(const std::string& psi_text,
                                  const Instance& database);

}  // namespace wsv

#endif  // WSV_REDUCTIONS_FOVALIDITY_H_
