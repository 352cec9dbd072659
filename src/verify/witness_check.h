// Independent validation of violation witnesses.
//
// A counterexample produced by the verifier (or by the test-only
// reference checker) is an ultimately periodic run. This validator re-derives
// the run through the runtime stepper — the single source of truth for
// Definition 2.3's successor semantics — and checks, without trusting
// any verifier state:
//
//  1. Replay: starting from the initial configuration, the user choice
//     reconstructed from each step's inputs produces exactly the
//     recorded trace element, step by step.
//  2. Closure: the successor of the final step is the configuration the
//     lasso loops back to, so the periodic run is real.
//  3. Violation: the property, evaluated on the lasso under the
//     witness's closure valuation, is false.
//
// Tests run this on every VIOLATED verdict, which is what lets the
// on-the-fly early exit be aggressive: a bogus lasso cannot survive.
//
// An error witness (verify/error_free.h) is a finite path; its
// validation replays it the same way and requires its last step to
// enter the error page for the recorded reason.

#ifndef WSV_VERIFY_WITNESS_CHECK_H_
#define WSV_VERIFY_WITNESS_CHECK_H_

#include "common/status.h"
#include "verify/error_free.h"
#include "verify/ltl_verifier.h"

namespace wsv {

/// Validates `cex` as a genuine violating run of `service` on its
/// database. Returns OK for a valid witness; InvalidArgument with a
/// step-level reason otherwise.
Status ValidateWitness(const WebService& service,
                       const TemporalProperty& property,
                       const CounterExample& cex);

/// Validates `witness` as a run of `service` on its database whose last
/// step enters the error page for `witness.reason`. Returns OK for a
/// valid witness; InvalidArgument with a step-level reason otherwise.
Status ValidateErrorWitness(const WebService& service,
                            const ErrorWitness& witness);

}  // namespace wsv

#endif  // WSV_VERIFY_WITNESS_CHECK_H_
