// Property-directed spec slicer (cone-of-influence reduction).
//
// SlicePropertyCone computes the backward cone of a property's FO atoms
// over the dependence graph (depgraph.h) and builds a reduced copy of
// the service with every rule outside the cone dropped. The reduction
// is *frame-preserving*: vocabulary, pages, page spans, targets, all
// target rules, requested input constants, and home/error pages are
// untouched, and dropped relations stay declared (the runtime
// materializes them empty). Configurations that differed only in
// out-of-cone content therefore merge, shrinking the configuration
// graph and every product built over it, while:
//
//   * the page sequence of every run is unchanged (target rules and
//     everything they read are always in the cone; rules whose body
//     mentions an input constant are retained so the stepper's
//     static-error conditions fire identically);
//   * every relation a property leaf can observe is in the cone, so
//     leaf truth values are unchanged;
//   * accepting lassos exist in the sliced graph iff they exist in the
//     full graph (the sliced graph is a quotient of the full one).
//
// Witness faithfulness (the Dom(ρ) check of Thm 4.2) is *not* preserved
// per-valuation — the verifier handles that by re-running the full spec
// from the first sliced lasso (see ltl_verifier.cc). Properties or
// in-cone rules that fail the domain-independence analysis void the
// reduction; SlicePropertyCone then returns the identity (null).
//
// Whether a verification slices at all is its own setting,
// LtlVerifyOptions::enable_slice (verify/ltl_verifier.h).
#ifndef WSV_ANALYSIS_SLICE_H_
#define WSV_ANALYSIS_SLICE_H_

#include <cstdint>
#include <memory>

#include "ltl/ltl.h"
#include "ws/service.h"

namespace wsv {
namespace analysis {

struct SliceResult {
  /// The reduced service, or null when the slice is the identity
  /// (nothing droppable, or analysis bailed out).
  std::unique_ptr<WebService> service;
  uint64_t relations_dropped = 0;  // state/input/action symbols out of cone
  uint64_t rules_dropped = 0;
  uint64_t inputs_dropped = 0;  // page-input offers removed
  uint64_t cone_relations = 0;  // relation nodes in the cone
};

/// Slices `service` against `property`. Never fails: bails to the
/// identity (null service) whenever the reduction cannot be justified.
SliceResult SlicePropertyCone(const WebService& service,
                              const TemporalProperty& property);

}  // namespace analysis
}  // namespace wsv

#endif  // WSV_ANALYSIS_SLICE_H_
