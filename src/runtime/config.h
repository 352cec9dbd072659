// Run configurations (Definition 2.3).
//
// A run of a Web service W over a database D is an infinite sequence
// {<V_i, S_i, I_i, P_i, A_i>} of configurations. We split each step into
// a *node* — Config: the page, state, previous inputs, actions produced
// by the previous step, and the input-constant interpretation kappa
// accumulated so far — plus the user's *choice* at that node (UserChoice).
// The pair determines the trace element <V_i, S_i, I_i, P_i, A_i> that
// temporal formulas are evaluated on, and the unique successor node.
//
// Configs compare structurally; the verifiers use this to deduplicate
// the (finite, for a fixed database) configuration graph.

#ifndef WSV_RUNTIME_CONFIG_H_
#define WSV_RUNTIME_CONFIG_H_

#include <map>
#include <optional>
#include <string>

#include "relational/instance.h"

namespace wsv {

/// The node part of a run step (everything except the current input).
struct Config {
  /// Current Web page V_i (possibly the error page).
  std::string page;
  /// State instance S_i; all state relations materialized (possibly empty).
  Instance state;
  /// Previous inputs P_i, keyed by the plain input relation names.
  Instance prev_inputs;
  /// Actions A_i (triggered by the rules of step i-1).
  Instance actions;
  /// kappa_{i-1}: input constants provided strictly before this step.
  std::map<std::string, Value> provided_constants;

  /// Estimated heap footprint, for the mem/config_graph_bytes gauge.
  size_t ApproxBytes() const;

  friend bool operator==(const Config& a, const Config& b) {
    return a.page == b.page && a.state == b.state &&
           a.prev_inputs == b.prev_inputs && a.actions == b.actions &&
           a.provided_constants == b.provided_constants;
  }
  friend bool operator<(const Config& a, const Config& b) {
    if (a.page != b.page) return a.page < b.page;
    if (!(a.state == b.state)) return a.state < b.state;
    if (!(a.prev_inputs == b.prev_inputs)) return a.prev_inputs < b.prev_inputs;
    if (!(a.actions == b.actions)) return a.actions < b.actions;
    return a.provided_constants < b.provided_constants;
  }

  /// Structural hash, consistent with operator==. The config-graph
  /// builder's node dedup index is keyed by this.
  size_t Hash() const;

  std::string ToString() const;
};

/// The user's decision at one step: values for the input constants the
/// page requests, at most one tuple per positive-arity input relation,
/// and a truth value per propositional input.
struct UserChoice {
  std::map<std::string, Value> constant_values;
  std::map<std::string, std::optional<Tuple>> relation_choices;
  std::map<std::string, bool> proposition_choices;

  friend bool operator==(const UserChoice& a, const UserChoice& b) {
    return a.constant_values == b.constant_values &&
           a.relation_choices == b.relation_choices &&
           a.proposition_choices == b.proposition_choices;
  }
  friend bool operator<(const UserChoice& a, const UserChoice& b) {
    if (a.constant_values != b.constant_values) {
      return a.constant_values < b.constant_values;
    }
    if (a.relation_choices != b.relation_choices) {
      return a.relation_choices < b.relation_choices;
    }
    return a.proposition_choices < b.proposition_choices;
  }

  std::string ToString() const;
};

/// One element <V_i, S_i, I_i, P_i, A_i> of a concrete run, as seen by
/// LTL-FO semantics. `kappa` is kappa_i (constants provided up to and
/// including this step).
struct TraceStep {
  std::string page;
  Instance state;
  Instance inputs;  // relations, propositions, and constants chosen now
  Instance prev_inputs;
  Instance actions;
  std::map<std::string, Value> kappa;

  std::string ToString() const;
};

}  // namespace wsv

#endif  // WSV_RUNTIME_CONFIG_H_
