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
// Configs own their parts and compare structurally. The configuration
// graph stores nodes hash-consed instead (verify/config_graph.h): a node
// is a ConfigView, five pointers into the graph's store, and the stepper's
// apply core (runtime/successor.h) works on such views.

#ifndef WSV_RUNTIME_CONFIG_H_
#define WSV_RUNTIME_CONFIG_H_

#include <map>
#include <optional>
#include <string>

#include "relational/decided.h"
#include "relational/instance.h"

namespace wsv {

/// An input-constant interpretation kappa: constant name -> value, keyed
/// by interned name id and iterated in name order (relational/name.h).
using Kappa = NameMap<Value>;

struct ConfigView;

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
  Kappa provided_constants;

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

  std::string ToString() const;
};

/// A non-owning view of a node: one pointer per part of a Config, plus
/// the database the node's run is on. The configuration graph holds its
/// nodes this way, every pointer leading into the graph's hash-consed
/// store, so two of its nodes are equal iff their views are
/// pointer-equal. Like std::string_view, a view taken of a Config is
/// valid only while that Config is alive and unmodified.
struct ConfigView {
  const std::string* page = nullptr;
  const Instance* state = nullptr;
  const Instance* prev_inputs = nullptr;
  const Instance* actions = nullptr;
  /// kappa_{i-1}, the Config's provided_constants.
  const Kappa* kappa = nullptr;
  /// The database as far as the run has decided it (DESIGN.md §6j);
  /// null means the stepper's own database. A Config has no such part:
  /// its view runs on the stepper's database.
  const DecidedDatabase* database = nullptr;

  ConfigView() = default;
  ConfigView(const std::string* page_, const Instance* state_,
             const Instance* prev_inputs_, const Instance* actions_,
             const Kappa* kappa_, const DecidedDatabase* database_ = nullptr)
      : page(page_),
        state(state_),
        prev_inputs(prev_inputs_),
        actions(actions_),
        kappa(kappa_),
        database(database_) {}
  // Implicit, like string_view, so Config callers of the view-based API
  // stay unchanged.
  ConfigView(const Config& c)  // NOLINT(runtime/explicit)
      : ConfigView(&c.page, &c.state, &c.prev_inputs, &c.actions,
                   &c.provided_constants) {}

  /// An owning copy of the viewed node.
  Config Materialize() const;

  /// Pointer identity, which is structural equality for views into one
  /// configuration graph's store.
  friend bool operator==(const ConfigView& a, const ConfigView& b) {
    return a.page == b.page && a.state == b.state &&
           a.prev_inputs == b.prev_inputs && a.actions == b.actions &&
           a.kappa == b.kappa && a.database == b.database;
  }
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
  Kappa kappa;

  std::string ToString() const;
};

}  // namespace wsv

#endif  // WSV_RUNTIME_CONFIG_H_
