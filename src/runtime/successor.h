// The successor computation of Definition 2.3.
//
// A Stepper binds a Web service to a fixed database instance and computes
// one run step at a time: the options presented to the user, the error
// conditions (i)-(iii), the state update with conflict no-op semantics,
// actions, Prev_I bookkeeping, and the target transition. Both the
// interactive interpreter and the verification config-graph builder are
// built on this class, so the semantics live in exactly one place.
//
// Everything that depends only on the service is computed once, at
// construction (SetTrackedPrev redoes the prev prototype): empty
// instance prototypes, the rule literals, the input constants each rule
// mentions, and each rule's compiled FO program. After the setters a
// Stepper is only read, so concurrent sweeps share one (DESIGN.md §6g).
//
// Semantic choices the paper leaves open (documented in DESIGN.md):
//  * On a transition to the error page the state is carried unchanged,
//    the next actions and Prev_I are empty, and the step consumes no
//    input. The error page behaves like a page with no inputs and no
//    rules, so the run loops there with V = W_err forever.
//  * Error conditions (i) and (ii) are node-level (independent of the
//    user's choice): (ii) the page requests an input constant already
//    provided; (i) a rule of the page mentions an input constant outside
//    kappa_i (kappa after this page's requests are filled).

#ifndef WSV_RUNTIME_SUCCESSOR_H_
#define WSV_RUNTIME_SUCCESSOR_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "fo/bytecode/program.h"
#include "fo/evaluator.h"
#include "runtime/config.h"
#include "ws/service.h"

namespace wsv {

/// The result of one step: the successor node, the trace element for LTL
/// semantics, and whether the step transitioned to the error page.
struct StepOutcome {
  Config next;
  TraceStep trace;
  bool to_error = false;
  std::string error_reason;
};

/// One instance part of a successor node as the apply core produced it:
/// the source node's own instance, one of the stepper's empty prototypes,
/// or a newly built instance. Only a built part owns its instance (held
/// in an optional, so moving or destroying the other two touches no
/// instance); the other two point at instances that outlive the
/// successor. The
/// configuration graph interns a part by its origin (DESIGN.md §6h).
class Part {
 public:
  enum class Origin { kSource, kPrototype, kBuilt };

  Part() = default;
  static Part Source(const Instance* inst) {
    return Part(Origin::kSource, inst);
  }
  static Part Prototype(const Instance* inst) {
    return Part(Origin::kPrototype, inst);
  }
  static Part Built(Instance inst) {
    Part part(Origin::kBuilt, nullptr);
    part.built_.emplace(std::move(inst));
    return part;
  }

  Origin origin() const { return origin_; }
  const Instance& get() const {
    return origin_ == Origin::kBuilt ? *built_ : *ref_;
  }
  /// The instance as an owning value: moved out of a built part, copied
  /// otherwise. The part must not be read afterwards.
  Instance Release() {
    return origin_ == Origin::kBuilt ? std::move(*built_) : *ref_;
  }

 private:
  Part(Origin origin, const Instance* ref) : origin_(origin), ref_(ref) {}

  Origin origin_ = Origin::kPrototype;
  const Instance* ref_ = nullptr;
  std::optional<Instance> built_;
};

/// One successor as the apply core builds it: the successor node's parts
/// and the inputs chosen at this step. The rest of the trace element is
/// the source node's page, state, prev and actions plus the successor's
/// kappa, so it is not copied here. `page` and `kappa` point at data that
/// outlives the successor: the source node's, a page name the service
/// owns, or the kappa the caller passed in.
struct Successor {
  const std::string* page = nullptr;
  /// `page` interned.
  NameId page_id = kNoName;
  Part state;
  Part prev_inputs;
  Part actions;
  const Kappa* kappa = nullptr;
  /// The source node's database: the successor runs on the database the
  /// step was computed under.
  const DecidedDatabase* database = nullptr;
  Part inputs;
  bool to_error = false;
  std::string error_reason;
};

/// A user choice with its relation and proposition names resolved to
/// ids: the form the apply core reads. `relations` holds one entry per
/// offered relation with its pick (nullopt: no pick), `propositions` one
/// per propositional input with its truth value. The picked rows are the
/// caller's and must outlive the ApplyChoice call.
struct ResolvedChoice {
  std::vector<std::pair<NameId, std::optional<Row>>> relations;
  std::vector<std::pair<NameId, bool>> propositions;
};

/// The options of a page's positive-arity input relations under one
/// kappa: per input relation with rules on the page, in name order, the
/// rows its rules offer (the last rule of a relation wins).
using InputOptions = std::vector<std::pair<NameId, Relation>>;

class Stepper {
 public:
  /// `service` and `database` must outlive the Stepper. By default every
  /// input relation's previous value is tracked in configurations;
  /// restrict with `tracked_prev` (see SetTrackedPrev). Compiles every
  /// rule body (fo/bytecode/cache.h); see status().
  Stepper(const WebService* service, const Instance* database);

  /// OK, or the error of the first rule body that did not compile. The
  /// owner checks it once built; every step then fails with it.
  const Status& status() const { return status_; }

  /// Restricts Prev_I bookkeeping to the given input relations. The
  /// verifiers call this with the relations actually mentioned in prev
  /// atoms of the rules and the property: untracked relations cannot be
  /// observed, and dropping them collapses otherwise-distinct
  /// configurations, shrinking the graph. Must include every relation
  /// the service's rules mention with prev.
  void SetTrackedPrev(std::set<std::string> tracked_prev);

  /// The input relations mentioned in prev atoms of the service's rules.
  static std::set<std::string> PrevRelationsInRules(
      const WebService& service);

  /// Switches Prev_I to *lossless* semantics: prev_I accumulates every
  /// input ever given to I instead of only the previous step's (the
  /// paper's extension (iii), Theorem 3.9 — verification over this
  /// semantics is undecidable; the bounded machinery still runs).
  void SetLosslessInput(bool lossless) { lossless_input_ = lossless; }

  /// The initial node: home page, empty state/prev/actions, empty kappa.
  Config InitialConfig() const;
  /// The same node as a view of the stepper's own prototypes, valid while
  /// the stepper is alive and its setters are not called.
  ConfigView InitialView() const;

  /// Returns the reason if the node transitions to the error page
  /// regardless of the user's choice (conditions (i) and (ii)); nullopt
  /// otherwise. Always nullopt on the error page itself.
  std::optional<std::string> StaticError(const ConfigView& node) const;
  /// The same for a node known to be on `page`, one of service().pages().
  std::optional<std::string> StaticError(const ConfigView& node,
                                         const PageSchema& page) const;

  /// Options for each positive-arity input relation offered by the
  /// current page, computed over D, S_i, P_i, and kappa_i (which includes
  /// `new_constants`, the values for the constants the page requests).
  StatusOr<std::map<std::string, std::set<Tuple>>> ComputeOptions(
      const ConfigView& node,
      const std::map<std::string, Value>& new_constants) const;

  /// ComputeOptions with kappa_i given whole: node's kappa plus a value
  /// for each constant the page requests.
  StatusOr<std::map<std::string, std::set<Tuple>>> OptionsUnder(
      const ConfigView& node, const Kappa& kappa) const;
  /// OptionsUnder for a node known to be on `page`, one of
  /// service().pages(), keyed by id. The rules read node.database's
  /// completion when it is set; `probes` (optional) logs what they probe
  /// of it (relational/decided.h).
  StatusOr<InputOptions> OptionsOn(const ConfigView& node,
                                   const PageSchema& page, const Kappa& kappa,
                                   ProbeLog* probes = nullptr) const;

  /// Applies one step. The choice must supply a value for exactly the
  /// input constants the page requests, and relation picks must be among
  /// the computed options (checked; violations are InvalidArgument).
  /// On the error page the choice is ignored.
  ///
  /// Step is validate -> ComputeOptions -> ApplyChoice, and materializes
  /// the successor as an owning Config. The successor builders below are
  /// the unvalidated pieces, on node views, for callers that hold those
  /// facts already (the configuration-graph expansion). Each reuses the
  /// source node's instances and the stepper's empty prototypes wherever
  /// the step leaves a part unchanged, and builds a part only where it
  /// changes (DESIGN.md §6h).
  StatusOr<StepOutcome> Step(const Config& config,
                             const UserChoice& choice) const;

  /// The only successor of a node on the error page: a self-loop with
  /// no inputs and empty prev and actions.
  Successor ErrorPageLoop(const ConfigView& node) const;

  /// The transition to the error page with `reason`: the state carried
  /// unchanged, kappa set to `*kappa`, no inputs.
  Successor ToErrorPage(const ConfigView& node, const Kappa* kappa,
                        std::string reason) const;

  /// The apply core of Step, without its checks. Preconditions: `page`
  /// is node's page as an element of service().pages(), not the error
  /// page, and StaticError(node) is nullopt; `*kappa` is node's kappa
  /// plus a value for each constant the page requests; every relation
  /// pick of `choice` is among OptionsUnder(node, *kappa) and every
  /// proposition is one the page offers. Returns the successor Step
  /// would return; its parts may point into `node` and at `*kappa`.
  /// The database and `probes` are as for OptionsOn.
  StatusOr<Successor> ApplyChoice(const ConfigView& node,
                                  const PageSchema& page, const Kappa* kappa,
                                  const ResolvedChoice& choice,
                                  ProbeLog* probes = nullptr) const;
  /// The same with the choice given by names, resolved first.
  StatusOr<Successor> ApplyChoice(const ConfigView& node,
                                  const PageSchema& page, const Kappa* kappa,
                                  const UserChoice& choice) const;

  const WebService& service() const { return *service_; }
  const Instance& database() const { return *database_; }

  /// The page schema with interned name `page`; nullptr for the error
  /// page or an unknown name.
  const PageSchema* FindPage(NameId page) const;
  /// Interned names of the home and error pages.
  NameId home_page_id() const { return home_page_id_; }
  NameId error_page_id() const { return error_page_id_; }
  /// The input constants `page` requests and its propositional inputs,
  /// interned, in the page's declaration order.
  const std::vector<NameId>& InputConstantIds(const PageSchema& page) const {
    return TablesOf(page).input_constants;
  }
  const std::vector<NameId>& PropositionIds(const PageSchema& page) const {
    return TablesOf(page).propositions;
  }

 private:
  /// A rule whose body mentions input constants, and those constants in
  /// name order: condition (i) reads only these.
  struct RuleConstants {
    enum class Kind { kInput, kState, kAction, kTarget };
    Kind kind;
    size_t rule;  // index into the page's rules of `kind`
    std::vector<NameId> constants;
  };

  /// Each rule body's compiled program, parallel to the page's rules of
  /// that kind; nullptr only for a body that did not compile (status()
  /// is then its error).
  struct PagePrograms {
    std::vector<std::shared_ptr<const fobc::Program>> input, state, action,
        target;
  };

  /// One page's names resolved to ids once, at construction: what the
  /// apply core and the node-level checks read instead of the page's
  /// name strings.
  struct PageTables {
    NameId name = kNoName;
    std::vector<NameId> inputs;           // page.inputs
    std::vector<NameId> input_constants;  // page.input_constants
    std::vector<NameId> propositions;     // arity-0 inputs, page order
    /// Input relations with rules, in name order, and each input rule's
    /// index into them.
    std::vector<NameId> option_relations;
    std::vector<size_t> input_rule_slot;
    /// State relations with rules, in name order, and each state rule's
    /// index into them.
    std::vector<NameId> updated_states;
    std::vector<size_t> state_rule_slot;
    std::vector<NameId> action_rule_relation;  // per action rule
    std::vector<NameId> target_rule_page;      // per target rule
    /// Condition (i)'s rules, in the order it checks them.
    std::vector<RuleConstants> rule_constants;
    PagePrograms programs;
  };

  /// EvalContext over D, S_i, P_i, kappa; optionally the current inputs.
  /// D is node.database's completion when set, else the stepper's
  /// database. `kappa` is bound by pointer and must outlive the context;
  /// `probes` (optional) is attached to it.
  EvalContext MakeContext(const ConfigView& node, const Kappa& kappa,
                          const Instance* current_inputs,
                          ProbeLog* probes) const;

  /// The tables of `page`, which must be one of service().pages().
  const PageTables& TablesOf(const PageSchema& page) const {
    return tables_[static_cast<size_t>(&page - service_->pages().data())];
  }

  /// Wraps a successor of `config` into the StepOutcome Step returns.
  static StepOutcome WithTrace(const Config& config, Successor succ);

  const WebService* service_;
  const Instance* database_;
  /// Literal values occurring in any rule of the service; they denote
  /// schema constants and are part of every evaluation's active domain.
  /// Held as the domain of an instance without relations or constants,
  /// so a context adds them as one layer instead of value by value.
  Instance rule_literals_;
  /// Per page, parallel to service().pages().
  std::vector<PageTables> tables_;
  /// See status().
  Status status_;
  NameId home_page_id_ = kNoName;
  NameId error_page_id_ = kNoName;
  /// Input relations whose previous value is kept in configurations;
  /// nullopt means all.
  std::optional<std::set<std::string>> tracked_prev_;
  bool lossless_input_ = false;
  /// Every relation of the kind materialized empty: the part a step
  /// yields when it leaves that part empty, and the base it copies when
  /// it does not. empty_prev_ holds the tracked prev relations and is
  /// rebuilt by SetTrackedPrev.
  Instance empty_state_;
  Instance empty_inputs_;
  Instance empty_actions_;
  Instance empty_prev_;
  Kappa empty_kappa_;
};

}  // namespace wsv

#endif  // WSV_RUNTIME_SUCCESSOR_H_
