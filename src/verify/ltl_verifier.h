// The linear-time verifier (Theorem 3.5).
//
// Checks whether every run of a Web service satisfies an LTL-FO property.
// The procedure is the automata-theoretic one: negate the property,
// translate to a Büchi automaton over its FO leaves, and search the
// product of the configuration graph with the automaton for an accepting
// lasso — per valuation of the property's universal closure variables,
// on a fixed database or on every database within the bounds, whose
// facts the configuration graph decides as runs probe them (DESIGN.md
// §6j).
//
// Relation to the paper's proof: Theorem 3.5's upper bound reduces the
// existence of a violating run to finite satisfiability of an E+TC
// sentence (Spielmann's technique), giving PSPACE for fixed arity. Our
// procedure decides the same question on the bounded database space the
// enumerator covers: it searches the *same* periodic runs the Periodic
// Run Lemma talks about, explicitly rather than through a logic encoding.
// A found lasso is a genuine counterexample run; "holds" means no
// violation exists within the configured bounds (database size, input
// constant pool), which is complete once the bounds reach the paper's
// small-model sizes.
//
// The work is packaged as LtlDatabaseCheck: one context per database
// (fixed, or decided during the search), built once, then a sweep over a
// range of closure-valuation indices. Contexts are immutable after
// Create, so concurrent CheckValuations calls on one context are safe.
// LtlVerifier (below) drives it: one front end per call, one two-phase
// check, and a `jobs` parameter that picks only how valuation ranges are
// dispatched.

#ifndef WSV_VERIFY_LTL_VERIFIER_H_
#define WSV_VERIFY_LTL_VERIFIER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "automata/buchi.h"
#include "common/bitset.h"
#include "common/status.h"
#include "ltl/run_semantics.h"
#include "verify/config_graph.h"
#include "verify/db_enum.h"

namespace wsv {

// Never defined: the type of the LtlVerifyOptions::leaf_store shim.
class LeafColumnStore;

/// The default of LtlVerifyOptions::enable_slice: false when the
/// environment sets WSV_DISABLE_SLICE (common/env.h's rule), read once
/// per process; true otherwise.
bool SliceByDefault();

struct LtlVerifyOptions {
  DbEnumOptions db;
  ConfigGraphOptions graph;
  /// Extra fresh values usable as input-constant values beyond the
  /// database's active domain (models users typing new data).
  int extra_constant_values = 1;
  /// Require the property and service to be input-bounded (the paper's
  /// decidable class); set false to run the bounded search anyway.
  bool require_input_bounded = true;
  /// Candidate values for the universal closure variables. Empty: use
  /// everything that can occur in a run (database active domain, rule
  /// and property literals, the input-constant pool) — complete but
  /// potentially slow. Non-empty: check only these valuations (sound for
  /// counterexamples; complete only if every violating valuation is
  /// covered).
  std::vector<Value> closure_candidates;
  /// Compile shim read only by perfbench/driver.cc; true is rejected.
  bool force_eager = false;
  /// Slice the spec against the property before building any
  /// configuration graph (analysis/slice.h): rules outside the
  /// property's cone of influence are dropped, configurations merge,
  /// and a full-spec re-check from the first sliced lasso keeps
  /// verdicts and witnesses bit-identical. This field alone decides
  /// slicing; the CLI's `--no-slice` clears it, and so does
  /// WSV_DISABLE_SLICE through the default (SliceByDefault).
  bool enable_slice = SliceByDefault();
  /// Collapse valuation equivalence classes in the sweep (same truth
  /// column for every FO leaf => same product, so one search per
  /// class). False runs the naive one-product-per-valuation sweep, for
  /// tests and A/B runs; verdicts and counterexamples are identical
  /// either way, the ltl/* counters are not.
  bool class_collapse = true;
  /// Compile shims read only by perfbench/driver.cc; ignored.
  LeafColumnStore* leaf_store = nullptr;
  std::string leaf_store_context;
};

/// A violation witness: the database and the ultimately periodic run.
struct CounterExample {
  Instance database;
  LassoRun run;
  /// The closure-variable valuation under which the run violates the
  /// formula.
  Valuation valuation;

  std::string ToString() const;
};

struct LtlVerifyResult {
  /// True iff no violating run was found within the bounds.
  bool holds = true;
  std::optional<CounterExample> counterexample;
  /// The databases the verdict covers: 1 for a fixed database and for a
  /// counterexample (it names one database); for a HOLDS verdict over
  /// every database, how many lie within the bounds (no symmetry
  /// reduction; saturating, see CountDatabases).
  uint64_t databases_checked = 0;
  uint64_t total_graph_nodes = 0;
  uint64_t total_product_states = 0;
  /// False if any configuration graph was truncated by a budget.
  bool complete_within_bounds = true;
};

/// A counterexample tagged with the valuation index it was found at, for
/// deterministic lowest-index-wins selection across workers.
struct IndexedCounterExample {
  uint64_t valuation_index = 0;
  CounterExample cex;
  /// Set by abort-on-lasso sweeps (the sliced probe, see
  /// LtlDatabaseCheck::Create): an accepting lasso exists at this index,
  /// but `cex` is empty — the caller re-checks the full spec from
  /// `valuation_index` on.
  bool lasso_only = false;
};

/// One database's half of the Theorem 3.5 procedure: the stepper over
/// the database (fixed, or decided during the search), the
/// closure-valuation candidate list, and the per-leaf and per-automaton
/// tables the on-the-fly sweep reads.
///
/// Valuations are addressed by index in [0, NumValuations()): index i
/// denotes the valuation whose k-th variable takes candidate number
/// (i / |cand|^k) mod |cand| — exactly the odometer order the serial
/// sweep has always used, so "lowest index" and "found first serially"
/// coincide.
///
/// Thread-compatibility: immutable after Create; CheckValuations is
/// const and keeps all scratch state (the lazy configuration graph, the
/// FO-leaf memo, the class table) local to the call, so any number of
/// threads may sweep disjoint index ranges of one context concurrently.
class LtlDatabaseCheck {
 public:
  /// Builds the context: stepper, candidate valuations, and leaf and
  /// automaton tables. Takes ownership of a copy of `database` (the
  /// enumerator reuses its instance buffer across visits).
  ///
  /// `abort_on_lasso` makes the context a probe (the sliced first
  /// phase): its sweeps return at the first accepting lasso — faithful
  /// or spurious — as a `lasso_only` marker instead of running the
  /// Dom(rho) faithfulness check. Lasso existence is slicing-invariant;
  /// faithfulness is not, so the marker index is where the full-spec
  /// re-check resumes. A probe's marker is never a verdict.
  static StatusOr<LtlDatabaseCheck> Create(const WebService* service,
                                           const LtlVerifyOptions& options,
                                           const TemporalProperty* property,
                                           const BuchiAutomaton* automaton,
                                           const Instance& database,
                                           bool abort_on_lasso);
  /// The same on a database decided in part (DESIGN.md §6j): every
  /// database within its bounds, decided during the search. Its facts
  /// and bounds are not copied and must outlive the context (a fully
  /// decided one works too, as a fixed database that is not copied).
  static StatusOr<LtlDatabaseCheck> Create(const WebService* service,
                                           const LtlVerifyOptions& options,
                                           const TemporalProperty* property,
                                           const BuchiAutomaton* automaton,
                                           const DecidedDatabase& database,
                                           bool abort_on_lasso);

  /// Number of closure valuations to sweep. 1 when the property has no
  /// universal variables; 0 when it has variables but no candidates
  /// (vacuously no violation).
  uint64_t NumValuations() const { return num_valuations_; }

  /// Configuration-graph size and truncation, aggregated over the lazily
  /// expanded per-sweep graphs: read them *after* the CheckValuations
  /// calls you care about.
  uint64_t graph_nodes() const {
    return otf_totals_->nodes.load(std::memory_order_relaxed);
  }
  bool truncated() const {
    return otf_totals_->truncated.load(std::memory_order_relaxed);
  }

  /// The on-the-fly sweep (DESIGN.md §6e): a lazy configuration graph
  /// is expanded by product searches run once per valuation equivalence
  /// class, stopping at the first accepting lasso.
  ///
  /// Sweeps valuation indices [begin, end) in increasing order and
  /// returns the lowest-index counterexample in the range, or nullopt if
  /// the range is violation-free. A counterexample's database is the
  /// completion of the database its lasso's cycle decides. `stop`
  /// (optional) is polled with the upcoming index before each
  /// valuation: once it returns true the sweep aborts — with the
  /// counterexample found so far if any (later indices cannot beat it),
  /// else with Status::Cancelled.
  /// `product_states` (optional) accumulates product automaton sizes
  /// (of the products actually built — see
  /// LtlVerifyOptions::class_collapse).
  ///
  /// Valuations whose FO leaves all resolve to the same truth columns
  /// (on the edges a class's search consulted) induce the *same*
  /// search, so it runs once per equivalence class; repeats reuse the
  /// cached verdict (and, for violating classes, the cached lasso),
  /// re-running only the valuation-specific Dom(rho) faithfulness
  /// check. The class table, like the FO-leaf memo, is local to the
  /// call: concurrent sweeps of one context never share mutable state.
  StatusOr<std::optional<IndexedCounterExample>> CheckValuations(
      uint64_t begin, uint64_t end,
      const std::function<bool(uint64_t)>& stop,
      uint64_t* product_states) const;

 private:
  LtlDatabaseCheck() = default;

  /// Both Creates; `owned`, if set, is kept alive with the context.
  static StatusOr<LtlDatabaseCheck> Build(
      const WebService* service, const LtlVerifyOptions& options,
      const TemporalProperty* property, const BuchiAutomaton* automaton,
      const DecidedDatabase& database, bool abort_on_lasso,
      std::unique_ptr<Instance> owned);

  const WebService* service_ = nullptr;
  const TemporalProperty* property_ = nullptr;
  const BuchiAutomaton* automaton_ = nullptr;
  /// Create's copy of a fixed database, if it made one; address stable.
  std::unique_ptr<Instance> owned_database_;
  /// The database every lazy per-sweep graph starts from; address
  /// stable, as the graph options point at it.
  std::unique_ptr<DecidedDatabase> database_;
  /// The bound stepper; owned so sweeps can generate successors after
  /// Create returns (address stable across moves).
  std::unique_ptr<Stepper> stepper_;
  /// The page-proposition table every step context reads; immutable,
  /// so concurrent sweeps share it.
  std::unique_ptr<const PagePropositions> pages_;
  /// Graph options with the input-constant pool resolved; the seed of
  /// every lazy per-sweep graph.
  ConfigGraphOptions graph_options_;
  /// Aggregates across sweeps (graph_nodes()/truncated());
  /// relaxed atomics because concurrent chunked sweeps finish
  /// independently. Heap-allocated so the context stays movable.
  struct OtfTotals {
    std::atomic<uint64_t> nodes{0};
    std::atomic<bool> truncated{false};
  };
  std::unique_ptr<OtfTotals> otf_totals_ = std::make_unique<OtfTotals>();
  /// Candidate values for each closure variable.
  std::vector<Value> cand_;
  /// cand_.size()^k for each variable position k (odometer strides).
  std::vector<uint64_t> stride_;
  uint64_t num_valuations_ = 0;
  /// Per leaf: positions (into property_->universal_vars) of the closure
  /// variables free in the leaf. Empty = valuation-independent leaf.
  std::vector<std::vector<size_t>> leaf_vars_;
  /// Per leaf: quantifier-free? A QF leaf never iterates the active
  /// domain, so its truth is independent of which closure values extend
  /// the domain — the memo key can drop the domain-extension digits.
  std::vector<char> leaf_qfree_;
  /// Per leaf: the names of its free closure variables (leaf_vars_
  /// order) — the head of the query the sweep runs once per edge to
  /// fill every binding's column at once (DESIGN.md §6f). Empty for
  /// leaves that stay on per-binding evaluation: static leaves,
  /// leaves under a repeated closure-variable name, and every leaf when
  /// the candidate list repeats a value (answers are mapped back to
  /// bindings by value).
  std::vector<std::vector<std::string>> leaf_heads_;
  /// Per leaf with a head: whether its query runs the negation normal
  /// form of the leaf's negation instead of the leaf, because that needs
  /// fewer active-domain loops (fo/plan.h QueryDomainLoops; e.g. a leaf
  /// !R(x) | S(x) becomes R(x) & !S(x), a scan of R), so that the answer
  /// is the leaf's complement.
  std::vector<char> leaf_complement_;
  /// Per leaf: the compiled program of the leaf (per-binding
  /// evaluation) and, for a leaf with a head, of its query under
  /// leaf_heads_ (the per-edge query), compiled once here.
  std::vector<std::shared_ptr<const fobc::Program>> leaf_progs_;
  std::vector<std::shared_ptr<const fobc::Program>> leaf_query_progs_;
  /// Candidate value -> index into cand_ (distinct candidates only).
  std::unordered_map<Value, int32_t> cand_pos_;
  /// Automaton states grouped by their leaf-truth label, packed as a
  /// bitset over the leaves. Built once per context: the product
  /// construction resolves an edge's matching states with one hash
  /// lookup instead of comparing the edge's truth against every state.
  std::unordered_map<Bitset, std::vector<int>, BitsetHash> label_index_;
  /// succ_bits_[q].Test(q2) iff q2 is a successor of q — replaces the
  /// linear scan of automaton_->succ[q] in the product edge relation.
  std::vector<Bitset> succ_bits_;
  /// Per leaf and candidate index: true iff binding any closure variable
  /// to that candidate extends the evaluation structure's active domain
  /// beyond what the database and the leaf's own literals provide — the
  /// only way one leaf's truth can depend on *another* variable's value.
  /// Lets the memo key include exactly the domain-relevant values, so
  /// memoized and direct evaluation agree bit-for-bit.
  std::vector<std::vector<char>> domain_relevant_;
  /// Create's `abort_on_lasso`: the sweep returns a lasso_only marker at
  /// the first accepting lasso instead of running the faithfulness
  /// check.
  bool abort_on_lasso_ = false;
  /// Copied from LtlVerifyOptions::class_collapse.
  bool class_collapse_ = true;
};

/// The Theorem 3.5 procedure end to end. Each Verify/VerifyOnDatabase
/// call runs one front end — validate the options, build the negated
/// automaton, and slice when `options.enable_slice` says so — then one
/// two-phase check (DESIGN.md §10): a sliced abort-on-lasso probe, then
/// the full-spec sweep from the probe's marker index. VerifyOnDatabase
/// checks the given database; Verify checks every database within
/// `options.db` at once, as one database decided during the search
/// (DESIGN.md §6j).
///
/// `jobs` (<= 0: one worker per hardware thread) chooses only how that
/// work is dispatched:
///   * jobs == 1: everything runs inline on the calling thread — no
///     pool, no thread.
///   * jobs > 1: each phase's valuation range is cut into chunks run on
///     a pool.
///
/// Determinism: every job count reports the verdict and witness of the
/// inline run. Counterexamples and errors are events keyed by chunk
/// index and the lowest index wins; cancellation only stops work at
/// indices above the current best, so every index below the winner has
/// been swept violation-free. Cancellation is two-layered: the pool
/// drops its queued backlog, and in-flight sweeps poll the best index
/// per valuation and per expanded configuration-graph node.
class LtlVerifier {
 public:
  LtlVerifier(const WebService* service, LtlVerifyOptions options,
              int jobs = 1);

  /// Verifies over all databases within the enumeration bounds
  /// (options.db), deciding their facts during the search.
  StatusOr<LtlVerifyResult> Verify(const TemporalProperty& property);

  /// Verifies over one fixed database.
  StatusOr<LtlVerifyResult> VerifyOnDatabase(const TemporalProperty& property,
                                             const Instance& database);

 private:
  /// Both entry points: `database` null checks every database.
  StatusOr<LtlVerifyResult> Run(const TemporalProperty& property,
                                const Instance* database);

  const WebService* service_;
  LtlVerifyOptions options_;
  int jobs_;
};

/// Compile shim read only by perfbench/driver.cc; always true.
bool OnTheFlyEnabled();

/// Rejects option values no engine supports: a set `force_eager`
/// (InvalidArgument). LtlVerifier checks this before any work.
Status ValidateVerifyOptions(const LtlVerifyOptions& options);

/// The input-constant pool LtlDatabaseCheck::Create resolves for one
/// (service, property, database) context: InputConstantPool with the
/// property's literals and `extra_constant_values` typed values, unless
/// `options.graph.constant_pool` pins it. Exposed so cache keys can
/// fingerprint what the sweep will actually see.
std::vector<Value> ResolveConstantPool(const WebService& service,
                                       const TemporalProperty& property,
                                       const Instance& database,
                                       const LtlVerifyOptions& options);

/// The closure-valuation candidate list LtlDatabaseCheck::Create
/// resolves for one (service, property, database) context:
/// options.closure_candidates when non-empty, else the sorted set of
/// the resolved constant pool, the database's active domain, the
/// service's rule literals, and the property's literals. Exposed so a
/// sliced check can pin its candidate list (and hence its valuation
/// index space) to the *original* service's.
std::vector<Value> ResolveClosureCandidates(const WebService& service,
                                            const TemporalProperty& property,
                                            const Instance& database,
                                            const LtlVerifyOptions& options);

/// Options for the sliced first phase of a two-phase check: `base` with
/// the constant pool and closure candidates pinned to what the
/// *original* service resolves (identical valuation indexing). The
/// probe itself is Create's `abort_on_lasso`.
LtlVerifyOptions SlicedCheckOptions(const LtlVerifyOptions& base,
                                    const WebService& original,
                                    const TemporalProperty& property,
                                    const Instance& database);

/// The prev-relation names a run of `service` must track so that both
/// the service's rules and the property's `prev` atoms can be evaluated.
/// Shared by the verifiers and the witness validator so replayed runs
/// carry the exact prev-state the original search saw.
std::set<std::string> TrackedPrevRelations(const WebService& service,
                                           const TemporalProperty& property);

/// Validates the property for the linear-time pipeline and builds the
/// degeneralized Büchi automaton for its negation (LtlVerifier's front
/// end).
StatusOr<BuchiAutomaton> BuildNegatedAutomaton(
    const WebService& service, const TemporalProperty& property,
    bool require_input_bounded);

}  // namespace wsv

#endif  // WSV_VERIFY_LTL_VERIFIER_H_
