#include "verify/ltl_verifier.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>

#include "analysis/slice.h"
#include "automata/emptiness.h"
#include "automata/ltl_to_buchi.h"
#include "common/env.h"
#include "common/flat_index.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "fo/bytecode/cache.h"
#include "fo/input_bounded.h"
#include "fo/plan.h"
#include "fo/rewrite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ws/classify.h"

namespace wsv {

std::string CounterExample::ToString() const {
  std::string out = "database:\n" + database.ToString();
  if (!valuation.empty()) {
    out += "valuation:";
    for (const auto& [var, v] : valuation) {
      out += " " + var + "=" + v.name();
    }
    out += "\n";
  }
  out += "violating run (lasso):\n" + run.ToString();
  return out;
}

namespace {

// All values occurring anywhere in a lasso run or the database — Dom(rho)
// for the closure-variable range check.
std::set<Value> LassoDomain(const LassoRun& run, const Instance& database) {
  std::set<Value> dom(database.domain().begin(), database.domain().end());
  for (const TraceStep& step : run.steps) {
    for (const Instance* inst :
         {&step.state, &step.inputs, &step.prev_inputs, &step.actions}) {
      dom.insert(inst->domain().begin(), inst->domain().end());
    }
    for (const auto& [name, v] : step.kappa) dom.insert(v);
  }
  return dom;
}

// Hash for the FO-leaf memo's keys (projected valuation digits).
template <typename T>
struct VectorKeyHash {
  size_t operator()(const std::vector<T>& key) const {
    return HashRange(key.begin(), key.end());
  }
};

// Matching-state list for edge labels no automaton state carries.
const std::vector<int> kNoMatchingStates;

// The successor range of a product vertex the search has not expanded.
constexpr SuccRange kUnexpanded{UINT32_MAX, UINT32_MAX};

// Times FO leaf work once per batch of edges: the clock is read only
// when the batch does some work (Start), and the batch is recorded once,
// when the timer goes out of scope, into ltl/leaf_eval_ns and, if it
// evaluated some column binding by binding, ltl/leaf_col_eval_ns.
class LeafBatchTimer {
 public:
  LeafBatchTimer() = default;
  LeafBatchTimer(const LeafBatchTimer&) = delete;
  LeafBatchTimer& operator=(const LeafBatchTimer&) = delete;
  ~LeafBatchTimer() {
    if (!started_) return;
    [[maybe_unused]] const uint64_t ns = WSV_OBS_NOW() - start_;
    WSV_HIST("ltl/leaf_eval_ns", ns);
    if (per_binding_) WSV_HIST("ltl/leaf_col_eval_ns", ns);
  }

  void Start(bool per_binding) {
    per_binding_ = per_binding_ || per_binding;
    if (started_) return;
    started_ = true;
    start_ = WSV_OBS_NOW();
  }

 private:
  bool started_ = false;
  bool per_binding_ = false;
  uint64_t start_ = 0;
};

// What the automaton's FO leaves read of the database, to be decided
// before any step (DESIGN.md §6j): a relation the leaves read only
// through ground atoms, fact by fact; any other relation, and every
// database constant, whole.
std::vector<DbProbe> LeafProbes(const WebService& service,
                                const BuchiAutomaton& automaton) {
  std::map<std::string, std::set<Tuple>> ground;  // relation -> facts
  std::set<std::string> whole;
  const Vocabulary& vocab = service.vocab();
  for (const FormulaPtr& leaf : automaton.leaves) {
    for (const Atom& atom : leaf->Atoms()) {
      const RelationSymbol* sym = vocab.FindRelation(atom.relation);
      if (atom.prev || sym == nullptr || sym->kind != SymbolKind::kDatabase) {
        continue;
      }
      Tuple fact;
      for (const Term& term : atom.terms) {
        if (term.is_literal()) fact.push_back(term.literal());
      }
      if (fact.size() == atom.terms.size()) {
        ground[atom.relation].insert(std::move(fact));
      } else {
        whole.insert(atom.relation);
      }
    }
    for (const std::string& c : leaf->ConstantSymbols()) {
      if (!vocab.IsInputConstant(c)) whole.insert(c);
    }
  }
  std::vector<DbProbe> probes;
  for (const std::string& name : whole) {
    probes.push_back(DbProbe{vocab.FindRelation(name) != nullptr
                                 ? DbProbe::Kind::kRelation
                                 : DbProbe::Kind::kConstant,
                             InternName(name),
                             {}});
  }
  for (const auto& [name, facts] : ground) {
    if (whole.count(name) > 0) continue;
    for (const Tuple& fact : facts) {
      probes.push_back(DbProbe{DbProbe::Kind::kFact, InternName(name), fact});
    }
  }
  return probes;
}

}  // namespace

bool SliceByDefault() {
  static const bool enabled = !EnvFlagSet("WSV_DISABLE_SLICE");
  return enabled;
}

bool OnTheFlyEnabled() { return true; }

Status ValidateVerifyOptions(const LtlVerifyOptions& options) {
  if (options.force_eager) {
    return Status::InvalidArgument(
        "force_eager: the eager verification engine was removed");
  }
  return Status::OK();
}

std::vector<Value> ResolveConstantPool(const WebService& service,
                                       const TemporalProperty& property,
                                       const Instance& database,
                                       const LtlVerifyOptions& options) {
  return InputConstantPool(options.graph.constant_pool, service, database,
                           property.formula->Literals(),
                           options.extra_constant_values);
}

std::vector<Value> ResolveClosureCandidates(const WebService& service,
                                            const TemporalProperty& property,
                                            const Instance& database,
                                            const LtlVerifyOptions& options) {
  if (!options.closure_candidates.empty()) {
    return options.closure_candidates;
  }
  // The pool, and what an unpinned pool draws from besides typed values.
  std::set<Value> candidates;
  for (const std::vector<Value>& values :
       {ResolveConstantPool(service, property, database, options),
        InputConstantPool({}, service, database, property.formula->Literals(),
                          /*typed_values=*/0)}) {
    candidates.insert(values.begin(), values.end());
  }
  return std::vector<Value>(candidates.begin(), candidates.end());
}

LtlVerifyOptions SlicedCheckOptions(const LtlVerifyOptions& base,
                                    const WebService& original,
                                    const TemporalProperty& property,
                                    const Instance& database) {
  LtlVerifyOptions opts = base;
  // Pin the pool and the candidate list to what the *original* service
  // resolves: the sliced service has fewer rule literals, and a
  // different candidate list would renumber the valuation index space.
  opts.graph.constant_pool =
      ResolveConstantPool(original, property, database, base);
  opts.closure_candidates =
      ResolveClosureCandidates(original, property, database, base);
  return opts;
}

std::set<std::string> TrackedPrevRelations(const WebService& service,
                                           const TemporalProperty& property) {
  // Track only the Prev_I relations the rules or the property observe.
  std::set<std::string> tracked = Stepper::PrevRelationsInRules(service);
  for (const FormulaPtr& leaf : property.formula->FoLeaves()) {
    for (const Atom& atom : leaf->Atoms()) {
      if (atom.prev) tracked.insert(atom.relation);
    }
  }
  return tracked;
}

StatusOr<BuchiAutomaton> BuildNegatedAutomaton(
    const WebService& service, const TemporalProperty& property,
    bool require_input_bounded) {
  if (!property.formula->IsLtl()) {
    return Status::InvalidArgument(
        "property contains path quantifiers; use the branching-time "
        "checkers");
  }
  if (require_input_bounded) {
    WSV_RETURN_IF_ERROR(CheckInputBoundedService(service));
    WSV_RETURN_IF_ERROR(CheckInputBoundedProperty(property, service.vocab()));
  }
  WSV_SPAN("automata/build_negated");
  TFormulaPtr negated =
      ToNegationNormalForm(*TFormula::Not(property.formula));
  WSV_ASSIGN_OR_RETURN(BuchiAutomaton gba, LtlToBuchi(*negated));
  BuchiAutomaton automaton = gba.Degeneralize();
  WSV_COUNT("automata/buchi_states", automaton.size());
  WSV_COUNT("automata/fo_leaves", automaton.leaves.size());
  return automaton;
}

StatusOr<LtlDatabaseCheck> LtlDatabaseCheck::Create(
    const WebService* service, const LtlVerifyOptions& options,
    const TemporalProperty* property, const BuchiAutomaton* automaton,
    const Instance& database, bool abort_on_lasso) {
  auto owned = std::make_unique<Instance>(database);
  const DecidedDatabase decided(owned.get());
  return Build(service, options, property, automaton, decided,
               abort_on_lasso, std::move(owned));
}

StatusOr<LtlDatabaseCheck> LtlDatabaseCheck::Create(
    const WebService* service, const LtlVerifyOptions& options,
    const TemporalProperty* property, const BuchiAutomaton* automaton,
    const DecidedDatabase& database, bool abort_on_lasso) {
  return Build(service, options, property, automaton, database,
               abort_on_lasso, nullptr);
}

StatusOr<LtlDatabaseCheck> LtlDatabaseCheck::Build(
    const WebService* service, const LtlVerifyOptions& options,
    const TemporalProperty* property, const BuchiAutomaton* automaton,
    const DecidedDatabase& database, bool abort_on_lasso,
    std::unique_ptr<Instance> owned) {
  WSV_SPAN("verify/db_check_create");
  WSV_COUNT1("verify/databases");
  LtlDatabaseCheck check;
  check.service_ = service;
  check.property_ = property;
  check.automaton_ = automaton;
  check.owned_database_ = std::move(owned);
  check.database_ = std::make_unique<DecidedDatabase>(database);
  // Every database the check can decide has this domain, so the pool and
  // the candidates resolve alike on all of them.
  const Instance& db = database.facts();

  // The stepper is owned by the context: sweeps generate successors
  // long after Create returns.
  check.stepper_ = std::make_unique<Stepper>(service, &db);
  WSV_RETURN_IF_ERROR(check.stepper_->status());
  check.stepper_->SetTrackedPrev(TrackedPrevRelations(*service, *property));
  check.pages_ = std::make_unique<const PagePropositions>(*service);

  // Candidate values for input constants: the database's active domain,
  // the rule/property literals, plus fresh "typed by the user" values.
  ConfigGraphOptions graph_options = options.graph;
  graph_options.constant_pool =
      ResolveConstantPool(*service, *property, db, options);
  graph_options.database = check.database_.get();
  if (!database.complete()) {
    graph_options.decide_first = LeafProbes(*service, *automaton);
  }
  check.graph_options_ = graph_options;

  check.abort_on_lasso_ = abort_on_lasso;
  check.class_collapse_ = options.class_collapse;

  // Valuation candidates for the universal closure variables: everything
  // that can occur in a run's active domain — the database, rule and
  // property literals, and the input-constant pool — unless the caller
  // restricted them.
  check.cand_ = ResolveClosureCandidates(*service, *property, db, options);

  const std::vector<std::string>& vars = property->universal_vars;
  const uint64_t c = check.cand_.size();
  check.stride_.assign(vars.size(), 1);
  if (vars.empty()) {
    check.num_valuations_ = 1;
  } else if (c == 0) {
    check.num_valuations_ = 0;  // vacuously no violating valuation
  } else {
    uint64_t n = 1;
    for (size_t k = 0; k < vars.size(); ++k) {
      check.stride_[k] = n;
      if (n > UINT64_MAX / c) {
        return Status::ResourceExhausted(
            "closure valuation space overflows a 64-bit index; restrict "
            "closure_candidates");
      }
      n *= c;
    }
    check.num_valuations_ = n;
  }

  // Classify leaves by the closure variables they mention.
  const size_t num_leaves = automaton->leaves.size();
  check.leaf_vars_.resize(num_leaves);
  check.leaf_qfree_.resize(num_leaves, 0);
  check.domain_relevant_.resize(num_leaves);
  // Database-domain membership of each candidate is leaf-independent;
  // scan the domain once instead of once per leaf.
  std::vector<char> cand_in_db(check.cand_.size(), 0);
  for (size_t i = 0; i < check.cand_.size(); ++i) {
    cand_in_db[i] = db.InDomain(check.cand_[i]) ? 1 : 0;
    if (!vars.empty()) {
      check.cand_pos_.emplace(check.cand_[i], static_cast<int32_t>(i));
    }
  }
  const bool distinct_cands = check.cand_pos_.size() == check.cand_.size();
  check.leaf_heads_.resize(num_leaves);
  check.leaf_complement_.resize(num_leaves, 0);
  check.leaf_progs_.resize(num_leaves);
  check.leaf_query_progs_.resize(num_leaves);
  for (size_t k = 0; k < num_leaves; ++k) {
    WSV_ASSIGN_OR_RETURN(check.leaf_progs_[k],
                         fobc::GetOrCompileBool(automaton->leaves[k]));
    std::set<std::string> free = automaton->leaves[k]->FreeVariables();
    check.leaf_vars_[k].reserve(vars.size());
    for (size_t p = 0; p < vars.size(); ++p) {
      if (free.count(vars[p]) > 0) check.leaf_vars_[k].push_back(p);
    }
    check.leaf_qfree_[k] = automaton->leaves[k]->IsQuantifierFree() ? 1 : 0;
    std::vector<std::string> heads;
    for (size_t p : check.leaf_vars_[k]) heads.push_back(vars[p]);
    // A repeated closure-variable name cannot head a query.
    if (!heads.empty() && distinct_cands &&
        std::set<std::string>(heads.begin(), heads.end()).size() ==
            heads.size()) {
      const FormulaPtr& leaf = automaton->leaves[k];
      FormulaPtr negated = ToNNF(*Formula::Not(leaf));
      const bool complement = QueryDomainLoops(*negated, heads) <
                              QueryDomainLoops(*leaf, heads);
      check.leaf_complement_[k] = complement ? 1 : 0;
      WSV_ASSIGN_OR_RETURN(
          check.leaf_query_progs_[k],
          fobc::GetOrCompileQuery(complement ? negated : leaf, heads));
      check.leaf_heads_[k] = std::move(heads);
    }
    // A candidate value can influence this leaf through the active
    // domain only if neither the database nor the leaf's own literals
    // already provide it (every evaluation context contains both).
    const std::set<Value> lits = automaton->leaves[k]->Literals();
    std::vector<char>& relevant = check.domain_relevant_[k];
    relevant.assign(check.cand_.size(), 0);
    for (size_t i = 0; i < check.cand_.size(); ++i) {
      relevant[i] =
          (!cand_in_db[i] && lits.count(check.cand_[i]) == 0) ? 1 : 0;
    }
  }

  // Index the automaton for the product hot path: states grouped by
  // their packed leaf-truth label, and the successor relation as
  // per-state bitsets.
  const size_t num_states = automaton->size();
  Bitset label(num_leaves);
  for (size_t q = 0; q < num_states; ++q) {
    label.Resize(num_leaves);
    for (size_t k = 0; k < num_leaves; ++k) {
      if (automaton->states[q][k]) label.Set(k);
    }
    check.label_index_[label].push_back(static_cast<int>(q));
  }
  check.succ_bits_.resize(num_states);
  for (size_t q = 0; q < num_states; ++q) {
    check.succ_bits_[q].Resize(num_states);
    for (int s : automaton->succ[q]) check.succ_bits_[q].Set(s);
  }
  return check;
}

StatusOr<std::optional<IndexedCounterExample>>
LtlDatabaseCheck::CheckValuations(uint64_t begin, uint64_t end,
                                  const std::function<bool(uint64_t)>& stop,
                                  uint64_t* product_states) const {
  WSV_SPAN("verify/check_valuations");
  // The sweep's deferred counts reach the registry by its end at the
  // latest, whichever way it ends.
  obs::PublishDeferredAtExit publish;
  const std::vector<std::string>& vars = property_->universal_vars;
  const size_t num_leaves = automaton_->leaves.size();
  const uint64_t c = cand_.size();
  if (end > num_valuations_) end = num_valuations_;
  const bool collapse = class_collapse_;

  // One lazy graph per sweep call: configurations are stepped only when
  // a nested DFS reaches them, and everything this call expands stays
  // local to it — concurrent sweeps of one context never share mutable
  // state. The graph's cancellation hook additionally honors `stop` with
  // the index currently being swept, so a mid-search better-witness
  // signal aborts expansion too.
  uint64_t current_index = begin;
  ConfigGraphOptions gopts = graph_options_;
  const std::function<bool()> base_cancel = gopts.cancel_check;
  const std::function<bool(uint64_t)>& stop_ref = stop;
  gopts.cancel_check = [&base_cancel, &stop_ref, &current_index]() {
    if (base_cancel && base_cancel()) return true;
    return stop_ref && stop_ref(current_index);
  };
  LazyConfigGraph lazy(stepper_.get(), gopts);
  const ConfigGraph& graph = lazy.graph();

  // Fold this call's graph into the context-wide totals on every exit
  // path (counterexample, cancellation, error, clean finish).
  struct GraphAccounting {
    const LazyConfigGraph& lazy;
    OtfTotals* totals;
    ~GraphAccounting() {
      totals->nodes.fetch_add(lazy.graph().nodes.size(),
                              std::memory_order_relaxed);
      if (lazy.truncated()) {
        totals->truncated.store(true, std::memory_order_relaxed);
      }
    }
  } accounting{lazy, otf_totals_.get()};

  // Truth columns over the *prefix* of edges evaluated so far. Columns
  // are identified by address (the deque keeps them stable) and extended
  // on demand: a column's bits are meaningful on [0, upto).
  struct LeafCol {
    Bitset bits;
    size_t upto = 0;
    /// The binding the column is evaluated under. Only the projection
    /// onto the leaf's free variables (plus the domain extension — see
    /// the memo key) can influence the truth, so sharing the column
    /// across valuations with the same key is exact.
    Valuation val;
    /// Set: the column is gathered from its leaf's table (below) at this
    /// projection point instead of evaluated per binding.
    std::optional<uint64_t> point;
  };
  std::deque<LeafCol> col_store;
  std::vector<LeafCol*> static_col(num_leaves, nullptr);
  std::vector<std::unordered_map<std::vector<int32_t>, LeafCol*,
                                 VectorKeyHash<int32_t>>>
      memo(num_leaves);

  // Set-at-a-time leaf tables (DESIGN.md §6f). A leaf with closure
  // variables runs once per edge as a query whose head is its free
  // closure variables; the answer is recorded per projection point (the
  // candidate digits on those variables, packed by stride_), and every
  // binding column of the leaf is filled from it by bit gather — one
  // query per edge instead of one evaluation per binding. A binding
  // reads its point exactly when the query saw the domain a per-binding
  // evaluation would see: always for a quantifier-free leaf (the query's
  // domain holds every candidate, and QF truth ignores the domain), and
  // for other leaves when no value of the valuation extends the domain
  // (the memo key's empty extension tail; the query then adds no
  // candidate either). Other bindings keep per-binding columns.
  struct LeafTable {
    /// Per projection point in some answer: the edges it answered at.
    std::unordered_map<uint64_t, Bitset> answered;
    Bitset queried;     // edges the query has run at
    Bitset unprovided;  // ... of which condition (a) failed: all false
  };
  std::vector<LeafTable> tables(num_leaves);
  const std::vector<Value> no_values;
  // The step context of the edge queried last, shared by every leaf
  // queried there. Its pointers lead into the lazy graph's store, whose
  // parts never move, so it stays valid however the graph grows.
  struct {
    size_t edge = 0;
    std::optional<StepContext> ctx;
  } step_cache;
  std::vector<Value> rows;  // query answer scratch

  auto query_edges = [&](size_t k, size_t from, size_t n,
                         LeafBatchTimer& timer) -> Status {
    LeafTable& table = tables[k];
    table.queried.GrowTo(n);
    table.unprovided.GrowTo(n);
    for (size_t e = from; e < n; ++e) {
      if (table.queried.Test(e)) continue;
      timer.Start(/*per_binding=*/false);
      if (!step_cache.ctx.has_value() || step_cache.edge != e) {
        step_cache.ctx.emplace(
            graph.View(static_cast<int>(e)),
            graph.EdgeDatabase(static_cast<int>(e)).facts(), *service_,
            *pages_);
        step_cache.edge = e;
      }
      WSV_ASSIGN_OR_RETURN(
          bool provided,
          QueryFoAtStep(*leaf_query_progs_[k], *step_cache.ctx,
                        leaf_qfree_[k] ? cand_ : no_values, &rows));
      WSV_COUNT1_DEFERRED("ltl/fo_leaf_queries");
      table.queried.Set(e);
      if (!provided) table.unprovided.Set(e);
      const size_t arity = leaf_heads_[k].size();
      for (size_t r = 0; r < rows.size(); r += arity) {
        // Values outside the candidates bind no valuation; values that
        // extend the domain of a non-QF leaf bind only fallback ones.
        uint64_t point = 0;
        bool bindable = true;
        for (size_t j = 0; j < arity && bindable; ++j) {
          auto it = cand_pos_.find(rows[r + j]);
          bindable = it != cand_pos_.end() &&
                     (leaf_qfree_[k] ||
                      !domain_relevant_[k][static_cast<size_t>(it->second)]);
          if (bindable) point += static_cast<uint64_t>(it->second) * stride_[j];
        }
        if (!bindable) continue;
        Bitset& answered = table.answered[point];
        answered.GrowTo(e + 1);
        answered.Set(e);
      }
    }
    return Status::OK();
  };

  // The FO work that covering edges [from, n) needs for `col`, timed
  // into `timer`: for a point-backed column the leaf's queries at those
  // edges (extend_col then reads the column from the leaf table), else
  // the binding's own evaluation at each edge the column lacks. FO leaf
  // time is recorded per batch of edges, not per edge.
  auto evaluate_col = [&](size_t k, LeafCol* col, size_t from, size_t n,
                          LeafBatchTimer& timer) -> Status {
    if (col->upto >= n) return Status::OK();
    if (col->point.has_value()) return query_edges(k, from, n, timer);
    timer.Start(/*per_binding=*/true);
    col->bits.GrowTo(n);
    for (size_t e = col->upto; e < n; ++e) {
      TraceView view = graph.View(static_cast<int>(e));
      WSV_ASSIGN_OR_RETURN(
          bool b, EvalFoAtStep(*automaton_->leaves[k], leaf_progs_[k].get(),
                               view,
                               graph.EdgeDatabase(static_cast<int>(e)).facts(),
                               *service_, *pages_, col->val));
      col->bits.Set(e, b);
    }
    WSV_COUNT_DEFERRED("ltl/fo_leaf_evals", n - col->upto);
    if (!leaf_vars_[k].empty()) {
      WSV_COUNT_DEFERRED("ltl/fo_leaf_fallbacks", n - col->upto);
    }
    col->upto = n;
    return Status::OK();
  };

  // Extends `col` to cover edges [0, n): its FO work as one timed batch,
  // then, for a point-backed column, the bits from the leaf's table.
  auto extend_col = [&](size_t k, LeafCol* col, size_t n) -> Status {
    if (col->upto >= n) return Status::OK();
    {
      LeafBatchTimer timer;
      WSV_RETURN_IF_ERROR(evaluate_col(k, col, col->upto, n, timer));
    }
    if (!col->point.has_value()) return Status::OK();
    col->bits.GrowTo(n);
    const LeafTable& table = tables[k];
    auto it = table.answered.find(*col->point);
    const Bitset* answered =
        it == table.answered.end() ? nullptr : &it->second;
    for (size_t e = col->upto; e < n; ++e) {
      const bool in_answer =
          answered != nullptr && e < answered->size() && answered->Test(e);
      col->bits.Set(e, !table.unprovided.Test(e) &&
                           in_answer != (leaf_complement_[k] != 0));
    }
    col->upto = n;
    return Status::OK();
  };

  // Valuation equivalence classes, on-the-fly flavor: a class remembers
  // its leaf columns and how many edges existed right after its
  // representative's search (`edges_at_close`). The search only ever
  // consulted labels of edges below that bound, and per-node out-edge
  // lists don't depend on expansion timing — so a later valuation whose
  // columns agree with the class on [0, edges_at_close) would reproduce
  // the search verbatim and inherits its verdict (and lasso). At most
  // one class can match: classes are closed in sweep order, and a new
  // class differs from every earlier one within the earlier bound.
  struct OtfClass {
    std::vector<LeafCol*> cols;
    size_t edges_at_close = 0;
    bool violating = false;
    LassoRun run;
    std::set<Value> dom;
    /// The database the lasso runs on: its cycle's, constant along it.
    const DecidedDatabase* database = nullptr;
  };
  std::deque<OtfClass> classes;  // deque: outcome pointers stay stable

  // Automaton-side lookups hoisted out of the sweep.
  const std::set<int>& acc_set = automaton_->accepting_sets.front();
  std::vector<char> q_acc(automaton_->size(), 0);
  for (int q : acc_set) q_acc[static_cast<size_t>(q)] = 1;

  std::vector<int32_t> digits(vars.size(), 0);
  std::vector<LeafCol*> val_cols(num_leaves, nullptr);
  std::vector<int32_t> memo_key;
  memo_key.reserve(2 * vars.size() + 1);
  Bitset label_scratch;

  // Product search storage, reused by every search of the sweep: the
  // vertices (edge, automaton state) in id order, their index, every
  // vertex's successor list in one append-only array (a vertex's range
  // is kUnexpanded until the search asks for it), and the states
  // matching each labelled edge.
  std::vector<std::pair<int, int>> verts;
  FlatIdIndex vert_index;
  std::vector<int> succ_store;
  std::vector<SuccRange> succ_range;
  std::vector<const std::vector<int>*> matching;

  for (uint64_t i = begin; i < end; ++i) {
    current_index = i;
    if (stop && stop(i)) {
      WSV_COUNT1("ltl/valuation_sweeps_cancelled");
      return Status::Cancelled("valuation sweep cancelled at index " +
                               std::to_string(i));
    }
    WSV_COUNT1("ltl/valuations_checked");
    for (size_t k = 0; k < vars.size(); ++k) {
      digits[k] = static_cast<int32_t>((i / stride_[k]) % c);
    }
    Valuation valuation;
    auto ensure_valuation = [&] {
      if (valuation.empty() && !vars.empty()) {
        for (size_t k = 0; k < vars.size(); ++k) {
          valuation[vars[k]] = cand_[static_cast<size_t>(digits[k])];
        }
      }
    };

    // Resolve each leaf's column. The memo key is the projection of the
    // valuation onto the leaf's free variables plus the sorted set of
    // domain-relevant candidate digits (the only other channel a closure
    // value can reach the leaf through). Quantifier-free leaves skip the
    // extension: they never iterate the active domain, so extending it
    // cannot change their truth.
    for (size_t k = 0; k < num_leaves; ++k) {
      if (leaf_vars_[k].empty()) {
        if (static_col[k] == nullptr) {
          col_store.emplace_back();
          static_col[k] = &col_store.back();
          WSV_COUNT1("ltl/static_leaf_cols");
        }
        val_cols[k] = static_col[k];
        continue;
      }
      memo_key.clear();
      for (size_t p : leaf_vars_[k]) memo_key.push_back(digits[p]);
      memo_key.push_back(-1);  // separator: bindings | domain extension
      if (!leaf_qfree_[k]) {
        const size_t ext_begin = memo_key.size();
        for (int32_t d : digits) {
          if (domain_relevant_[k][static_cast<size_t>(d)]) {
            memo_key.push_back(d);
          }
        }
        std::sort(memo_key.begin() + ext_begin, memo_key.end());
        memo_key.erase(
            std::unique(memo_key.begin() + ext_begin, memo_key.end()),
            memo_key.end());
      }
      auto it = memo[k].find(memo_key);
      if (it == memo[k].end()) {
        WSV_COUNT1("ltl/leaf_memo_misses");
        col_store.emplace_back();
        LeafCol* col = &col_store.back();
        if (!leaf_heads_[k].empty() && memo_key.back() == -1) {
          // No domain extension: the binding reads its table point.
          uint64_t point = 0;
          for (size_t j = 0; j < leaf_vars_[k].size(); ++j) {
            point += static_cast<uint64_t>(digits[leaf_vars_[k][j]]) *
                     stride_[j];
          }
          col->point = point;
        } else {
          ensure_valuation();
          col->val = valuation;
        }
        it = memo[k].emplace(memo_key, col).first;
        WSV_COUNT1("ltl/leaf_memo_entries");
      } else {
        WSV_COUNT1("ltl/leaf_memo_hits");
      }
      val_cols[k] = it->second;
    }

    // Class lookup by column prefix (pointer equality short-circuits the
    // common case of a shared memoized column).
    OtfClass* outcome = nullptr;
    if (collapse) {
      for (OtfClass& cls : classes) {
        bool same = true;
        for (size_t k = 0; k < num_leaves && same; ++k) {
          if (cls.cols[k] == val_cols[k]) continue;
          WSV_RETURN_IF_ERROR(extend_col(k, cls.cols[k], cls.edges_at_close));
          WSV_RETURN_IF_ERROR(extend_col(k, val_cols[k], cls.edges_at_close));
          if (!cls.cols[k]->bits.PrefixEquals(val_cols[k]->bits,
                                              cls.edges_at_close)) {
            same = false;
          }
        }
        if (same) {
          outcome = &cls;
          break;
        }
      }
    }

    OtfClass local;  // the outcome buffer in naive (no-collapse) mode
    if (outcome != nullptr) {
      WSV_COUNT1("ltl/class_hits");
      WSV_COUNT1("ltl/products_skipped");
    } else {
      WSV_SPAN("ltl/product");

      // The on-the-fly product search. Vertices (edge, automaton state)
      // are interned as the nested DFS reaches them; asking for a
      // vertex's successors is what expands the configuration graph.
      // The vertex index and the successor lists are sweep-wide storage,
      // cleared per search in O(1): they keep the capacity of the
      // sweep's largest search.
      verts.clear();
      vert_index.clear();
      succ_store.clear();
      succ_range.clear();
      matching.clear();

      auto vid = [&](int e, int q) {
        bool added = false;
        const int id = vert_index.FindOrInsert(
            PackInts(e, q), static_cast<int>(verts.size()),
            [&](int u) {
              return verts[static_cast<size_t>(u)] == std::make_pair(e, q);
            },
            &added);
        if (added) {
          verts.emplace_back(e, q);
          succ_range.push_back(kUnexpanded);
        }
        return id;
      };

      // Labels every out-edge of the expanded node `v` with the
      // automaton states whose label matches the edge's leaf truth, once
      // per search. The leaves' FO work over the node's edges is one
      // timed batch, run edge by edge (the leaves queried at an edge
      // share its step context).
      auto label_out_edges = [&](int v) -> Status {
        const EdgeRange out = graph.out_edges[static_cast<size_t>(v)];
        if (out.empty()) return Status::OK();
        const size_t first = static_cast<size_t>(*out.begin());
        const size_t end = first + out.size();
        if (matching.size() < end) matching.resize(end, nullptr);
        if (matching[first] != nullptr) return Status::OK();
        {
          LeafBatchTimer timer;
          for (size_t e = first; e < end; ++e) {
            for (size_t k = 0; k < num_leaves; ++k) {
              LeafCol* col = val_cols[k];
              WSV_RETURN_IF_ERROR(evaluate_col(
                  k, col, e == first ? col->upto : e, e + 1, timer));
            }
          }
        }
        for (size_t k = 0; k < num_leaves; ++k) {
          WSV_RETURN_IF_ERROR(extend_col(k, val_cols[k], end));
        }
        for (size_t e = first; e < end; ++e) {
          label_scratch.Resize(num_leaves);
          for (size_t k = 0; k < num_leaves; ++k) {
            if (val_cols[k]->bits.Test(e)) label_scratch.Set(k);
          }
          auto it = label_index_.find(label_scratch);
          matching[e] =
              it == label_index_.end() ? &kNoMatchingStates : &it->second;
        }
        return Status::OK();
      };

      auto succ_fn = [&](int v) -> StatusOr<SuccRange> {
        SuccRange& range = succ_range[static_cast<size_t>(v)];
        if (range.begin != kUnexpanded.begin) return range;
        const auto [e, q] = verts[static_cast<size_t>(v)];
        const int to = graph.edges[static_cast<size_t>(e)].to;
        // An unexpanded node (budget hit) is a dead end: the graph is
        // then a truncated prefix of the real one.
        WSV_ASSIGN_OR_RETURN(bool expanded, lazy.EnsureExpanded(to));
        (void)expanded;
        WSV_RETURN_IF_ERROR(label_out_edges(to));
        const uint32_t from = static_cast<uint32_t>(succ_store.size());
        const Bitset& q_succ = succ_bits_[q];
        for (int e2 : graph.out_edges[static_cast<size_t>(to)]) {
          for (int q2 : *matching[static_cast<size_t>(e2)]) {
            if (q_succ.Test(q2)) succ_store.push_back(vid(e2, q2));
          }
        }
        // vid may have grown succ_range: index it afresh.
        SuccRange& stored = succ_range[static_cast<size_t>(v)];
        stored = SuccRange{from, static_cast<uint32_t>(succ_store.size())};
        return stored;
      };

      // Initial vertices: the initial configuration's out-edges paired
      // with initial automaton states whose label matches.
      auto init_or = lazy.EnsureExpanded(lazy.initial());
      std::vector<int> initial_verts;
      Status search_status = init_or.status();
      std::optional<Lasso> lasso;
      SearchStats search_stats;
      if (search_status.ok()) search_status = label_out_edges(lazy.initial());
      if (search_status.ok()) {
        for (int e : graph.out_edges[static_cast<size_t>(lazy.initial())]) {
          for (int q : *matching[static_cast<size_t>(e)]) {
            if (automaton_->initial[static_cast<size_t>(q)]) {
              initial_verts.push_back(vid(e, q));
            }
          }
        }
      }
      if (search_status.ok()) {
        SearchProblem problem;
        problem.initial = std::move(initial_verts);
        problem.successors = &succ_store;
        problem.succ = succ_fn;
        problem.accepting = [&](int v) {
          return q_acc[static_cast<size_t>(
                     verts[static_cast<size_t>(v)].second)] != 0;
        };
        problem.stop = [&]() { return stop && stop(current_index); };
        auto lasso_or = FindLassoNestedDfs(problem, &search_stats);
        if (lasso_or.ok()) {
          lasso = std::move(*lasso_or);
        } else {
          search_status = lasso_or.status();
        }
      }
      if (!search_status.ok()) {
        if (search_status.code() == StatusCode::kCancelled) {
          WSV_COUNT1("ltl/valuation_sweeps_cancelled");
        }
        return search_status;
      }

      const size_t nv = verts.size();
      if (product_states != nullptr) *product_states += nv;
      WSV_COUNT1("ltl/products_built");
      WSV_COUNT("ltl/product_states", nv);
      WSV_COUNT("ltl/otf_states_created", nv);
      WSV_HIST("ltl/peak_product_states", nv);
      WSV_HIST("ltl/otf_dfs_depth", search_stats.max_depth);

      if (lasso.has_value()) {
        WSV_COUNT1("ltl/otf_early_exits");
        LassoRun run;
        for (int v : lasso->prefix) {
          run.steps.push_back(
              graph.Materialize(verts[static_cast<size_t>(v)].first));
        }
        run.loop_start = lasso->prefix.size() - 1;
        for (size_t j = 1; j < lasso->cycle.size(); ++j) {
          run.steps.push_back(graph.Materialize(
              verts[static_cast<size_t>(lasso->cycle[j])].first));
        }
        local.violating = true;
        local.database = &graph.EdgeDatabase(
            verts[static_cast<size_t>(lasso->prefix.back())].first);
        local.dom = LassoDomain(run, database_->facts());
        std::set<Value> lits = property_->formula->Literals();
        local.dom.insert(lits.begin(), lits.end());
        local.run = std::move(run);
      }
      if (collapse) {
        WSV_COUNT1("ltl/valuation_classes");
        local.cols = val_cols;
        local.edges_at_close = graph.edges.size();
        classes.push_back(std::move(local));
        outcome = &classes.back();
      } else {
        outcome = &local;
      }
    }

    if (!outcome->violating) continue;

    if (abort_on_lasso_) {
      // Sliced first phase: an accepting lasso exists here, but its
      // faithfulness is not slicing-invariant — report the index and
      // let the caller re-check the full spec from it.
      WSV_COUNT1("slice/lasso_bailouts");
      IndexedCounterExample found;
      found.valuation_index = i;
      found.lasso_only = true;
      return std::optional<IndexedCounterExample>(std::move(found));
    }

    // Faithfulness check: the closure valuation must range over
    // Dom(rho) ∪ property literals; discard spurious witnesses using pool
    // values that never occur in the run or database. The lasso is
    // class-invariant, but spuriousness is not — every valuation of a
    // violating class takes this check individually.
    bool in_dom = true;
    for (size_t k = 0; k < vars.size(); ++k) {
      if (outcome->dom.count(cand_[static_cast<size_t>(digits[k])]) == 0) {
        in_dom = false;
      }
    }
    if (!in_dom) {
      WSV_COUNT1("ltl/spurious_witnesses");
      continue;
    }
    WSV_COUNT1("ltl/counterexamples_found");
    ensure_valuation();
    IndexedCounterExample found;
    found.valuation_index = i;
    found.cex.database = outcome->database->Completion();
    found.cex.run = outcome->run;
    found.cex.valuation = std::move(valuation);
    return std::optional<IndexedCounterExample>(std::move(found));
  }
  return std::optional<IndexedCounterExample>(std::nullopt);
}

namespace {

// What the front end computes once per Verify/VerifyOnDatabase call;
// both phases of the check read it.
struct Plan {
  const TemporalProperty* property = nullptr;
  BuchiAutomaton automaton;
  // The property cone reduction of the service; null when slicing is off
  // or the slice is the identity.
  std::unique_ptr<WebService> sliced;
};

// A sweep of one check's valuations [from, NumValuations()): the
// lowest-index event in that range — a counterexample, a lasso marker
// (abort-on-lasso checks) or an error — or nullopt if there is none.
// `product_states` accumulates the sizes of the products built.
using ValuationSweep =
    std::function<StatusOr<std::optional<IndexedCounterExample>>(
        const LtlDatabaseCheck& check, uint64_t from,
        uint64_t* product_states)>;

// The sweep as one CheckValuations call, polling `stop` per valuation.
ValuationSweep WholeSweep(std::function<bool(uint64_t)> stop) {
  return [stop = std::move(stop)](const LtlDatabaseCheck& check,
                                  uint64_t from, uint64_t* product_states) {
    return check.CheckValuations(from, check.NumValuations(), stop,
                                 product_states);
  };
}

// Adds one check's graph size and truncation, read after its sweep.
void AddGraphTotals(const LtlDatabaseCheck& check, LtlVerifyResult* totals) {
  totals->total_graph_nodes += check.graph_nodes();
  if (check.truncated()) totals->complete_within_bounds = false;
}

// The two-phase check (DESIGN.md §10) on `database`, fixed or decided
// during the search. Phase 1 sweeps the sliced spec in abort-on-lasso
// mode: a range with no accepting lasso on the sliced graph has none on
// the full graph either (the sliced graph is its quotient), so a
// lasso-free probe decides the check outright. Otherwise the full-spec
// sweep resumes at the first lasso index. Returns the full sweep's
// event; graph, product and truncation accounting of both phases lands
// in `totals`.
StatusOr<std::optional<IndexedCounterExample>> CheckDatabase(
    const WebService& service, const LtlVerifyOptions& options,
    const Plan& plan, const DecidedDatabase& database,
    const ValuationSweep& sweep, LtlVerifyResult* totals) {
  uint64_t from = 0;
  if (plan.sliced != nullptr) {
    WSV_ASSIGN_OR_RETURN(
        LtlDatabaseCheck probe,
        LtlDatabaseCheck::Create(
            plan.sliced.get(),
            SlicedCheckOptions(options, service, *plan.property,
                               database.facts()),
            plan.property, &plan.automaton, database,
            /*abort_on_lasso=*/true));
    auto marker = sweep(probe, 0, &totals->total_product_states);
    AddGraphTotals(probe, totals);
    if (!marker.ok() || !marker->has_value()) return marker;
    from = (**marker).valuation_index;
  }
  WSV_ASSIGN_OR_RETURN(LtlDatabaseCheck check,
                       LtlDatabaseCheck::Create(&service, options,
                                                plan.property,
                                                &plan.automaton, database,
                                                /*abort_on_lasso=*/false));
  auto found = sweep(check, from, &totals->total_product_states);
  AddGraphTotals(check, totals);
  return found;
}

// The winning event of a sweep whose tasks are keyed by an index (the
// first valuation of a chunk): the lowest-keyed counterexample or error
// offered so far. `best_` doubles as the cancellation signal workers
// poll (UINT64_MAX: no event yet); the outcome is only touched under
// `mu_`.
class EventBoard {
 public:
  // Whether an event keyed below `key` has landed: work at `key` can no
  // longer win.
  bool Beaten(uint64_t key) const {
    return best_.load(std::memory_order_relaxed) < key;
  }
  bool Settled() const { return Beaten(UINT64_MAX); }
  uint64_t best() const { return best_.load(std::memory_order_relaxed); }

  // Offers the outcome of the task keyed `key`. A task that found
  // nothing, or was cancelled because it could no longer win, offers
  // nothing. Returns true if the outcome is the new winner; the caller
  // then cancels the work that can no longer win.
  bool Offer(uint64_t key,
             StatusOr<std::optional<IndexedCounterExample>>&& outcome) {
    if (outcome.ok() ? !outcome->has_value()
                     : outcome.status().code() == StatusCode::kCancelled &&
                           Beaten(key)) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (key >= best_.load(std::memory_order_relaxed)) return false;
    if (first_event_ns_ == 0) first_event_ns_ = WSV_OBS_NOW();
    best_.store(key, std::memory_order_relaxed);
    outcome_ = std::move(outcome);
    return true;
  }

  // The winner (nullopt if no event landed). Call once the sweep drained.
  StatusOr<std::optional<IndexedCounterExample>> Take() {
    return std::move(outcome_);
  }

  // Time from `start` to the first counterexample, and how long
  // in-flight work took to drain after the first event: the latency the
  // three-layer cancellation is supposed to keep small.
  void RecordTiming([[maybe_unused]] uint64_t start) const {
    if (first_event_ns_ == 0) return;
    if (outcome_.ok() && !(*outcome_)->lasso_only) {
      WSV_HIST("verify/time_to_first_cex_ns", first_event_ns_ - start);
    }
    WSV_HIST("verify/cancel_drain_ns", WSV_OBS_NOW() - first_event_ns_);
  }

 private:
  std::mutex mu_;
  std::atomic<uint64_t> best_{UINT64_MAX};
  StatusOr<std::optional<IndexedCounterExample>> outcome_ =
      std::optional<IndexedCounterExample>();
  uint64_t first_event_ns_ = 0;
};

// The sweep cut into chunks run on a pool of `jobs` workers, lowest
// chunk winning. Each chunk's CheckValuations keeps its own FO-leaf memo
// and class table, so chunking trades collapse for balance: with class
// collapsing on, one contiguous chunk per worker maximizes each chunk's
// collapse rate (and repeats cost next to nothing, so imbalance matters
// little); with the naive sweep forced, oversubscribe 4x so uneven
// valuation costs balance. Work counters sum exactly across chunks
// either way; only their split (memo hits vs misses, classes vs hits)
// depends on the cut. A sweep of one chunk (one valuation left, as in
// every database sweep) runs on the calling thread with no pool.
StatusOr<std::optional<IndexedCounterExample>> ChunkedSweep(
    const LtlDatabaseCheck& check, uint64_t from, int jobs, bool collapse,
    uint64_t start, uint64_t* product_states) {
  const uint64_t n = check.NumValuations();
  if (from >= n) return std::optional<IndexedCounterExample>();
  const uint64_t num_chunks = std::min<uint64_t>(
      n - from, static_cast<uint64_t>(jobs) * (collapse ? 1 : 4));
  const uint64_t chunk = (n - from + num_chunks - 1) / num_chunks;
  EventBoard board;
  std::mutex states_mu;
  // Runs the chunk [begin, end) and offers its outcome; true when the
  // outcome is the new winner.
  auto run_chunk = [&](uint64_t begin, uint64_t end) {
    if (board.Beaten(begin)) return false;
    uint64_t states = 0;
    auto found = check.CheckValuations(
        begin, end, [&board](uint64_t i) { return board.Beaten(i); },
        &states);
    {
      std::lock_guard<std::mutex> lock(states_mu);
      *product_states += states;
    }
    if (!board.Offer(begin, std::move(found))) return false;
    WSV_COUNT1("verify/cancellations_signalled");
    return true;
  };
  if (num_chunks < 2) {
    WSV_COUNT1("verify/valuation_chunks");
    run_chunk(from, n);
  } else {
    ThreadPool pool(jobs);
    for (uint64_t begin = from; begin < n; begin += chunk) {
      const uint64_t end = std::min(n, begin + chunk);
      WSV_COUNT1("verify/valuation_chunks");
      pool.Submit([&, begin, end] {
        if (run_chunk(begin, end)) pool.CancelPending();
      });
    }
    pool.Wait();
  }
  board.RecordTiming(start);
  return board.Take();
}

}  // namespace

LtlVerifier::LtlVerifier(const WebService* service, LtlVerifyOptions options,
                         int jobs)
    : service_(service),
      options_(std::move(options)),
      jobs_(ResolveJobCount(jobs)) {}

StatusOr<LtlVerifyResult> LtlVerifier::Verify(
    const TemporalProperty& property) {
  if (jobs_ == 1) return Run(property, nullptr);
  WSV_SPAN("verify/parallel_sweep");
  return Run(property, nullptr);
}

StatusOr<LtlVerifyResult> LtlVerifier::VerifyOnDatabase(
    const TemporalProperty& property, const Instance& database) {
  if (jobs_ == 1) return Run(property, &database);
  WSV_SPAN("verify/parallel_db_sweep");
  return Run(property, &database);
}

StatusOr<LtlVerifyResult> LtlVerifier::Run(const TemporalProperty& property,
                                           const Instance* database) {
  [[maybe_unused]] const uint64_t start = WSV_OBS_NOW();
  WSV_RETURN_IF_ERROR(ValidateVerifyOptions(options_));
  Plan plan;
  plan.property = &property;
  WSV_ASSIGN_OR_RETURN(
      plan.automaton,
      BuildNegatedAutomaton(*service_, property,
                            options_.require_input_bounded));
  if (options_.enable_slice) {
    plan.sliced = analysis::SlicePropertyCone(*service_, property).service;
  }

  // The database: the given one, fully decided, or every database
  // within options_.db, decided during the search (DESIGN.md §6j).
  DbEnumOptions db_options = options_.db;
  for (Value v : property.formula->Literals()) {
    db_options.base_values.push_back(v);
  }
  const DatabaseSpace space(*service_, db_options, database);

  // At jobs > 1 each phase's valuations are chunked.
  const ValuationSweep sweep =
      jobs_ == 1 ? WholeSweep(nullptr)
                 : ValuationSweep([&](const LtlDatabaseCheck& check,
                                      uint64_t from, uint64_t* states) {
                     return ChunkedSweep(check, from, jobs_,
                                         options_.class_collapse, start,
                                         states);
                   });
  LtlVerifyResult result;
  WSV_ASSIGN_OR_RETURN(
      std::optional<IndexedCounterExample> found,
      CheckDatabase(*service_, options_, plan, space.decided(), sweep,
                    &result));
  if (found.has_value()) {
    result.holds = false;
    result.counterexample = std::move(found->cex);
    // The witness names one database.
    result.databases_checked = 1;
    return result;
  }
  result.databases_checked =
      database != nullptr ? 1 : CountDatabases(*service_, db_options);
  return result;
}

}  // namespace wsv
