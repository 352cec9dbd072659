#include "verify/config_graph.h"

#include <optional>

#include "common/hash.h"
#include "obs/trace.h"
#include "verify/db_enum.h"

namespace wsv {

namespace {

// Edge dedup key within one node: (target node, stored inputs).
struct EdgeKeyHash {
  size_t operator()(const std::pair<int, const Instance*>& key) const {
    return HashCombine(std::hash<const void*>()(key.second),
                       static_cast<size_t>(key.first));
  }
};

// Approximate heap bytes of one hash-index or tree entry (node links,
// key, mapped value, allocator rounding).
constexpr uint64_t kIndexEntryBytes = 4 * sizeof(void*);

uint64_t KappaBytes(const Kappa& kappa) {
  return sizeof(Kappa) + kappa.HeapBytes();
}

size_t KappaHash(const Kappa& kappa) {
  size_t h = 0;
  for (const auto& [name, v] : kappa.entries()) {
    h = HashCombine(h, NameHash(name));
    h = HashCombine(h, ValueHash()(v));
  }
  return h;
}

}  // namespace

template <typename T>
const T* ConfigStore::Pool<T>::Intern(T value, size_t hash, bool* added) {
  auto [first, last] = index.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (*it->second == value) {
      *added = false;
      return it->second;
    }
  }
  const T* stored = &items.emplace_back(std::move(value));
  index.emplace(hash, stored);
  *added = true;
  return stored;
}

const Instance* ConfigStore::Intern(Part part) {
  switch (part.origin()) {
    case Part::Origin::kSource:
      return &part.get();
    case Part::Origin::kPrototype: {
      for (const auto& [prototype, stored] : prototypes_) {
        if (prototype == &part.get()) return stored;
      }
      const Instance* stored = Intern(part.get());
      prototypes_.emplace_back(&part.get(), stored);
      return stored;
    }
    case Part::Origin::kBuilt:
      break;
  }
  return Intern(part.Release());
}

const Instance* ConfigStore::Intern(Instance inst) {
  const size_t hash = inst.Hash();
  bool added = false;
  const Instance* stored = instances_.Intern(std::move(inst), hash, &added);
  if (added) bytes_ += stored->ApproxBytes() + kIndexEntryBytes;
  return stored;
}

const Kappa* ConfigStore::Intern(Kappa kappa) {
  const size_t hash = KappaHash(kappa);
  bool added = false;
  const Kappa* stored = kappas_.Intern(std::move(kappa), hash, &added);
  if (added) bytes_ += KappaBytes(*stored) + kIndexEntryBytes;
  return stored;
}

const DecidedDatabase* ConfigStore::Intern(DecidedDatabase database) {
  const size_t hash = database.Hash();
  bool added = false;
  const DecidedDatabase* stored =
      databases_.Intern(std::move(database), hash, &added);
  if (added) {
    bytes_ += sizeof(DecidedDatabase) + stored->ApproxBytes() +
              kIndexEntryBytes;
  }
  return stored;
}

const std::string* ConfigStore::InternPage(NameId page) {
  for (const auto& [id, stored] : pages_) {
    if (id == page) return stored;
  }
  const std::string* stored = &page_names_.emplace_back(NameOf(page));
  pages_.emplace_back(page, stored);
  bytes_ += sizeof(std::string) + stored->capacity() + kIndexEntryBytes;
  return stored;
}

const std::string* ConfigStore::InternReason(std::string reason) {
  static const std::string* const kNoReason = new std::string();
  if (reason.empty()) return kNoReason;
  const size_t hash = std::hash<std::string>()(reason);
  bool added = false;
  const std::string* stored = reasons_.Intern(std::move(reason), hash, &added);
  if (added) {
    bytes_ += sizeof(std::string) + stored->capacity() + kIndexEntryBytes;
  }
  return stored;
}

TraceView ConfigGraph::View(int e) const {
  const Edge& edge = edges[static_cast<size_t>(e)];
  const ConfigView& from = nodes[static_cast<size_t>(edge.from)];
  TraceView view;
  view.page = from.page;
  view.page_id = page_ids[static_cast<size_t>(edge.from)];
  view.state = from.state;
  view.inputs = edge.inputs;
  view.prev_inputs = from.prev_inputs;
  view.actions = from.actions;
  // kappa_i includes the constants provided at this step, i.e. the
  // successor node's accumulated interpretation.
  view.kappa = nodes[static_cast<size_t>(edge.to)].kappa;
  return view;
}

TraceStep ConfigGraph::Materialize(int e) const {
  TraceView view = View(e);
  TraceStep step;
  step.page = *view.page;
  step.state = *view.state;
  step.inputs = *view.inputs;
  step.prev_inputs = *view.prev_inputs;
  step.actions = *view.actions;
  step.kappa = *view.kappa;
  return step;
}

Config ConfigGraph::MaterializeNode(int v) const {
  return nodes[static_cast<size_t>(v)].Materialize();
}

std::string ConfigGraph::Stats() const {
  // Thin formatting shim over the per-graph fields. The aggregate
  // numbers live in the metrics registry ("config_graph/*" counters,
  // recorded by BuildConfigGraph); prefer those for anything beyond a
  // one-off log line.
  return std::to_string(nodes.size()) + " nodes, " +
         std::to_string(edges.size()) + " edges" +
         (truncated ? " (truncated)" : "");
}

namespace {

// Settles the open database probes of one node's expansion (DESIGN.md
// §6j). A step computed under a database decided in part reports the
// first open part it probed; the step is then redone under each decision
// of that part, in decision order, until it probes nothing open. Every
// refined database is stored. Once the graph is truncated no edge can be
// added any more, so the remaining decisions are skipped.
class Decider {
 public:
  Decider(ConfigStore& store, const bool& truncated)
      : store_(store), truncated_(truncated) {}

  // Runs `attempt(node, log)`, a step under node.database, and hands
  // its result to `cont(refined node, result)` once per refinement of
  // the database that leaves nothing the step probed open. Under a
  // fully decided database this is one attempt, with no log.
  template <typename T, typename Attempt, typename Cont>
  Status Refine(const ConfigView& node, const Attempt& attempt,
                const Cont& cont) {
    std::optional<ProbeLog> log;
    if (!node.database->complete()) log.emplace(node.database);
    StatusOr<T> result = attempt(node, log.has_value() ? &*log : nullptr);
    if (!log.has_value() || !log->first().has_value()) {
      if (!result.ok()) return result.status();
      return cont(node, *result);
    }
    // Whatever the attempt returned, an error included, read an open
    // part: only the redone steps count.
    const DbProbe& probe = *log->first();
    return ForEachDecision(node, probe, [&](const ConfigView& refined) {
      return Refine<T>(refined, attempt, cont);
    });
  }

  // Calls `fn(node)` once per refinement of node.database that decides
  // every part `probes` names.
  template <typename Fn>
  Status DecideFirst(const ConfigView& node, const std::vector<DbProbe>& probes,
                     const Fn& fn) {
    for (const DbProbe& probe : probes) {
      if (!node.database->IsOpen(probe)) continue;
      return ForEachDecision(node, probe, [&](const ConfigView& refined) {
        return DecideFirst(refined, probes, fn);
      });
    }
    return fn(node);
  }

 private:
  // Calls `fn` with `node` on each refinement of its database by one
  // decision of `probe`: a fact false, then true; a database constant
  // each domain value in order; a relation each consistent set of facts
  // within the bound, in EnumerateDatabases order.
  template <typename Fn>
  Status ForEachDecision(const ConfigView& node, const DbProbe& probe,
                         const Fn& fn) {
    const DecidedDatabase& db = *node.database;
    const DatabaseBounds& bounds = *db.bounds();
    auto visit = [&](DecidedDatabase refined,
                     std::optional<Instance> facts) -> Status {
      if (facts.has_value()) {
        refined.SetFacts(store_.Intern(Part::Built(std::move(*facts))));
      }
      ConfigView next = node;
      next.database = store_.Intern(std::move(refined));
      return fn(next);
    };
    switch (probe.kind) {
      case DbProbe::Kind::kFact: {
        WSV_RETURN_IF_ERROR(
            visit(db.WithFalse(probe.symbol, probe.tuple), std::nullopt));
        if (truncated_) return Status::OK();
        Instance facts;
        DecidedDatabase refined = db.WithTrue(probe.symbol, probe.tuple, &facts);
        return visit(std::move(refined), std::move(facts));
      }
      case DbProbe::Kind::kConstant:
        for (Value v : bounds.domain) {
          if (truncated_) break;
          Instance facts;
          DecidedDatabase refined = db.WithConstant(probe.symbol, v, &facts);
          WSV_RETURN_IF_ERROR(visit(std::move(refined), std::move(facts)));
        }
        return Status::OK();
      case DbProbe::Kind::kRelation: {
        const Relation& decided = *db.facts().FindRelation(probe.symbol);
        const std::vector<Tuple> all = AllFacts(bounds.domain, decided.arity());
        std::vector<char> fixed(all.size(), 0);
        for (size_t i = 0; i < all.size(); ++i) {
          if (decided.Contains(all[i])) {
            fixed[i] = 1;
          } else if (!db.IsOpenFact(probe.symbol, all[i])) {
            fixed[i] = 2;  // decided false
          }
        }
        return ForEachFactSubset(
                   all, bounds.max_tuples_per_relation, fixed,
                   [&](const std::vector<size_t>& subset) -> StatusOr<bool> {
                     if (truncated_) return true;
                     Relation chosen(decided.arity());
                     for (size_t i : subset) chosen.Insert(all[i]);
                     Instance facts;
                     DecidedDatabase refined = db.WithRelation(
                         probe.symbol, std::move(chosen), &facts);
                     WSV_RETURN_IF_ERROR(
                         visit(std::move(refined), std::move(facts)));
                     return false;
                   })
            .status();
      }
    }
    return Status::Internal("bad database probe kind");
  }

  ConfigStore& store_;
  const bool& truncated_;
};

// Enumerates the successors of `node`, which is neither on the error
// page nor statically erroneous, one per user choice, in the canonical
// choice order: constant values odometer-style over the pool (first
// requested constant slowest); then per offered relation no pick followed
// by each option; then each proposition false, then true. Each constant
// binding's kappa is interned once and its options are computed once per
// refinement of the node's database; each choice goes straight to the
// stepper's apply core, once per refinement of the database the options
// were computed under: the choices are valid by construction, so the
// checks Step would repeat are skipped. Each successor is handed to
// `emit` as soon as it is built. The node's parts are stored, so `node`
// stays valid while `emit` grows the graph.
template <typename Emit>
class SuccessorEnumerator {
 public:
  SuccessorEnumerator(const Stepper& stepper, ConfigStore& store,
                      Decider& decider, const ConfigView& node,
                      const PageSchema& page,
                      const std::vector<Value>& constant_pool,
                      const Emit& emit)
      : stepper_(stepper),
        store_(store),
        decider_(decider),
        node_(node),
        page_(page),
        constants_(stepper.InputConstantIds(page)),
        constant_pool_(constant_pool),
        emit_(emit) {
    for (NameId prop : stepper.PropositionIds(page)) {
      choice_.propositions.emplace_back(prop, false);
    }
  }

  Status Run() {
    chosen_.resize(constants_.size());
    return EnumerateConstants(0);
  }

 private:
  Status EnumerateConstants(size_t idx) {
    if (idx < constants_.size()) {
      if (constant_pool_.empty()) {
        return Status::InvalidArgument(
            "page " + page_.name + " requests input constants but the "
            "candidate constant pool is empty");
      }
      for (Value v : constant_pool_) {
        chosen_[idx] = v;
        WSV_RETURN_IF_ERROR(EnumerateConstants(idx + 1));
      }
      return Status::OK();
    }
    // Constants fixed: kappa_i is the node's kappa when the page requests
    // none, else one interned map per binding. Compute options, then
    // enumerate relation picks and proposition values.
    const Kappa* kappa = node_.kappa;
    if (!constants_.empty()) {
      Kappa extended = *node_.kappa;
      for (size_t i = 0; i < constants_.size(); ++i) {
        extended.Set(constants_[i], chosen_[i]);
      }
      kappa = store_.Intern(std::move(extended));
    }
    return decider_.Refine<InputOptions>(
        node_,
        [&](const ConfigView& node, ProbeLog* probes) {
          return stepper_.OptionsOn(node, page_, *kappa, probes);
        },
        [&](const ConfigView& node, InputOptions& options) {
          choice_.relations.clear();
          for (const auto& [rel, tuples] : options) {
            choice_.relations.emplace_back(rel, std::nullopt);
          }
          return EnumeratePicks(node, options, 0, 0, kappa);
        });
  }

  // Per offered relation no pick, then each option; then per
  // proposition false, then true.
  Status EnumeratePicks(const ConfigView& node, const InputOptions& options,
                        size_t rel_idx, size_t prop_idx, const Kappa* kappa) {
    if (rel_idx < options.size()) {
      std::optional<Row>& pick = choice_.relations[rel_idx].second;
      pick.reset();
      WSV_RETURN_IF_ERROR(
          EnumeratePicks(node, options, rel_idx + 1, prop_idx, kappa));
      for (Row t : options[rel_idx].second.rows()) {
        pick = t;
        WSV_RETURN_IF_ERROR(
            EnumeratePicks(node, options, rel_idx + 1, prop_idx, kappa));
      }
      return Status::OK();
    }
    if (prop_idx < choice_.propositions.size()) {
      for (bool b : {false, true}) {
        choice_.propositions[prop_idx].second = b;
        WSV_RETURN_IF_ERROR(
            EnumeratePicks(node, options, rel_idx, prop_idx + 1, kappa));
      }
      return Status::OK();
    }
    return decider_.Refine<Successor>(
        node,
        [&](const ConfigView& refined, ProbeLog* probes) {
          return stepper_.ApplyChoice(refined, page_, kappa, choice_, probes);
        },
        [&](const ConfigView&, Successor& succ) { return emit_(succ); });
  }

  const Stepper& stepper_;
  ConfigStore& store_;
  Decider& decider_;
  const ConfigView node_;
  const PageSchema& page_;
  const std::vector<NameId>& constants_;  // the page's input constants
  const std::vector<Value>& constant_pool_;
  const Emit& emit_;
  std::vector<Value> chosen_;  // a value per input constant
  ResolvedChoice choice_;      // the choice being enumerated
};

}  // namespace

LazyConfigGraph::LazyConfigGraph(const Stepper* stepper,
                                 ConfigGraphOptions options)
    : stepper_(stepper), options_(std::move(options)) {
  // The initial node's parts are the stepper's prototypes and its own
  // empty kappa; they are interned like any other part. A fully decided
  // database's facts stay where they are; the facts of one decided in
  // part are stored like the facts its refinements build.
  const ConfigView initial = stepper_->InitialView();
  ConfigStore& store = *graph_.store;
  DecidedDatabase database = options_.database != nullptr
                                 ? *options_.database
                                 : DecidedDatabase(&stepper_->database());
  if (!database.complete()) {
    database.SetFacts(store.Intern(Part::Prototype(&database.facts())));
  }
  graph_.initial = InternView(
      ConfigView(store.InternPage(stepper_->home_page_id()),
                 store.Intern(Part::Prototype(initial.state)),
                 store.Intern(Part::Prototype(initial.prev_inputs)),
                 store.Intern(Part::Prototype(initial.actions)),
                 store.Intern(*initial.kappa),
                 store.Intern(std::move(database))),
      stepper_->home_page_id());
  PublishBytes();
  obs::PublishDeferred();
}

LazyConfigGraph::~LazyConfigGraph() {
  WSV_GAUGE_SUB("mem/config_graph_bytes", gauge_bytes_);
}

size_t LazyConfigGraph::NodeHash::operator()(const ConfigView& n) const {
  std::hash<const void*> h;
  size_t seed = h(n.page);
  seed = HashCombine(seed, h(n.state));
  seed = HashCombine(seed, h(n.prev_inputs));
  seed = HashCombine(seed, h(n.actions));
  seed = HashCombine(seed, h(n.kappa));
  return HashCombine(seed, h(n.database));
}

void LazyConfigGraph::PublishBytes() {
  const uint64_t total = graph_.store->bytes() + fixed_bytes_;
  if (total == gauge_bytes_) return;
  WSV_GAUGE_ADD("mem/config_graph_bytes", total - gauge_bytes_);
  gauge_bytes_ = total;
}

int LazyConfigGraph::InternNode(Successor& succ, const ConfigView& source) {
  ConfigStore& store = *graph_.store;
  return InternView(
      ConfigView(
          succ.page == source.page ? source.page
                                   : store.InternPage(succ.page_id),
          store.Intern(std::move(succ.state)),
          store.Intern(std::move(succ.prev_inputs)),
          store.Intern(std::move(succ.actions)),
          // A successor's kappa is the source's or a per-binding map the
          // enumerator interned, and its database the source's or a
          // refinement the expansion stored.
          succ.kappa, succ.database),
      succ.page_id);
}

int LazyConfigGraph::InternView(const ConfigView& node, NameId page_id) {
  bool added = false;
  const int id = node_index_.FindOrInsert(
      NodeHash()(node), static_cast<int>(graph_.nodes.size()),
      [&](int u) { return graph_.nodes[static_cast<size_t>(u)] == node; },
      &added);
  if (!added) {
    WSV_COUNT1_DEFERRED("config_graph/node_dedup_hits");
    return id;
  }
  WSV_COUNT1_DEFERRED("config_graph/nodes");
  graph_.nodes.push_back(node);
  graph_.page_ids.push_back(page_id);
  graph_.out_edges.emplace_back();
  expanded_.push_back(0);
  // The node's pointers and page, its out-edge range, expansion flag and
  // index entry.
  fixed_bytes_ += sizeof(ConfigView) + sizeof(NameId) + sizeof(EdgeRange) +
                  sizeof(char) + kIndexEntryBytes;
  return id;
}

void LazyConfigGraph::MarkTruncated() {
  if (!graph_.truncated) {
    graph_.truncated = true;
    WSV_COUNT1("config_graph/builds_truncated");
  }
}

Status LazyConfigGraph::ExpandNode(int v) {
  WSV_TIMER("runtime/successor_ns");
  // The expansion's counts and bytes reach the registry once, at its
  // end (declared after the timer, so published before it records).
  struct Publish {
    LazyConfigGraph& graph;
    ~Publish() {
      graph.PublishBytes();
      obs::PublishDeferred();
    }
  } publish{*this};
  WSV_COUNT1_DEFERRED("config_graph/nodes_expanded");
  expanded_[static_cast<size_t>(v)] = 1;
  // The node's parts are stored, so this copy of its pointers stays
  // valid while successors grow graph_.nodes.
  const ConfigView current = graph_.nodes[static_cast<size_t>(v)];
  // Deduplicate parallel edges that lead to the same successor with the
  // same inputs (different choices can be observationally identical):
  // with the inputs interned, an edge is identified by two pointers. The
  // node's edges so far are graph_.edges[first_edge, end), indexed by
  // their offset from first_edge.
  const size_t first_edge = graph_.edges.size();
  FlatIdIndex seen;
  auto seen_before = [&](int to, const Instance* inputs) {
    bool added = false;
    seen.FindOrInsert(
        EdgeKeyHash()({to, inputs}),
        static_cast<int>(graph_.edges.size() - first_edge),
        [&](int i) {
          const ConfigGraph::Edge& edge =
              graph_.edges[first_edge + static_cast<size_t>(i)];
          return edge.to == to && edge.inputs == inputs;
        },
        &added);
    return !added;
  };
  auto add_edge = [&](Successor& succ) -> Status {
    if (graph_.edges.size() >= options_.max_edges) {
      MarkTruncated();
      return Status::OK();
    }
    const int to = InternNode(succ, current);
    const Instance* inputs = graph_.store->Intern(std::move(succ.inputs));
    if (seen_before(to, inputs)) {
      WSV_COUNT1_DEFERRED("config_graph/edge_dedup_hits");
      return Status::OK();
    }
    WSV_COUNT1_DEFERRED("config_graph/edges");
    ConfigGraph::Edge& edge = graph_.edges.emplace_back();
    edge.from = v;
    edge.to = to;
    edge.inputs = inputs;
    edge.error_reason =
        graph_.store->InternReason(std::move(succ.error_reason));
    // The edge (the reason text is the store's).
    fixed_bytes_ += sizeof(ConfigGraph::Edge);
    return Status::OK();
  };

  const NameId page_id = graph_.page_ids[static_cast<size_t>(v)];
  Decider decider(*graph_.store, graph_.truncated);
  // What the property reads is decided before the node's steps, so
  // every edge out of it is labelled on a database that decides it.
  const Status status = decider.DecideFirst(
      current, options_.decide_first, [&](const ConfigView& node) -> Status {
        if (page_id == stepper_->error_page_id()) {
          Successor loop = stepper_->ErrorPageLoop(node);
          return add_edge(loop);
        }
        const PageSchema* page = stepper_->FindPage(page_id);
        if (page == nullptr) {
          return Status::NotFound("unknown page " + *node.page);
        }
        // Conditions (i) and (ii) are checked once per node: exactly one
        // successor, the choice ignored.
        if (std::optional<std::string> err =
                stepper_->StaticError(node, *page)) {
          Successor to_error =
              stepper_->ToErrorPage(node, node.kappa, std::move(*err));
          return add_edge(to_error);
        }
        return SuccessorEnumerator(*stepper_, *graph_.store, decider, node,
                                   *page, options_.constant_pool, add_edge)
            .Run();
      });
  // The node's out-edges are the edges this expansion appended, in
  // order.
  graph_.out_edges[static_cast<size_t>(v)] = std::views::iota(
      static_cast<int>(first_edge), static_cast<int>(graph_.edges.size()));
  return status;
}

StatusOr<bool> LazyConfigGraph::EnsureExpanded(int v) {
  if (Expanded(v)) return true;
  if (options_.cancel_check && options_.cancel_check()) {
    WSV_COUNT1("config_graph/builds_cancelled");
    return Status::Cancelled("configuration graph build cancelled");
  }
  if (graph_.nodes.size() > options_.max_nodes ||
      graph_.edges.size() > options_.max_edges) {
    MarkTruncated();
    return false;
  }
  WSV_RETURN_IF_ERROR(ExpandNode(v));
  return true;
}

Status LazyConfigGraph::ExpandAll() {
  // Nodes are interned in BFS-discovery order and expanded in id order,
  // so this loop *is* the classic worklist BFS, budgets and cancellation
  // included.
  for (size_t v = 0; v < graph_.nodes.size(); ++v) {
    if (options_.cancel_check && options_.cancel_check()) {
      WSV_COUNT1("config_graph/builds_cancelled");
      return Status::Cancelled("configuration graph build cancelled");
    }
    if (graph_.nodes.size() > options_.max_nodes ||
        graph_.edges.size() > options_.max_edges) {
      MarkTruncated();
      break;
    }
    if (!Expanded(static_cast<int>(v))) {
      WSV_RETURN_IF_ERROR(ExpandNode(static_cast<int>(v)));
    }
  }
  return Status::OK();
}

StatusOr<ConfigGraph> BuildConfigGraph(const Stepper& stepper,
                                       const ConfigGraphOptions& options) {
  WSV_SPAN("config_graph/build");
  LazyConfigGraph lazy(&stepper, options);
  WSV_RETURN_IF_ERROR(lazy.ExpandAll());
  return lazy.TakeGraph();
}

}  // namespace wsv
