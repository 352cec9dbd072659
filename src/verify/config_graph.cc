#include "verify/config_graph.h"

#include <set>
#include <unordered_map>
#include <unordered_set>

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
  uint64_t bytes = sizeof(Kappa);
  for (const auto& [name, v] : kappa) {
    bytes += kIndexEntryBytes + sizeof(std::string) + name.capacity() +
             sizeof(Value);
  }
  return bytes;
}

size_t KappaHash(const Kappa& kappa) {
  size_t h = 0;
  for (const auto& [name, v] : kappa) {
    h = HashCombine(h, std::hash<std::string>()(name));
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

const std::string* ConfigStore::InternPage(const std::string& page) {
  bool added = false;
  const std::string* stored =
      pages_.Intern(page, std::hash<std::string>()(page), &added);
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

// Enumerates the successors of `node`, which is neither on the error
// page nor statically erroneous, one per user choice, in the canonical
// choice order: constant values odometer-style over the pool (first
// requested constant slowest); then per offered relation no pick followed
// by each option; then each proposition false, then true. Each constant
// binding's kappa is interned once and its options are computed once;
// each choice goes straight to the stepper's apply core: the choices are
// valid by construction, so the checks Step would repeat are skipped.
// Each successor is handed to `emit` as soon as it is built. The node's
// parts are stored, so `node` stays valid while `emit` grows the graph.
class SuccessorEnumerator {
 public:
  using Emit = std::function<Status(Successor&)>;

  SuccessorEnumerator(const Stepper& stepper, ConfigStore& store,
                      const ConfigView& node, const PageSchema& page,
                      const std::vector<Value>& constant_pool, Emit emit)
      : stepper_(stepper),
        store_(store),
        node_(node),
        page_(page),
        constant_pool_(constant_pool),
        emit_(std::move(emit)) {
    for (const std::string& in : page.inputs) {
      const RelationSymbol* sym = stepper.service().vocab().FindRelation(in);
      if (sym != nullptr && sym->arity == 0) props_.push_back(in);
    }
  }

  Status Run() {
    std::map<std::string, Value> chosen;
    return EnumerateConstants(0, chosen);
  }

 private:
  using Alternatives =
      std::vector<std::pair<std::string, std::vector<std::optional<Tuple>>>>;

  Status EnumerateConstants(size_t idx, std::map<std::string, Value>& chosen) {
    if (idx < page_.input_constants.size()) {
      if (constant_pool_.empty()) {
        return Status::InvalidArgument(
            "page " + page_.name + " requests input constants but the "
            "candidate constant pool is empty");
      }
      for (Value v : constant_pool_) {
        chosen[page_.input_constants[idx]] = v;
        WSV_RETURN_IF_ERROR(EnumerateConstants(idx + 1, chosen));
      }
      return Status::OK();
    }
    // Constants fixed: kappa_i is the node's kappa when the page requests
    // none, else one interned map per binding. Compute options once, then
    // enumerate relation picks and proposition values.
    const Kappa* kappa = node_.kappa;
    if (!chosen.empty()) {
      Kappa extended = *node_.kappa;
      for (const auto& [name, v] : chosen) extended[name] = v;
      kappa = store_.Intern(std::move(extended));
    }
    WSV_ASSIGN_OR_RETURN(auto options, stepper_.OptionsUnder(node_, *kappa));
    UserChoice choice;
    Alternatives rel_alternatives;
    for (const auto& [rel, tuples] : options) {
      std::vector<std::optional<Tuple>> alts;
      alts.reserve(tuples.size() + 1);
      alts.push_back(std::nullopt);
      for (const Tuple& t : tuples) alts.push_back(t);
      rel_alternatives.emplace_back(rel, std::move(alts));
    }
    return EnumeratePicks(rel_alternatives, 0, 0, kappa, choice);
  }

  Status EnumeratePicks(const Alternatives& rels, size_t rel_idx,
                        size_t prop_idx, const Kappa* kappa,
                        UserChoice& choice) {
    if (rel_idx < rels.size()) {
      for (const std::optional<Tuple>& alt : rels[rel_idx].second) {
        choice.relation_choices[rels[rel_idx].first] = alt;
        WSV_RETURN_IF_ERROR(
            EnumeratePicks(rels, rel_idx + 1, prop_idx, kappa, choice));
      }
      choice.relation_choices.erase(rels[rel_idx].first);
      return Status::OK();
    }
    if (prop_idx < props_.size()) {
      for (bool b : {false, true}) {
        choice.proposition_choices[props_[prop_idx]] = b;
        WSV_RETURN_IF_ERROR(
            EnumeratePicks(rels, rel_idx, prop_idx + 1, kappa, choice));
      }
      choice.proposition_choices.erase(props_[prop_idx]);
      return Status::OK();
    }
    WSV_ASSIGN_OR_RETURN(Successor succ,
                         stepper_.ApplyChoice(node_, page_, kappa, choice));
    return emit_(succ);
  }

  const Stepper& stepper_;
  ConfigStore& store_;
  const ConfigView node_;
  const PageSchema& page_;
  const std::vector<Value>& constant_pool_;
  const Emit emit_;
  std::vector<std::string> props_;  // the page's propositional inputs
};

}  // namespace

LazyConfigGraph::LazyConfigGraph(const Stepper* stepper,
                                 ConfigGraphOptions options)
    : stepper_(stepper), options_(std::move(options)) {
  pool_ = options_.constant_pool;
  if (pool_.empty()) {
    std::set<Value> p(stepper_->database().domain().begin(),
                      stepper_->database().domain().end());
    for (Value v : ServiceRuleLiterals(stepper_->service())) p.insert(v);
    pool_.assign(p.begin(), p.end());
  }
  // The initial node's parts are the stepper's prototypes and its own
  // empty kappa; they are interned like any other part.
  const ConfigView initial = stepper_->InitialView();
  ConfigStore& store = *graph_.store;
  graph_.initial = InternView(ConfigView(
      store.InternPage(*initial.page),
      store.Intern(Part::Prototype(initial.state)),
      store.Intern(Part::Prototype(initial.prev_inputs)),
      store.Intern(Part::Prototype(initial.actions)),
      store.Intern(*initial.kappa)));
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
  return HashCombine(seed, h(n.kappa));
}

void LazyConfigGraph::AccountBytes(uint64_t fixed_bytes) {
  fixed_bytes_ += fixed_bytes;
  const uint64_t total = graph_.store->bytes() + fixed_bytes_;
  WSV_GAUGE_ADD("mem/config_graph_bytes", total - gauge_bytes_);
  gauge_bytes_ = total;
}

int LazyConfigGraph::InternNode(Successor& succ, const ConfigView& source) {
  ConfigStore& store = *graph_.store;
  return InternView(ConfigView(
      succ.page == source.page ? source.page : store.InternPage(*succ.page),
      store.Intern(std::move(succ.state)),
      store.Intern(std::move(succ.prev_inputs)),
      store.Intern(std::move(succ.actions)),
      // A successor's kappa is the source's or a per-binding map the
      // enumerator interned.
      succ.kappa));
}

int LazyConfigGraph::InternView(const ConfigView& node) {
  auto [it, added] =
      node_index_.try_emplace(node, static_cast<int>(graph_.nodes.size()));
  if (!added) {
    WSV_COUNT1("config_graph/node_dedup_hits");
    return it->second;
  }
  WSV_COUNT1("config_graph/nodes");
  graph_.nodes.push_back(node);
  graph_.out_edges.emplace_back();
  expanded_.push_back(0);
  // The node's pointers, its out-edge list, expansion flag and index entry.
  AccountBytes(sizeof(ConfigView) + sizeof(std::vector<int>) + sizeof(char) +
               kIndexEntryBytes);
  return it->second;
}

void LazyConfigGraph::MarkTruncated() {
  if (!graph_.truncated) {
    graph_.truncated = true;
    WSV_COUNT1("config_graph/builds_truncated");
  }
}

Status LazyConfigGraph::ExpandNode(int v) {
  WSV_TIMER("runtime/successor_ns");
  WSV_COUNT1("config_graph/nodes_expanded");
  expanded_[static_cast<size_t>(v)] = 1;
  // The node's parts are stored, so this copy of its pointers stays
  // valid while successors grow graph_.nodes.
  const ConfigView current = graph_.nodes[static_cast<size_t>(v)];
  // Deduplicate parallel edges that lead to the same successor with the
  // same inputs (different choices can be observationally identical):
  // with the inputs interned, an edge is identified by two pointers.
  std::unordered_set<std::pair<int, const Instance*>, EdgeKeyHash> seen;
  auto add_edge = [&](Successor& succ) -> Status {
    if (graph_.edges.size() >= options_.max_edges) {
      MarkTruncated();
      return Status::OK();
    }
    const int to = InternNode(succ, current);
    const Instance* inputs = graph_.store->Intern(std::move(succ.inputs));
    if (!seen.emplace(to, inputs).second) {
      WSV_COUNT1("config_graph/edge_dedup_hits");
      return Status::OK();
    }
    WSV_COUNT1("config_graph/edges");
    ConfigGraph::Edge& edge = graph_.edges.emplace_back();
    edge.from = v;
    edge.to = to;
    edge.inputs = inputs;
    edge.to_error = succ.to_error;
    edge.error_reason = std::move(succ.error_reason);
    graph_.out_edges[static_cast<size_t>(v)].push_back(
        static_cast<int>(graph_.edges.size() - 1));
    // The edge, its reason text and its out-edge list slot.
    AccountBytes(sizeof(ConfigGraph::Edge) + edge.error_reason.capacity() +
                 sizeof(int));
    return Status::OK();
  };

  const WebService& service = stepper_->service();
  if (*current.page == service.error_page()) {
    Successor loop = stepper_->ErrorPageLoop(current);
    return add_edge(loop);
  }
  const PageSchema* page = service.FindPage(*current.page);
  if (page == nullptr) {
    return Status::NotFound("unknown page " + *current.page);
  }
  // Conditions (i) and (ii) are checked once per node: exactly one
  // successor, the choice ignored.
  if (std::optional<std::string> err = stepper_->StaticError(current)) {
    Successor to_error =
        stepper_->ToErrorPage(current, current.kappa, std::move(*err));
    return add_edge(to_error);
  }
  return SuccessorEnumerator(*stepper_, *graph_.store, current, *page, pool_,
                             add_edge)
      .Run();
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
