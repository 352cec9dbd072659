#include "verify/config_graph.h"

#include <set>
#include <unordered_map>

#include "common/hash.h"
#include "obs/trace.h"
#include "verify/db_enum.h"

namespace wsv {

TraceView ConfigGraph::View(int e) const {
  const Edge& edge = edges[static_cast<size_t>(e)];
  const Config& from = nodes[static_cast<size_t>(edge.from)];
  const Config& to = nodes[static_cast<size_t>(edge.to)];
  TraceView view;
  view.page = &from.page;
  view.state = &from.state;
  view.inputs = &edge.inputs;
  view.prev_inputs = &from.prev_inputs;
  view.actions = &from.actions;
  // kappa_i includes the constants provided at this step, i.e. the
  // successor node's accumulated interpretation.
  view.kappa = &to.provided_constants;
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

// Enumerates the successors of node `v` of `nodes`, which is neither on
// the error page nor statically erroneous, one per user choice, in the
// canonical choice order: constant values odometer-style over the pool
// (first requested constant slowest); then per offered relation no pick
// followed by each option; then each proposition false, then true.
// Options are computed once per constant binding and each choice goes
// straight to the stepper's apply core: the choices are valid by
// construction, so the checks Step would repeat are skipped. Each
// successor is handed to `emit` as soon as it is built; `emit` may grow
// `nodes`, so the node is re-read by index after every call.
class SuccessorEnumerator {
 public:
  using Emit = std::function<Status(Successor)>;

  SuccessorEnumerator(const Stepper& stepper, const std::vector<Config>& nodes,
                      size_t v, const PageSchema& page,
                      const std::vector<Value>& constant_pool, Emit emit)
      : stepper_(stepper),
        nodes_(nodes),
        v_(v),
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

  const Config& node() const { return nodes_[v_]; }

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
    // Constants fixed; compute options once, then enumerate relation
    // picks and proposition values.
    WSV_ASSIGN_OR_RETURN(auto options, stepper_.ComputeOptions(node(), chosen));
    std::map<std::string, Value> kappa = node().provided_constants;
    for (const auto& [name, v] : chosen) kappa[name] = v;
    UserChoice choice;
    choice.constant_values = chosen;
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
                        size_t prop_idx,
                        const std::map<std::string, Value>& kappa,
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
                         stepper_.ApplyChoice(node(), page_, kappa, choice));
    return emit_(std::move(succ));
  }

  const Stepper& stepper_;
  const std::vector<Config>& nodes_;
  const size_t v_;
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
  graph_.initial = InternNode(stepper_->InitialConfig());
}

LazyConfigGraph::~LazyConfigGraph() {
  WSV_GAUGE_SUB("mem/config_graph_bytes", gauge_bytes_);
}

int LazyConfigGraph::InternNode(Config c) {
  const size_t hash = c.Hash();
  auto [first, last] = node_index_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (graph_.nodes[static_cast<size_t>(it->second)] == c) {
      WSV_COUNT1("config_graph/node_dedup_hits");
      return it->second;
    }
  }
  WSV_COUNT1("config_graph/nodes");
  int id = static_cast<int>(graph_.nodes.size());
  node_index_.emplace(hash, id);
  // The node itself plus its hash-index entry (hash, id, bucket link).
  const uint64_t node_bytes = c.ApproxBytes() + 4 * sizeof(void*);
  graph_.nodes.push_back(std::move(c));
  graph_.out_edges.emplace_back();
  expanded_.push_back(0);
  gauge_bytes_ += node_bytes;
  WSV_GAUGE_ADD("mem/config_graph_bytes", node_bytes);
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
  WSV_COUNT1("config_graph/nodes_expanded");
  expanded_[static_cast<size_t>(v)] = 1;
  // Deduplicate parallel edges that lead to the same successor with the
  // same inputs (different choices can be observationally identical):
  // this node's edge ids keyed by a (target, inputs) hash.
  std::unordered_multimap<size_t, int> seen;
  auto add_edge = [&](Successor succ) -> Status {
    if (graph_.edges.size() >= options_.max_edges) {
      MarkTruncated();
      return Status::OK();
    }
    const int to = InternNode(std::move(succ.next));
    const size_t sig =
        HashCombine(succ.inputs.Hash(), static_cast<size_t>(to));
    auto [first, last] = seen.equal_range(sig);
    for (auto it = first; it != last; ++it) {
      const ConfigGraph::Edge& e = graph_.edges[static_cast<size_t>(it->second)];
      if (e.to == to && e.inputs == succ.inputs) {
        WSV_COUNT1("config_graph/edge_dedup_hits");
        return Status::OK();
      }
    }
    seen.emplace(sig, static_cast<int>(graph_.edges.size()));
    WSV_COUNT1("config_graph/edges");
    ConfigGraph::Edge edge;
    edge.from = v;
    edge.to = to;
    edge.inputs = std::move(succ.inputs);
    edge.to_error = succ.to_error;
    edge.error_reason = std::move(succ.error_reason);
    const uint64_t edge_bytes =
        sizeof(ConfigGraph::Edge) + edge.inputs.ApproxBytes() +
        edge.error_reason.capacity() + sizeof(int);
    gauge_bytes_ += edge_bytes;
    WSV_GAUGE_ADD("mem/config_graph_bytes", edge_bytes);
    graph_.out_edges[static_cast<size_t>(v)].push_back(
        static_cast<int>(graph_.edges.size()));
    graph_.edges.push_back(std::move(edge));
    return Status::OK();
  };

  // `current` is read before any edge is added: interning a successor
  // may reallocate graph_.nodes.
  const Config& current = graph_.nodes[static_cast<size_t>(v)];
  const WebService& service = stepper_->service();
  if (current.page == service.error_page()) {
    return add_edge(stepper_->ErrorPageLoop(current));
  }
  const PageSchema* page = service.FindPage(current.page);
  if (page == nullptr) {
    return Status::NotFound("unknown page " + current.page);
  }
  // Conditions (i) and (ii) are checked once per node: exactly one
  // successor, the choice ignored.
  if (std::optional<std::string> err = stepper_->StaticError(current)) {
    return add_edge(stepper_->ToErrorPage(current, current.provided_constants,
                                          std::move(*err)));
  }
  return SuccessorEnumerator(*stepper_, graph_.nodes, static_cast<size_t>(v),
                             *page, pool_, add_edge)
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
