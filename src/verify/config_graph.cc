#include "verify/config_graph.h"

#include <set>
#include <unordered_map>
#include <unordered_set>

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

// Enumerates every UserChoice available at `config` and hands it to `fn`.
class ChoiceEnumerator {
 public:
  ChoiceEnumerator(const Stepper& stepper,
                   const std::vector<Value>& constant_pool)
      : stepper_(stepper), constant_pool_(constant_pool) {}

  Status ForEachChoice(const Config& config,
                       const std::function<Status(const UserChoice&)>& fn) {
    const WebService& service = stepper_.service();
    if (config.page == service.error_page() ||
        stepper_.StaticError(config).has_value()) {
      // Exactly one successor; the choice is ignored.
      return fn(UserChoice{});
    }
    const PageSchema* page = service.FindPage(config.page);
    if (page == nullptr) {
      return Status::NotFound("unknown page " + config.page);
    }
    return EnumerateConstants(config, *page, 0, {}, fn);
  }

 private:
  Status EnumerateConstants(
      const Config& config, const PageSchema& page, size_t idx,
      std::map<std::string, Value> chosen,
      const std::function<Status(const UserChoice&)>& fn) {
    if (idx < page.input_constants.size()) {
      if (constant_pool_.empty()) {
        return Status::InvalidArgument(
            "page " + page.name + " requests input constants but the "
            "candidate constant pool is empty");
      }
      for (Value v : constant_pool_) {
        chosen[page.input_constants[idx]] = v;
        WSV_RETURN_IF_ERROR(
            EnumerateConstants(config, page, idx + 1, chosen, fn));
      }
      return Status::OK();
    }
    // Constants fixed; compute options, then enumerate relation picks and
    // proposition values.
    auto options_or = stepper_.ComputeOptions(config, chosen);
    if (!options_or.ok()) return options_or.status();
    const std::map<std::string, std::set<Tuple>>& options = *options_or;

    std::vector<std::string> props;
    for (const std::string& in : page.inputs) {
      const RelationSymbol* sym =
          stepper_.service().vocab().FindRelation(in);
      if (sym != nullptr && sym->arity == 0) props.push_back(in);
    }

    UserChoice choice;
    choice.constant_values = chosen;
    std::vector<std::pair<std::string, std::vector<std::optional<Tuple>>>>
        rel_alternatives;
    for (const auto& [rel, tuples] : options) {
      std::vector<std::optional<Tuple>> alts;
      alts.push_back(std::nullopt);
      for (const Tuple& t : tuples) alts.push_back(t);
      rel_alternatives.emplace_back(rel, std::move(alts));
    }
    return EnumeratePicks(rel_alternatives, 0, props, 0, choice, fn);
  }

  Status EnumeratePicks(
      const std::vector<
          std::pair<std::string, std::vector<std::optional<Tuple>>>>& rels,
      size_t rel_idx, const std::vector<std::string>& props, size_t prop_idx,
      UserChoice& choice,
      const std::function<Status(const UserChoice&)>& fn) {
    if (rel_idx < rels.size()) {
      for (const std::optional<Tuple>& alt : rels[rel_idx].second) {
        choice.relation_choices[rels[rel_idx].first] = alt;
        WSV_RETURN_IF_ERROR(
            EnumeratePicks(rels, rel_idx + 1, props, prop_idx, choice, fn));
      }
      choice.relation_choices.erase(rels[rel_idx].first);
      return Status::OK();
    }
    if (prop_idx < props.size()) {
      for (bool b : {false, true}) {
        choice.proposition_choices[props[prop_idx]] = b;
        WSV_RETURN_IF_ERROR(
            EnumeratePicks(rels, rel_idx, props, prop_idx + 1, choice, fn));
      }
      choice.proposition_choices.erase(props[prop_idx]);
      return Status::OK();
    }
    return fn(choice);
  }

  const Stepper& stepper_;
  const std::vector<Value>& constant_pool_;
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

int LazyConfigGraph::InternNode(const Config& c) {
  auto it = node_index_.find(c);
  if (it != node_index_.end()) {
    WSV_COUNT1("config_graph/node_dedup_hits");
    return it->second;
  }
  WSV_COUNT1("config_graph/nodes");
  int id = static_cast<int>(graph_.nodes.size());
  node_index_.emplace(c, id);
  graph_.nodes.push_back(c);
  graph_.out_edges.emplace_back();
  expanded_.push_back(0);
  // Stored twice: once in the graph, once as the dedup-index key.
  const uint64_t node_bytes = 2 * c.ApproxBytes() + 4 * sizeof(void*);
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
  WSV_COUNT1("config_graph/nodes_expanded");
  expanded_[static_cast<size_t>(v)] = 1;
  // Copy: InternNode may reallocate graph_.nodes during enumeration.
  Config current = graph_.nodes[static_cast<size_t>(v)];
  // Deduplicate parallel edges that lead to the same successor with the
  // same trace (different choices can be observationally identical).
  struct EdgeSigHash {
    size_t operator()(const std::pair<int, std::string>& p) const {
      return HashCombine(std::hash<std::string>()(p.second),
                         static_cast<size_t>(p.first));
    }
  };
  std::unordered_set<std::pair<int, std::string>, EdgeSigHash> seen;
  ChoiceEnumerator choices(*stepper_, pool_);
  return choices.ForEachChoice(
      current, [&](const UserChoice& choice) -> Status {
        WSV_ASSIGN_OR_RETURN(StepOutcome outcome,
                             stepper_->Step(current, choice));
        if (graph_.edges.size() >= options_.max_edges) {
          MarkTruncated();
          return Status::OK();
        }
        int to = InternNode(outcome.next);
        std::string sig = outcome.trace.inputs.ToString();
        if (!seen.insert({to, sig}).second) {
          WSV_COUNT1("config_graph/edge_dedup_hits");
          return Status::OK();
        }
        WSV_COUNT1("config_graph/edges");
        ConfigGraph::Edge edge;
        edge.from = v;
        edge.to = to;
        edge.inputs = std::move(outcome.trace.inputs);
        edge.to_error = outcome.to_error;
        edge.error_reason = std::move(outcome.error_reason);
        const uint64_t edge_bytes =
            sizeof(ConfigGraph::Edge) + edge.inputs.ApproxBytes() +
            edge.error_reason.capacity() + sizeof(int);
        gauge_bytes_ += edge_bytes;
        WSV_GAUGE_ADD("mem/config_graph_bytes", edge_bytes);
        graph_.out_edges[static_cast<size_t>(v)].push_back(
            static_cast<int>(graph_.edges.size()));
        graph_.edges.push_back(std::move(edge));
        return Status::OK();
      });
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
