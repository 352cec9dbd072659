#include "verify/error_free.h"

#include <algorithm>

namespace wsv {

std::string ErrorWitness::ToString() const {
  std::string out = "database:\n" + database.ToString();
  out += "reason: " + reason + "\n";
  out += "path to error page:\n";
  for (size_t i = 0; i < path.size(); ++i) {
    out += "  step " + std::to_string(i) + ": " + path[i].ToString() + "\n";
  }
  return out;
}

namespace {

// Error-freeness on `database`, or on every database within options.db
// when it is null: a breadth-first search of one lazy configuration
// graph for an edge into the error page.
StatusOr<ErrorFreeResult> Check(const WebService& service,
                                const Instance* database,
                                const ErrorFreeOptions& options) {
  const DatabaseSpace space(service, options.db, database);
  const Instance& facts = space.decided().facts();
  Stepper stepper(&service, &facts);
  WSV_RETURN_IF_ERROR(stepper.status());
  stepper.SetTrackedPrev(Stepper::PrevRelationsInRules(service));
  ConfigGraphOptions graph_options = options.graph;
  graph_options.constant_pool =
      InputConstantPool(options.graph.constant_pool, service, facts, {},
                        /*typed_values=*/1);
  graph_options.database = &space.decided();
  LazyConfigGraph lazy(&stepper, std::move(graph_options));
  const ConfigGraph& graph = lazy.graph();

  // Nodes are numbered in discovery order, so expanding them in id
  // order is the breadth-first search.
  int error_edge = -1;
  for (size_t v = 0; v < graph.nodes.size() && error_edge < 0; ++v) {
    WSV_ASSIGN_OR_RETURN(bool expanded,
                         lazy.EnsureExpanded(static_cast<int>(v)));
    if (!expanded) break;  // a budget is hit
    for (int e : graph.out_edges[v]) {
      if (graph.edges[e].to_error()) {
        error_edge = e;
        break;
      }
    }
  }

  ErrorFreeResult result;
  result.total_graph_nodes = graph.nodes.size();
  result.complete_within_bounds = !graph.truncated;
  if (error_edge < 0) {
    result.databases_checked =
        database != nullptr ? 1 : CountDatabases(service, options.db);
    return result;
  }

  // The path follows each node's first in-edge back from the error
  // edge; every edge before it leaves a node expanded earlier.
  std::vector<int> in_edge(graph.nodes.size(), -1);
  for (int e = 0; e < error_edge; ++e) {
    const int to = graph.edges[e].to;
    if (to != graph.initial && in_edge[to] < 0) in_edge[to] = e;
  }
  std::vector<int> edges{error_edge};
  for (int v = graph.edges[error_edge].from; in_edge[v] >= 0;
       v = graph.edges[in_edge[v]].from) {
    edges.push_back(in_edge[v]);
  }
  std::reverse(edges.begin(), edges.end());

  ErrorWitness witness;
  witness.database = graph.EdgeDatabase(error_edge).Completion();
  witness.reason = *graph.edges[error_edge].error_reason;
  for (int e : edges) witness.path.push_back(graph.Materialize(e));
  result.error_free = false;
  result.witness = std::move(witness);
  result.databases_checked = 1;
  return result;
}

}  // namespace

StatusOr<ErrorFreeResult> CheckErrorFreeOnDatabase(
    const WebService& service, const Instance& database,
    const ErrorFreeOptions& options) {
  return Check(service, &database, options);
}

StatusOr<ErrorFreeResult> CheckErrorFree(const WebService& service,
                                         const ErrorFreeOptions& options) {
  return Check(service, nullptr, options);
}

}  // namespace wsv
