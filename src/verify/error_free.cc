#include "verify/error_free.h"

#include <algorithm>
#include <queue>
#include <set>

#include "common/str_util.h"

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

StatusOr<bool> CheckOne(const WebService& service, const Instance& database,
                        const ErrorFreeOptions& options,
                        ErrorFreeResult* result) {
  Stepper stepper(&service, &database);
  WSV_RETURN_IF_ERROR(stepper.status());
  stepper.SetTrackedPrev(Stepper::PrevRelationsInRules(service));
  ConfigGraphOptions graph_options = options.graph;
  if (graph_options.constant_pool.empty()) {
    std::set<Value> pool(database.domain().begin(), database.domain().end());
    for (Value v : ServiceRuleLiterals(service)) pool.insert(v);
    for (int i = 0; i < options.extra_constant_values; ++i) {
      pool.insert(Value::Intern(StrCat({"u", std::to_string(i)})));
    }
    graph_options.constant_pool.assign(pool.begin(), pool.end());
  }
  WSV_ASSIGN_OR_RETURN(ConfigGraph graph,
                       BuildConfigGraph(stepper, graph_options));
  if (graph.truncated) result->complete_within_bounds = false;
  result->total_graph_nodes += graph.nodes.size();

  // BFS over nodes, tracking the incoming edge, to find an error edge.
  std::vector<int> in_edge(graph.nodes.size(), -1);
  std::vector<char> visited(graph.nodes.size(), 0);
  std::queue<int> q;
  visited[graph.initial] = 1;
  q.push(graph.initial);
  int error_edge = -1;
  while (!q.empty() && error_edge < 0) {
    int v = q.front();
    q.pop();
    for (int e : graph.out_edges[v]) {
      if (graph.edges[e].to_error()) {
        error_edge = e;
        break;
      }
      int w = graph.edges[e].to;
      if (!visited[w]) {
        visited[w] = 1;
        in_edge[w] = e;
        q.push(w);
      }
    }
  }
  if (error_edge < 0) return false;

  ErrorWitness witness;
  witness.database = database;
  witness.reason = *graph.edges[error_edge].error_reason;
  std::vector<int> edges{error_edge};
  for (int v = graph.edges[error_edge].from; in_edge[v] >= 0;
       v = graph.edges[in_edge[v]].from) {
    edges.push_back(in_edge[v]);
  }
  std::reverse(edges.begin(), edges.end());
  for (int e : edges) witness.path.push_back(graph.Materialize(e));
  result->error_free = false;
  result->witness = std::move(witness);
  return true;
}

}  // namespace

StatusOr<ErrorFreeResult> CheckErrorFreeOnDatabase(
    const WebService& service, const Instance& database,
    const ErrorFreeOptions& options) {
  ErrorFreeResult result;
  result.databases_checked = 1;
  WSV_RETURN_IF_ERROR(
      CheckOne(service, database, options, &result).status());
  return result;
}

StatusOr<ErrorFreeResult> CheckErrorFree(const WebService& service,
                                         const ErrorFreeOptions& options) {
  ErrorFreeResult result;
  WSV_ASSIGN_OR_RETURN(
      bool stopped,
      EnumerateDatabases(service, options.db,
                         [&](const Instance& db) -> StatusOr<bool> {
                           ++result.databases_checked;
                           return CheckOne(service, db, options, &result);
                         }));
  (void)stopped;
  return result;
}

}  // namespace wsv
