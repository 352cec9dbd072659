// The configuration graph of a Web service over a fixed database.
//
// Nodes are run configurations (runtime/config.h); an edge corresponds to
// one user decision and carries the trace element <V, S, I, P, A> that
// LTL-FO formulas are evaluated on at that position. Every infinite path
// from the initial node through the graph is a run of the service on the
// database, and vice versa (with input-constant values drawn from the
// configured candidate pool).
//
// The graph is finite because the database is fixed, state relations
// range over the (finite) active domain, and input constants come from
// the finite pool. It can still be large; budgets cap the exploration and
// report truncation so callers can distinguish "verified within bounds"
// from "gave up".

#ifndef WSV_VERIFY_CONFIG_GRAPH_H_
#define WSV_VERIFY_CONFIG_GRAPH_H_

#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "ltl/run_semantics.h"
#include "runtime/successor.h"

namespace wsv {

struct ConfigGraphOptions {
  /// Candidate values for input constants. If empty, the database's
  /// active domain plus the service's rule literals are used.
  std::vector<Value> constant_pool;
  size_t max_nodes = 200000;
  size_t max_edges = 2000000;
  /// Cooperative cancellation hook, polled once per expanded node. When
  /// it returns true, BuildConfigGraph abandons the build and returns
  /// Status::Cancelled — the parallel engine sets this so workers whose
  /// database can no longer win stop mid-build instead of finishing a
  /// large graph nobody will read.
  std::function<bool()> cancel_check;
};

struct ConfigGraph {
  /// An edge stores only what the source node does not already carry:
  /// the inputs chosen at this step. The trace element
  /// <V, S, I, P, A, kappa> is reconstructed as a view on demand.
  struct Edge {
    int from = 0;
    int to = 0;
    Instance inputs;
    bool to_error = false;
    std::string error_reason;
  };

  std::vector<Config> nodes;
  std::vector<Edge> edges;
  /// out_edges[v] indexes into `edges`.
  std::vector<std::vector<int>> out_edges;
  int initial = 0;
  /// True if a budget was hit; the graph is then a prefix of the real one.
  bool truncated = false;

  /// A non-owning view of the trace element of edge `e`; valid while the
  /// graph is alive and unmodified.
  TraceView View(int e) const;
  /// An owning copy of the trace element of edge `e`.
  TraceStep Materialize(int e) const;

  std::string Stats() const;
};

/// Builds the reachable configuration graph from the initial node.
StatusOr<ConfigGraph> BuildConfigGraph(const Stepper& stepper,
                                       const ConfigGraphOptions& options);

/// Incremental construction of the same graph, driven by the consumer:
/// nodes are interned on discovery and expanded (their out-edges
/// materialized through the stepper) only on request. The on-the-fly
/// product search uses this so a configuration is stepped only when the
/// nested DFS actually reaches it; BuildConfigGraph is ExpandAll() over
/// the same machinery, so full and lazy builds produce identical
/// node/edge orderings, dedup behavior, budgets, and counters.
///
/// Not thread-safe: each concurrent valuation sweep owns its own
/// instance (the verifiers keep it call-local).
class LazyConfigGraph {
 public:
  /// `stepper` must outlive the LazyConfigGraph. An empty
  /// options.constant_pool resolves to the database's active domain plus
  /// the service's rule literals, as in BuildConfigGraph.
  LazyConfigGraph(const Stepper* stepper, ConfigGraphOptions options);

  LazyConfigGraph(const LazyConfigGraph&) = delete;
  LazyConfigGraph& operator=(const LazyConfigGraph&) = delete;

  /// Returns the expansion state's bytes to the mem/config_graph_bytes
  /// gauge. The gauge tracks live lazy-graph state; a graph moved out via
  /// TakeGraph (BuildConfigGraph) is no longer counted.
  ~LazyConfigGraph();

  /// The graph built so far. out_edges[v] is complete iff Expanded(v);
  /// unexpanded nodes look like dead ends, which is exactly the prefix
  /// semantics of a truncated full build.
  const ConfigGraph& graph() const { return graph_; }
  int initial() const { return graph_.initial; }
  bool truncated() const { return graph_.truncated; }
  bool Expanded(int v) const {
    return expanded_[static_cast<size_t>(v)] != 0;
  }

  /// Materializes node v's out-edges if not already done. Returns false
  /// when a budget leaves the node unexpanded (the graph is then marked
  /// truncated); Status::Cancelled when options.cancel_check fires.
  StatusOr<bool> EnsureExpanded(int v);

  /// Expands every reachable node in BFS (= node id) order, exactly as
  /// BuildConfigGraph does, honoring budgets and cancellation.
  Status ExpandAll();

  /// Moves the graph out; the LazyConfigGraph must not be used after.
  ConfigGraph TakeGraph() { return std::move(graph_); }

 private:
  /// The id of `c`, appending it to graph_.nodes if new.
  int InternNode(Config c);
  Status ExpandNode(int v);
  void MarkTruncated();

  const Stepper* stepper_;
  ConfigGraphOptions options_;
  std::vector<Value> pool_;
  ConfigGraph graph_;
  /// Dedup index: Config::Hash() -> node ids; the configuration itself
  /// is stored once, in graph_.nodes.
  std::unordered_multimap<size_t, int> node_index_;
  std::vector<char> expanded_;
  // Bytes this instance has published to mem/config_graph_bytes
  // (estimated node/edge footprints), returned on destruction.
  uint64_t gauge_bytes_ = 0;
};

}  // namespace wsv

#endif  // WSV_VERIFY_CONFIG_GRAPH_H_
