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
//
// The database can also be left open and decided during the expansion
// (DESIGN.md §6j): every node then carries the database as far as its
// run has decided it, and a step that probes an open fact is redone once
// per decision. Every path is then a run on the database its nodes
// decide, and every run on a database within the bounds is a path.

#ifndef WSV_VERIFY_CONFIG_GRAPH_H_
#define WSV_VERIFY_CONFIG_GRAPH_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <ranges>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_index.h"
#include "common/status.h"
#include "ltl/run_semantics.h"
#include "runtime/successor.h"

namespace wsv {

struct ConfigGraphOptions {
  /// Candidate values for input constants (InputConstantPool,
  /// verify/db_enum.h); a page requesting constants fails on none.
  std::vector<Value> constant_pool;
  size_t max_nodes = 200000;
  size_t max_edges = 2000000;
  /// Cooperative cancellation hook, polled once per expanded node. When
  /// it returns true, BuildConfigGraph abandons the build and returns
  /// Status::Cancelled. LtlDatabaseCheck::CheckValuations chains its
  /// stop predicate in here, so parallel workers whose index can no
  /// longer win stop mid-build instead of finishing a large graph nobody
  /// will read.
  std::function<bool()> cancel_check;
  /// The database the runs are on; null is the stepper's database,
  /// fully decided. One decided in part (relational/decided.h) is
  /// decided during the expansion: an open part a step probes is
  /// settled by redoing the step once per decision. Must outlive the
  /// graph.
  const DecidedDatabase* database = nullptr;
  /// Database facts, relations and constants decided before a node's
  /// first step: what the property's FO leaves read, so every edge's
  /// label is evaluated on a database that decides it.
  std::vector<DbProbe> decide_first;
};

/// The hash-consed store of one configuration graph (DESIGN.md §6h): every
/// distinct instance (state, prev, actions or edge inputs), kappa map,
/// page name and error reason the graph's nodes and edges refer to, held
/// once. Interning
/// returns the stored copy's address, so equal parts have equal addresses
/// and nodes hash and compare as pointers. Nothing stored moves or dies
/// before the store: entries live in deques, and a graph holds its store
/// through a unique_ptr, so views stay valid while the graph grows and
/// when it is moved.
class ConfigStore {
 public:
  ConfigStore() = default;
  ConfigStore(const ConfigStore&) = delete;
  ConfigStore& operator=(const ConfigStore&) = delete;

  /// The stored copy of `part`'s instance. A source part is already one
  /// (the source node's instances are stored); a prototype is interned
  /// once per prototype address; a built part is looked up by value and
  /// stored only if new.
  const Instance* Intern(Part part);
  const Kappa* Intern(Kappa kappa);
  /// The stored copy of a decided database, whose facts are stored
  /// already or outlive the store.
  const DecidedDatabase* Intern(DecidedDatabase database);
  /// The stored name of the page interned as `page`.
  const std::string* InternPage(NameId page);
  /// The stored copy of an error reason; "" for an edge that does not
  /// enter the error page.
  const std::string* InternReason(std::string reason);

  /// Estimated heap bytes of everything stored, each part counted once.
  uint64_t bytes() const { return bytes_; }

  const std::deque<Instance>& instances() const { return instances_.items; }
  const std::deque<Kappa>& kappas() const { return kappas_.items; }

 private:
  // Stored values of one type and their index by structural hash.
  template <typename T>
  struct Pool {
    std::deque<T> items;
    std::unordered_multimap<size_t, const T*> index;

    // The stored copy of `value`, storing it if new; `*added` tells which.
    const T* Intern(T value, size_t hash, bool* added);
  };

  // The stored copy of `inst`, storing it if new.
  const Instance* Intern(Instance inst);

  Pool<Instance> instances_;
  Pool<Kappa> kappas_;
  Pool<DecidedDatabase> databases_;
  Pool<std::string> reasons_;
  /// Stored page names, few per graph: interned name -> stored copy.
  std::deque<std::string> page_names_;
  std::vector<std::pair<NameId, const std::string*>> pages_;
  /// Stepper prototypes already interned: prototype address -> stored copy.
  std::vector<std::pair<const Instance*, const Instance*>> prototypes_;
  uint64_t bytes_ = 0;
};

/// The out-edges of one node: edge ids [first, last), contiguous
/// because one expansion appends all of a node's edges. Empty until the
/// node is expanded.
using EdgeRange = std::ranges::iota_view<int, int>;

struct ConfigGraph {
  /// An edge stores only what the source node does not already carry:
  /// the inputs chosen at this step, as a pointer into the store. The
  /// trace element <V, S, I, P, A, kappa> is reconstructed as a view on
  /// demand.
  struct Edge {
    int from = 0;
    int to = 0;
    const Instance* inputs = nullptr;
    /// Why the edge enters the error page, stored once in the store
    /// (never null; "" for an edge that does not enter it, and every
    /// step that enters it gives a reason).
    const std::string* error_reason = nullptr;

    bool to_error() const { return !error_reason->empty(); }
  };

  /// The store every node and edge points into.
  std::unique_ptr<ConfigStore> store = std::make_unique<ConfigStore>();
  /// Node v's parts; structurally distinct nodes have distinct views.
  std::vector<ConfigView> nodes;
  /// Node v's page, interned; parallel to `nodes`.
  std::vector<NameId> page_ids;
  std::vector<Edge> edges;
  /// out_edges[v] indexes into `edges`.
  std::vector<EdgeRange> out_edges;
  int initial = 0;
  /// True if a budget was hit; the graph is then a prefix of the real one.
  bool truncated = false;

  /// A non-owning view of the trace element of edge `e`; valid while the
  /// graph (wherever it has been moved) is alive, also as it grows.
  TraceView View(int e) const;
  /// An owning copy of the trace element of edge `e`.
  TraceStep Materialize(int e) const;
  /// An owning copy of node `v`, without its database.
  Config MaterializeNode(int v) const;
  /// The database edge `e` is taken on: its target's (the step that
  /// made the edge decided it that far). Its completion is what an FO
  /// leaf reads at the edge.
  const DecidedDatabase& EdgeDatabase(int e) const {
    return *nodes[static_cast<size_t>(edges[static_cast<size_t>(e)].to)]
                .database;
  }

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
  /// `stepper` must outlive the LazyConfigGraph.
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
  struct NodeHash {
    size_t operator()(const ConfigView& n) const;
  };

  /// The id of the node with these parts, interning them and appending
  /// the node to graph_.nodes if new. `source` is the node the successor
  /// was stepped from (its parts are stored already).
  int InternNode(Successor& succ, const ConfigView& source);
  /// The id of `node`, whose parts are stored and whose page is interned
  /// as `page_id`, appending it if new.
  int InternView(const ConfigView& node, NameId page_id);
  Status ExpandNode(int v);
  void MarkTruncated();
  /// Publishes the footprint's growth (store included) since the last
  /// publish to the gauge: once per expansion, not per node or edge.
  void PublishBytes();

  const Stepper* stepper_;
  ConfigGraphOptions options_;
  ConfigGraph graph_;
  /// Dedup index over the nodes' pointer tuples (ids into graph_.nodes).
  FlatIdIndex node_index_;
  std::vector<char> expanded_;
  // Bytes this instance has published to mem/config_graph_bytes (the
  // store's contents plus the fixed node and edge sizes), returned on
  // destruction.
  uint64_t gauge_bytes_ = 0;
  // The fixed node and edge sizes so far, published or not.
  uint64_t fixed_bytes_ = 0;
};

}  // namespace wsv

#endif  // WSV_VERIFY_CONFIG_GRAPH_H_
