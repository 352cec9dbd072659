// Accepting-lasso search on explicit graphs, and the lasso contract the
// on-the-fly strategies (automata/search_strategy.h) share.
//
// FindAcceptingLasso is eager, SCC-based (iterative Tarjan) over a fully
// materialized graph: a Büchi-accepting run exists iff some SCC
// reachable from an initial vertex contains an accepting vertex and a
// cycle. A concrete lasso (prefix + cycle) is returned for
// counterexample reporting. The verifier itself searches lazily
// (search_strategy.h); this explicit-graph search backs the test-only
// reference checker.

#ifndef WSV_AUTOMATA_EMPTINESS_H_
#define WSV_AUTOMATA_EMPTINESS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"

namespace wsv {

/// How often cooperative cancellation is polled: every strategy that
/// searches an implicit graph (automata/search_strategy.h) checks its
/// `stop` hook once per this many vertex expansions. Shared so the
/// cancellation-drain latency is uniform across strategies.
inline constexpr uint64_t kCancellationPollInterval = 64;

/// A witness for non-emptiness: `prefix` leads from an initial vertex to
/// `cycle.front()`; `cycle` returns to its own front (the edge from
/// cycle.back() to cycle.front() exists). prefix.back() == cycle.front().
struct Lasso {
  std::vector<int> prefix;
  std::vector<int> cycle;
};

/// Finds an accepting lasso in the graph, or nullopt if the Büchi
/// language is empty. `succ[v]` lists v's successors; `initial` and
/// `accepting` are per-vertex flags (vectors of size |V|).
std::optional<Lasso> FindAcceptingLasso(
    const std::vector<std::vector<int>>& succ,
    const std::vector<char>& initial, const std::vector<char>& accepting);

}  // namespace wsv

#endif  // WSV_AUTOMATA_EMPTINESS_H_
