// Accepting-lasso search: the lasso contract, the CVWY nested DFS the
// verifier runs over an implicit product graph, and an eager search
// over explicit graphs.
//
// FindLassoNestedDfs is the CVWY nested DFS (Courcoubetis–Vardi–
// Wolper–Yannakakis, the SPIN algorithm) over a graph whose vertices
// the caller discovers lazily: first lasso in DFS order, linear time.
// A red DFS from each accepting vertex's post-order hunts a cycle back
// onto the blue stack. The on-the-fly verifier (verify/ltl_verifier.cc)
// calls it once per product search.
//
// FindAcceptingLasso is eager, SCC-based (iterative Tarjan) over a fully
// materialized graph: a Büchi-accepting run exists iff some SCC
// reachable from an initial vertex contains an accepting vertex and a
// cycle. It backs the test-only reference checker.
//
// Both are sound and complete for lasso *existence* — they return a
// lasso iff the reachable Büchi language is non-empty — which is all
// Theorem 3.5 asks (DESIGN.md §6e).

#ifndef WSV_AUTOMATA_EMPTINESS_H_
#define WSV_AUTOMATA_EMPTINESS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/status.h"

namespace wsv {

/// How often cooperative cancellation is polled: FindLassoNestedDfs
/// checks its `stop` hook once per this many vertex expansions.
inline constexpr uint64_t kCancellationPollInterval = 64;

/// A witness for non-emptiness: `prefix` leads from an initial vertex to
/// `cycle.front()`; `cycle` returns to its own front (the edge from
/// cycle.back() to cycle.front() exists). prefix.back() == cycle.front().
struct Lasso {
  std::vector<int> prefix;
  std::vector<int> cycle;
};

/// A vertex's successors: entries [begin, end) of the search problem's
/// successor array. Indices, not pointers: the array grows, and may
/// move, while the search holds ranges into it.
struct SuccRange {
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// One emptiness query over an implicit graph whose vertex ids the
/// caller assigns (typically by interning product states on first
/// discovery). The successor lists live in one append-only array,
/// `*successors`: `succ(v)` returns v's range in it, appending the list
/// on first call, and must be memoizing (the search asks for a vertex's
/// successors more than once); entries already handed out never change.
/// Its errors (e.g. cancellation from a lazily expanded graph) abort the
/// search. `stop` may be null.
struct SearchProblem {
  std::vector<int> initial;
  const std::vector<int>* successors = nullptr;
  std::function<StatusOr<SuccRange>(int)> succ;
  std::function<bool(int)> accepting;
  /// Cooperative cancellation, polled about every
  /// kCancellationPollInterval expansions.
  std::function<bool()> stop;
};

/// Work accounting for one search.
struct SearchStats {
  /// Deepest blue-DFS stack the search reached.
  uint64_t max_depth = 0;
};

/// The CVWY nested DFS over `problem`: returns the first accepting lasso
/// in DFS order (satisfying the Lasso contract), nullopt if the
/// reachable language is empty, or Status::Cancelled when `stop` fires.
/// `stats` may be null.
StatusOr<std::optional<Lasso>> FindLassoNestedDfs(const SearchProblem& problem,
                                                  SearchStats* stats);

/// Finds an accepting lasso in the graph, or nullopt if the Büchi
/// language is empty. `succ[v]` lists v's successors; `initial` and
/// `accepting` are per-vertex flags (vectors of size |V|).
std::optional<Lasso> FindAcceptingLasso(
    const std::vector<std::vector<int>>& succ,
    const std::vector<char>& initial, const std::vector<char>& accepting);

}  // namespace wsv

#endif  // WSV_AUTOMATA_EMPTINESS_H_
