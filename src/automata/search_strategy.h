// Pluggable accepting-lasso search strategies over implicit graphs.
//
// The on-the-fly verifier (verify/ltl_verifier.cc) searches the product
// of a lazily expanded configuration graph with a Büchi automaton for an
// accepting lasso. This header splits the *policy* (which vertex to
// expand next, which successors to bother with) from the *mechanism*
// (the implicit-graph callbacks that intern product states and expand
// the configuration graph on demand), in the style of Fast Downward's
// pluggable search components: a SearchProblem plays the role of the
// state space + EvaluationContext, an optional `evaluate` hook is the
// evaluator (a null hook behaves like Fast Downward's const_evaluator),
// and MakeSearchStrategy picks the policy by name.
//
// Strategies:
//
//  * "dfs"      — the CVWY nested DFS (Courcoubetis–Vardi–Wolper–
//                 Yannakakis, the SPIN strategy): first lasso in DFS
//                 order, linear time, the default. A red DFS from each
//                 accepting vertex's post-order hunts a cycle back onto
//                 the blue stack.
//  * "directed" — greedy best-first over `evaluate` (distance-to-
//                 accepting precomputed on the Büchi automaton by
//                 BuchiAutomaton::AcceptingDistance); each accepting
//                 vertex settled seeds an inner cycle search. Vertices
//                 the evaluator maps to kInfiniteDistance can never
//                 reach an accepting vertex and are pruned soundly.
//
// Every strategy is sound and complete for lasso *existence*: they
// return a lasso iff the reachable product language is non-empty, and
// every returned lasso satisfies the Lasso contract in emptiness.h (so
// witness replay through verify/witness_check.h validates it). Which
// lasso is returned may differ per strategy — the verifier confines
// non-default strategies to phases where the verdict is lasso-choice-
// invariant (see DESIGN.md §11).

#ifndef WSV_AUTOMATA_SEARCH_STRATEGY_H_
#define WSV_AUTOMATA_SEARCH_STRATEGY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "automata/emptiness.h"
#include "common/status.h"

namespace wsv {

/// Evaluator value for "can never reach an accepting vertex". Successors
/// with this value are pruned by heuristic strategies (sound: no
/// accepting lasso passes through them).
inline constexpr int kInfiniteDistance = -1;

/// Strategy selection, carried inside LtlVerifyOptions so the verifier
/// at every job count, the CLI, and the benches configure one knob.
struct SearchOptions {
  /// "dfs" or "directed". Unknown names fail at MakeSearchStrategy time
  /// with the known list in the message.
  std::string strategy = "dfs";
};

/// One emptiness query over an implicit graph whose vertex ids the
/// caller assigns (typically by interning product states on first
/// discovery). `succ(v)` must be memoizing (strategies may ask for a
/// vertex's successors more than once) and the returned pointers must
/// stay valid until the search ends; its errors (e.g. cancellation from
/// a lazily expanded graph) abort the search. `stop` and `evaluate` may
/// be null.
struct SearchProblem {
  std::vector<int> initial;
  std::function<StatusOr<const std::vector<int>*>(int)> succ;
  std::function<bool(int)> accepting;
  /// Cooperative cancellation, polled about every
  /// kCancellationPollInterval expansions (emptiness.h).
  std::function<bool()> stop;
  /// Lower bound on the number of steps from a vertex to an accepting
  /// vertex, or kInfiniteDistance when unreachable. Null: uninformed
  /// (treated as the constant-0 evaluator).
  std::function<int(int)> evaluate;
};

/// Work accounting for one strategy run.
struct SearchStats {
  /// Deepest prefix the strategy tracked (blue stack / parent chain).
  uint64_t max_depth = 0;
  /// Vertex expansions.
  uint64_t vertices_visited = 0;
  /// Calls into SearchProblem::evaluate.
  uint64_t heuristic_evals = 0;
};

/// A pluggable accepting-lasso search. Implementations are stateless
/// across FindLasso calls.
class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;
  virtual const char* name() const = 0;
  /// Searches `problem` for an accepting lasso: returns one satisfying
  /// the Lasso contract (emptiness.h), nullopt if the reachable
  /// language is empty, or Status::Cancelled when `stop` fires. `stats`
  /// may be null.
  virtual StatusOr<std::optional<Lasso>> FindLasso(
      const SearchProblem& problem, SearchStats* stats) = 0;
};

/// Instantiates the strategy `options.strategy` names; unknown names
/// return InvalidArgument.
StatusOr<std::unique_ptr<SearchStrategy>> MakeSearchStrategy(
    const SearchOptions& options);

}  // namespace wsv

#endif  // WSV_AUTOMATA_SEARCH_STRATEGY_H_
