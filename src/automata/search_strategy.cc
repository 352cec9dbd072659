#include "automata/search_strategy.h"

#include <algorithm>
#include <climits>
#include <queue>
#include <tuple>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace wsv {

namespace {

// Cooperative cancellation, shared by every strategy: polls `stop` once
// per kCancellationPollInterval expansions (emptiness.h).
class CancelPoller {
 public:
  explicit CancelPoller(const std::function<bool()>& stop) : stop_(stop) {}
  bool Cancelled() {
    return stop_ && (++ops_ % kCancellationPollInterval) == 0 && stop_();
  }

 private:
  const std::function<bool()>& stop_;
  uint64_t ops_ = 0;
};

// ---------------------------------------------------------------------
// CVWY nested DFS: the "dfs" strategy.
// ---------------------------------------------------------------------

class CvwyRun {
 public:
  CvwyRun(const SearchProblem& p, SearchStats& st)
      : p_(p), st_(st), poll_(p.stop) {}

  StatusOr<std::optional<Lasso>> Run() {
    for (int root : p_.initial) {
      Ensure(root);
      if (color_[root] != kWhite) continue;
      color_[root] = kCyan;
      blue_stack_.push_back(root);
      stack_pos_[root] = 0;
      WSV_ASSIGN_OR_RETURN(const std::vector<int>* root_succs,
                           p_.succ(root));
      blue_.assign(1, Frame{root, root_succs, 0});
      Visit();

      while (!blue_.empty()) {
        Frame& f = blue_.back();
        if (f.child < f.succs->size()) {
          int w = (*f.succs)[f.child++];
          Ensure(w);
          if (color_[w] != kWhite) continue;
          if (poll_.Cancelled()) {
            return Status::Cancelled("emptiness search cancelled");
          }
          color_[w] = kCyan;
          stack_pos_[w] = static_cast<int>(blue_stack_.size());
          blue_stack_.push_back(w);
          WSV_ASSIGN_OR_RETURN(const std::vector<int>* w_succs, p_.succ(w));
          blue_.push_back(Frame{w, w_succs, 0});
          Visit();
        } else {
          // Post-order of v: accepting vertices seed the inner search
          // while still cyan (the seed itself closing the cycle is the
          // w == s case).
          const int v = f.v;
          if (p_.accepting(v)) {
            WSV_ASSIGN_OR_RETURN(int w, RedDfs(v));
            if (w != -1) return std::optional<Lasso>(Assemble(w));
          }
          color_[v] = p_.accepting(v) ? kRed : kBlue;
          stack_pos_[v] = -1;
          blue_stack_.pop_back();
          blue_.pop_back();
        }
      }
    }
    return std::optional<Lasso>(std::nullopt);
  }

 private:
  // CVWY colors. Invariants: cyan vertices are exactly the blue-DFS
  // stack; blue vertices are fully explored and accepting-cycle-free so
  // far; red vertices have been swept by some inner (red) DFS and never
  // need re-sweeping — the red set persists across seeds, which is what
  // makes the nested search linear.
  enum : char { kWhite = 0, kCyan = 1, kBlue = 2, kRed = 3 };

  struct Frame {
    int v;
    const std::vector<int>* succs;
    size_t child;
  };

  void Ensure(int v) {
    if (static_cast<size_t>(v) >= color_.size()) {
      color_.resize(static_cast<size_t>(v) + 1, kWhite);
      stack_pos_.resize(static_cast<size_t>(v) + 1, -1);
    }
  }

  void Visit() {
    ++st_.vertices_visited;
    st_.max_depth = std::max<uint64_t>(st_.max_depth, blue_stack_.size());
  }

  // The cycle was detected with the red DFS (frames in `red_`, seed on
  // top of `blue_stack_`) reaching the cyan vertex `w`: assemble
  //   prefix = blue stack (initial root .. seed s)
  //   cycle  = s, red path minus its endpoints' duplicates, then the
  //            blue-stack segment from w up to just below s.
  Lasso Assemble(int w) {
    Lasso lasso;
    lasso.prefix = blue_stack_;
    const int top = static_cast<int>(blue_stack_.size()) - 1;  // seed s
    for (size_t i = 0; i < red_.size(); ++i) lasso.cycle.push_back(red_[i].v);
    const int j = stack_pos_[w];
    for (int i = j; i < top; ++i) lasso.cycle.push_back(blue_stack_[i]);
    WSV_COUNT1("automata/lassos_found");
    return lasso;
  }

  // Inner (red) DFS from the accepting seed on top of the blue stack.
  // Returns the closing cyan vertex, -1 if no accepting cycle through
  // the seed, or an error (cancellation / implicit-graph failure).
  StatusOr<int> RedDfs(int s) {
    WSV_ASSIGN_OR_RETURN(const std::vector<int>* s_succs, p_.succ(s));
    red_.assign(1, Frame{s, s_succs, 0});
    while (!red_.empty()) {
      Frame& f = red_.back();
      if (f.child < f.succs->size()) {
        int w = (*f.succs)[f.child++];
        Ensure(w);
        if (color_[w] == kCyan) return w;  // cycle back into the blue stack
        if (color_[w] == kRed) continue;
        if (poll_.Cancelled()) {
          return Status::Cancelled("emptiness search cancelled");
        }
        color_[w] = kRed;
        WSV_ASSIGN_OR_RETURN(const std::vector<int>* w_succs, p_.succ(w));
        red_.push_back(Frame{w, w_succs, 0});
      } else {
        red_.pop_back();
      }
    }
    return -1;
  }

  const SearchProblem& p_;
  SearchStats& st_;
  CancelPoller poll_;

  std::vector<char> color_;
  // Position on the blue stack while cyan (-1 otherwise): turns the
  // cycle-closing lookup at detection time into O(1).
  std::vector<int> stack_pos_;
  std::vector<int> blue_stack_;
  std::vector<Frame> blue_;
  std::vector<Frame> red_;
};

class DfsStrategy : public SearchStrategy {
 public:
  const char* name() const override { return "dfs"; }
  StatusOr<std::optional<Lasso>> FindLasso(const SearchProblem& problem,
                                           SearchStats* stats) override {
    WSV_SPAN("automata/emptiness");
    WSV_TIMER("automata/emptiness_ns");
    WSV_COUNT1("automata/emptiness_searches");
    SearchStats local;
    SearchStats& st = stats != nullptr ? *stats : local;
    return CvwyRun(problem, st).Run();
  }
};

// ---------------------------------------------------------------------
// Greedy best-first violation hunter: expand the open vertex with the
// smallest evaluator value (distance-to-accepting on the Büchi
// automaton; a null evaluator degenerates to the constant-0 evaluator
// and the search to insertion-order BFS). Every settled accepting
// vertex seeds an inner DFS looking for a path back to itself — a cycle
// containing an accepting vertex is a cycle *through* an accepting
// vertex, so seeding each settled accepting vertex exactly once is
// complete. Successors whose evaluator value is kInfiniteDistance can
// never reach an accepting vertex (the automaton component cannot) and
// are pruned.
// ---------------------------------------------------------------------

class DirectedStrategy : public SearchStrategy {
 public:
  const char* name() const override { return "directed"; }

  StatusOr<std::optional<Lasso>> FindLasso(const SearchProblem& problem,
                                           SearchStats* stats) override {
    WSV_SPAN("automata/emptiness");
    WSV_TIMER("automata/emptiness_ns");
    WSV_COUNT1("automata/emptiness_searches");
    SearchStats local;
    SearchStats& st = stats != nullptr ? *stats : local;
    CancelPoller poll(problem.stop);

    std::vector<int> h;        // memoized evaluator values
    std::vector<char> closed;  // settled vertices
    std::vector<int> parent;   // tree edge for prefix reconstruction
    std::vector<int> depth;
    std::vector<uint32_t> mark;  // inner-DFS visit stamps
    auto ensure = [&](int v) {
      if (static_cast<size_t>(v) >= closed.size()) {
        const size_t n = static_cast<size_t>(v) + 1;
        h.resize(n, INT_MIN);
        closed.resize(n, 0);
        parent.resize(n, -2);  // -2 = never reached, -1 = initial
        depth.resize(n, 0);
        mark.resize(n, 0);
      }
    };
    auto eval = [&](int v) {
      ensure(v);
      if (h[static_cast<size_t>(v)] == INT_MIN) {
        if (problem.evaluate) {
          ++st.heuristic_evals;
          h[static_cast<size_t>(v)] = problem.evaluate(v);
        } else {
          h[static_cast<size_t>(v)] = 0;
        }
      }
      return h[static_cast<size_t>(v)];
    };

    // Min-heap on (h, insertion seq): the seq ties break FIFO, keeping
    // the expansion order deterministic for a fixed succ order.
    using QItem = std::tuple<int, uint64_t, int>;
    std::priority_queue<QItem, std::vector<QItem>, std::greater<QItem>> open;
    uint64_t seq = 0;
    for (int v : problem.initial) {
      ensure(v);
      if (eval(v) == kInfiniteDistance) continue;
      if (parent[static_cast<size_t>(v)] == -2) {
        parent[static_cast<size_t>(v)] = -1;
        depth[static_cast<size_t>(v)] = 1;
        open.emplace(eval(v), seq++, v);
      }
    }

    uint32_t stamp = 0;
    struct Frame {
      int v;
      const std::vector<int>* succs;
      size_t child;
    };
    std::vector<Frame> dfs;

    // Inner cycle search: a DFS from the settled accepting seed looking
    // for an edge back to the seed. Fresh visit stamps per seed (the
    // CVWY red-set persistence argument needs post-order seeds, which a
    // best-first expansion does not provide).
    auto find_cycle =
        [&](int s) -> StatusOr<std::optional<std::vector<int>>> {
      ++stamp;
      WSV_ASSIGN_OR_RETURN(const std::vector<int>* s_succs, problem.succ(s));
      dfs.assign(1, Frame{s, s_succs, 0});
      mark[static_cast<size_t>(s)] = stamp;
      while (!dfs.empty()) {
        Frame& f = dfs.back();
        if (f.child < f.succs->size()) {
          int w = (*f.succs)[f.child++];
          ensure(w);
          if (w == s) {
            std::vector<int> cycle;
            cycle.reserve(dfs.size());
            for (const Frame& fr : dfs) cycle.push_back(fr.v);
            return std::optional<std::vector<int>>(std::move(cycle));
          }
          if (mark[static_cast<size_t>(w)] == stamp) continue;
          // A vertex on a cycle through s can reach the accepting s, so
          // the infinite-distance prune is sound here too.
          if (eval(w) == kInfiniteDistance) continue;
          if (poll.Cancelled()) {
            return Status::Cancelled("emptiness search cancelled");
          }
          mark[static_cast<size_t>(w)] = stamp;
          WSV_ASSIGN_OR_RETURN(const std::vector<int>* w_succs,
                               problem.succ(w));
          dfs.push_back(Frame{w, w_succs, 0});
        } else {
          dfs.pop_back();
        }
      }
      return std::optional<std::vector<int>>(std::nullopt);
    };

    while (!open.empty()) {
      const int v = std::get<2>(open.top());
      open.pop();
      if (closed[static_cast<size_t>(v)]) continue;
      closed[static_cast<size_t>(v)] = 1;
      ++st.vertices_visited;
      st.max_depth =
          std::max<uint64_t>(st.max_depth, depth[static_cast<size_t>(v)]);
      if (poll.Cancelled()) {
        return Status::Cancelled("emptiness search cancelled");
      }

      if (problem.accepting(v)) {
        WSV_ASSIGN_OR_RETURN(std::optional<std::vector<int>> cycle,
                             find_cycle(v));
        if (cycle.has_value()) {
          Lasso lasso;
          for (int u = v; u != -1; u = parent[static_cast<size_t>(u)]) {
            lasso.prefix.push_back(u);
          }
          std::reverse(lasso.prefix.begin(), lasso.prefix.end());
          lasso.cycle = std::move(*cycle);
          WSV_COUNT1("automata/lassos_found");
          return std::optional<Lasso>(std::move(lasso));
        }
      }

      WSV_ASSIGN_OR_RETURN(const std::vector<int>* succs, problem.succ(v));
      for (int w : *succs) {
        ensure(w);
        if (closed[static_cast<size_t>(w)]) continue;
        if (eval(w) == kInfiniteDistance) continue;
        if (parent[static_cast<size_t>(w)] == -2) {
          parent[static_cast<size_t>(w)] = v;
          depth[static_cast<size_t>(w)] = depth[static_cast<size_t>(v)] + 1;
        }
        open.emplace(eval(w), seq++, w);
      }
    }
    return std::optional<Lasso>(std::nullopt);
  }
};

}  // namespace

StatusOr<std::unique_ptr<SearchStrategy>> MakeSearchStrategy(
    const SearchOptions& options) {
  std::unique_ptr<SearchStrategy> strategy;
  if (options.strategy == "dfs") {
    strategy = std::make_unique<DfsStrategy>();
  } else if (options.strategy == "directed") {
    strategy = std::make_unique<DirectedStrategy>();
  } else {
    return Status::InvalidArgument("unknown search strategy '" +
                                   options.strategy +
                                   "' (known: dfs, directed)");
  }
  return strategy;
}

}  // namespace wsv
