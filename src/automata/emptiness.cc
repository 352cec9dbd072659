#include "automata/emptiness.h"

#include <algorithm>
#include <queue>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace wsv {

namespace {

// BFS path from any source flagged in `from` to vertex `to`, restricted
// to vertices where allowed(v) holds. Returns the path including both
// endpoints, or empty if unreachable.
template <typename Allowed>
std::vector<int> BfsPath(const std::vector<std::vector<int>>& succ,
                         const std::vector<char>& from, int to,
                         const Allowed& allowed) {
  const int n = static_cast<int>(succ.size());
  std::vector<int> parent(n, -2);  // -2 unvisited, -1 source
  std::queue<int> q;
  for (int v = 0; v < n; ++v) {
    if (from[v] && allowed(v)) {
      parent[v] = -1;
      q.push(v);
    }
  }
  while (!q.empty()) {
    int v = q.front();
    q.pop();
    if (v == to) {
      std::vector<int> path;
      for (int u = v; u != -1; u = parent[u]) path.push_back(u);
      std::reverse(path.begin(), path.end());
      return path;
    }
    for (int w : succ[v]) {
      if (parent[w] == -2 && allowed(w)) {
        parent[w] = v;
        q.push(w);
      }
    }
  }
  return {};
}

// Cooperative cancellation: polls `stop` once per
// kCancellationPollInterval expansions.
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

// CVWY nested DFS (FindLassoNestedDfs).
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
      WSV_ASSIGN_OR_RETURN(SuccRange root_succs, p_.succ(root));
      blue_.assign(1, Frame{root, root_succs});
      Visit();

      while (!blue_.empty()) {
        Frame& f = blue_.back();
        if (f.succs.begin < f.succs.end) {
          int w = successors()[f.succs.begin++];
          Ensure(w);
          if (color_[w] != kWhite) continue;
          if (poll_.Cancelled()) {
            return Status::Cancelled("emptiness search cancelled");
          }
          color_[w] = kCyan;
          stack_pos_[w] = static_cast<int>(blue_stack_.size());
          blue_stack_.push_back(w);
          WSV_ASSIGN_OR_RETURN(SuccRange w_succs, p_.succ(w));
          blue_.push_back(Frame{w, w_succs});
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

  // A DFS frame: vertex v and the successors left to visit, as indices
  // into the successor array (which may move as it grows).
  struct Frame {
    int v;
    SuccRange succs;
  };

  const std::vector<int>& successors() const { return *p_.successors; }

  void Ensure(int v) {
    if (static_cast<size_t>(v) >= color_.size()) {
      color_.resize(static_cast<size_t>(v) + 1, kWhite);
      stack_pos_.resize(static_cast<size_t>(v) + 1, -1);
    }
  }

  void Visit() {
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
    WSV_ASSIGN_OR_RETURN(SuccRange s_succs, p_.succ(s));
    red_.assign(1, Frame{s, s_succs});
    while (!red_.empty()) {
      Frame& f = red_.back();
      if (f.succs.begin < f.succs.end) {
        int w = successors()[f.succs.begin++];
        Ensure(w);
        if (color_[w] == kCyan) return w;  // cycle back into the blue stack
        if (color_[w] == kRed) continue;
        if (poll_.Cancelled()) {
          return Status::Cancelled("emptiness search cancelled");
        }
        color_[w] = kRed;
        WSV_ASSIGN_OR_RETURN(SuccRange w_succs, p_.succ(w));
        red_.push_back(Frame{w, w_succs});
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

}  // namespace

StatusOr<std::optional<Lasso>> FindLassoNestedDfs(const SearchProblem& problem,
                                                  SearchStats* stats) {
  WSV_SPAN("automata/emptiness");
  WSV_TIMER("automata/emptiness_ns");
  WSV_COUNT1("automata/emptiness_searches");
  SearchStats local;
  return CvwyRun(problem, stats != nullptr ? *stats : local).Run();
}

std::optional<Lasso> FindAcceptingLasso(
    const std::vector<std::vector<int>>& succ,
    const std::vector<char>& initial, const std::vector<char>& accepting) {
  WSV_SPAN("automata/emptiness");
  WSV_TIMER("automata/emptiness_ns");
  WSV_COUNT1("automata/emptiness_searches");
  const int n = static_cast<int>(succ.size());

  // Reachability from initial vertices.
  std::vector<char> reachable(n, 0);
  {
    std::queue<int> q;
    for (int v = 0; v < n; ++v) {
      if (initial[v]) {
        reachable[v] = 1;
        q.push(v);
      }
    }
    while (!q.empty()) {
      int v = q.front();
      q.pop();
      for (int w : succ[v]) {
        if (!reachable[w]) {
          reachable[w] = 1;
          q.push(w);
        }
      }
    }
  }

  // Iterative Tarjan SCC over the reachable subgraph.
  std::vector<int> index(n, -1), low(n, 0), comp(n, -1);
  std::vector<char> on_stack(n, 0);
  std::vector<int> stack;
  int next_index = 0, next_comp = 0;
  struct Frame {
    int v;
    size_t child;
  };
  for (int root = 0; root < n; ++root) {
    if (!reachable[root] || index[root] != -1) continue;
    std::vector<Frame> frames{{root, 0}};
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < succ[f.v].size()) {
        int w = succ[f.v][f.child++];
        if (!reachable[w]) continue;
        if (index[w] == -1) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          while (true) {
            int w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            comp[w] = next_comp;
            if (w == f.v) break;
          }
          ++next_comp;
        }
        int v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }

  // Does the SCC of `a` contain a cycle through `a`?
  auto cycle_through = [&](int a) -> std::vector<int> {
    // BFS from a's successors inside the SCC back to a.
    const int c = comp[a];
    std::vector<char> from(n, 0);
    bool self_loop = false;
    for (int w : succ[a]) {
      if (w == a) self_loop = true;
      if (comp[w] == c) from[w] = 1;
    }
    if (self_loop) return {a};
    std::vector<int> back = BfsPath(succ, from, a,
                                    [&](int v) { return comp[v] == c; });
    if (back.empty()) return {};
    // Cycle: a, back[0..end-1] (back ends at a).
    std::vector<int> cycle{a};
    cycle.insert(cycle.end(), back.begin(), back.end() - 1);
    return cycle;
  };

  for (int a = 0; a < n; ++a) {
    if (!reachable[a] || !accepting[a]) continue;
    std::vector<int> cycle = cycle_through(a);
    if (cycle.empty()) continue;
    std::vector<int> prefix =
        BfsPath(succ, initial, a, [&](int v) { return reachable[v]; });
    if (prefix.empty()) continue;  // should not happen: a is reachable
    Lasso lasso;
    lasso.prefix = std::move(prefix);
    lasso.cycle = std::move(cycle);
    WSV_COUNT1("automata/lassos_found");
    return lasso;
  }
  return std::nullopt;
}

}  // namespace wsv
