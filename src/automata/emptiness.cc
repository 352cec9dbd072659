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

}  // namespace

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
