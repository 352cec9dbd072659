#include "automata/buchi.h"

namespace wsv {

BuchiAutomaton BuchiAutomaton::Degeneralize() const {
  BuchiAutomaton out;
  out.leaves = leaves;
  if (accepting_sets.size() <= 1) {
    out.states = states;
    out.succ = succ;
    out.initial = initial;
    if (accepting_sets.empty()) {
      // All runs accept: every state is accepting.
      std::set<int> all;
      for (size_t s = 0; s < states.size(); ++s) {
        all.insert(static_cast<int>(s));
      }
      out.accepting_sets.push_back(std::move(all));
    } else {
      out.accepting_sets = accepting_sets;
    }
    return out;
  }

  const int m = static_cast<int>(accepting_sets.size());
  const int n = static_cast<int>(states.size());
  auto encode = [&](int s, int i) { return s * m + i; };
  out.states.resize(static_cast<size_t>(n) * m);
  out.succ.resize(static_cast<size_t>(n) * m);
  out.initial.assign(static_cast<size_t>(n) * m, 0);
  std::set<int> accepting;
  for (int s = 0; s < n; ++s) {
    for (int i = 0; i < m; ++i) {
      int id = encode(s, i);
      out.states[id] = states[s];
      // The counter advances when leaving a state in the i-th set.
      bool in_fi = accepting_sets[i].count(s) > 0;
      int next_i = in_fi ? (i + 1) % m : i;
      for (int t : succ[s]) {
        out.succ[id].push_back(encode(t, next_i));
      }
      if (i == m - 1 && in_fi) accepting.insert(id);
      if (initial[s] && i == 0) out.initial[id] = 1;
    }
  }
  out.accepting_sets.push_back(std::move(accepting));
  return out;
}

std::string BuchiAutomaton::ToString() const {
  std::string out = "Buchi automaton: " + std::to_string(states.size()) +
                    " states, " + std::to_string(leaves.size()) +
                    " leaves, " + std::to_string(accepting_sets.size()) +
                    " accepting sets\n";
  for (size_t k = 0; k < leaves.size(); ++k) {
    out += "  leaf " + std::to_string(k) + ": " + leaves[k]->ToString() +
           "\n";
  }
  return out;
}

}  // namespace wsv
