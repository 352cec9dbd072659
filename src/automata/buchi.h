// Büchi automata over FO-leaf truth assignments.
//
// The automata are *state-labeled*: every state carries a required truth
// value for each FO leaf of the property. A run of the automaton on a
// word (a sequence of leaf-truth assignments) may occupy a state at
// position i only if the state's label matches the assignment at i. This
// form makes the product with a configuration graph straightforward: a
// product state (node, q) is viable iff evaluating the leaves at the node
// matches q's label.
//
// Construction from LTL is in automata/ltl_to_buchi.h and produces a
// generalized automaton (one accepting set per Until subformula);
// Degeneralize() applies the standard counter construction.

#ifndef WSV_AUTOMATA_BUCHI_H_
#define WSV_AUTOMATA_BUCHI_H_

#include <set>
#include <string>
#include <vector>

#include "fo/formula.h"

namespace wsv {

class BuchiAutomaton {
 public:
  /// The FO leaves the labels range over.
  std::vector<FormulaPtr> leaves;
  /// states[s][k] == 1 iff state s requires leaf k to be true.
  std::vector<std::vector<char>> states;
  /// succ[s] lists successor state indices.
  std::vector<std::vector<int>> succ;
  /// initial[s] == 1 iff s is an initial state.
  std::vector<char> initial;
  /// Generalized acceptance: a run is accepting iff it visits each set
  /// infinitely often. Empty means "all runs accept".
  std::vector<std::set<int>> accepting_sets;

  size_t size() const { return states.size(); }

  /// The standard counter construction: returns an equivalent automaton
  /// with exactly one accepting set.
  BuchiAutomaton Degeneralize() const;

  std::string ToString() const;
};

}  // namespace wsv

#endif  // WSV_AUTOMATA_BUCHI_H_
