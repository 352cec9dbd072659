// A small reference implementation of the linear-time verifier
// (Theorem 3.5), used only as a test oracle.
//
// It runs the textbook procedure and nothing else: build the whole
// configuration graph, then for every closure valuation in index order
// evaluate each FO leaf at each edge, build the product with the negated
// property's Büchi automaton, and run the SCC emptiness check. The first
// valuation whose lasso is faithful (its values occur in the run, the
// database or the property) is the witness. There is no leaf memo, class
// collapse, slicing or on-the-fly expansion, so it shares no
// optimization with LtlVerifier.

#ifndef WSV_TESTS_REFERENCE_CHECKER_H_
#define WSV_TESTS_REFERENCE_CHECKER_H_

#include <memory>
#include <set>
#include <vector>

#include "automata/emptiness.h"
#include "fo/bytecode/cache.h"
#include "verify/config_graph.h"
#include "verify/ltl_verifier.h"

namespace wsv {

inline StatusOr<LtlVerifyResult> ReferenceVerifyOnDatabase(
    const WebService& service, const TemporalProperty& property,
    const Instance& db, const LtlVerifyOptions& options) {
  WSV_ASSIGN_OR_RETURN(BuchiAutomaton automaton,
                       BuildNegatedAutomaton(service, property,
                                             options.require_input_bounded));
  Stepper stepper(&service, &db);
  stepper.SetTrackedPrev(TrackedPrevRelations(service, property));
  ConfigGraphOptions graph_options = options.graph;
  graph_options.constant_pool =
      ResolveConstantPool(service, property, db, options);
  WSV_ASSIGN_OR_RETURN(ConfigGraph graph,
                       BuildConfigGraph(stepper, graph_options));

  LtlVerifyResult result;
  result.databases_checked = 1;
  result.total_graph_nodes = graph.nodes.size();
  result.complete_within_bounds = !graph.truncated;

  const std::vector<std::string>& vars = property.universal_vars;
  const std::vector<Value> cand =
      ResolveClosureCandidates(service, property, db, options);
  uint64_t num_valuations = 1;
  for (size_t k = 0; k < vars.size(); ++k) num_valuations *= cand.size();

  const PagePropositions pages(service);
  std::vector<std::shared_ptr<const fobc::Program>> progs;
  for (const FormulaPtr& leaf : automaton.leaves) {
    WSV_ASSIGN_OR_RETURN(std::shared_ptr<const fobc::Program> prog,
                         fobc::GetOrCompileBool(leaf));
    progs.push_back(std::move(prog));
  }
  const size_t num_edges = graph.edges.size();
  const size_t num_states = automaton.size();
  const std::set<int>& accepting_states = automaton.accepting_sets.front();
  std::vector<std::vector<char>> is_succ(num_states,
                                         std::vector<char>(num_states, 0));
  for (size_t q = 0; q < num_states; ++q) {
    for (int q2 : automaton.succ[q]) is_succ[q][static_cast<size_t>(q2)] = 1;
  }
  for (uint64_t i = 0; i < num_valuations; ++i) {
    Valuation valuation;
    for (size_t k = 0, rest = i; k < vars.size(); ++k, rest /= cand.size()) {
      valuation[vars[k]] = cand[rest % cand.size()];
    }
    // Product vertices (edge, state) where the state's label is exactly
    // the edge's leaf truth, numbered in (edge, state) order.
    std::vector<std::pair<int, int>> verts;
    std::vector<std::vector<int>> verts_at(num_edges);
    for (size_t e = 0; e < num_edges; ++e) {
      std::vector<char> truth;
      for (size_t k = 0; k < automaton.leaves.size(); ++k) {
        WSV_ASSIGN_OR_RETURN(
            bool b, EvalFoAtStep(*automaton.leaves[k], progs[k].get(),
                                 graph.View(static_cast<int>(e)), db, service,
                                 pages, valuation));
        truth.push_back(b ? 1 : 0);
      }
      for (size_t q = 0; q < num_states; ++q) {
        if (automaton.states[q] != truth) continue;
        verts_at[e].push_back(static_cast<int>(verts.size()));
        verts.emplace_back(static_cast<int>(e), static_cast<int>(q));
      }
    }
    std::vector<std::vector<int>> succ(verts.size());
    std::vector<char> initial(verts.size(), 0);
    std::vector<char> accepting(verts.size(), 0);
    for (size_t v = 0; v < verts.size(); ++v) {
      const ConfigGraph::Edge& edge = graph.edges[verts[v].first];
      const size_t q = static_cast<size_t>(verts[v].second);
      initial[v] = edge.from == graph.initial && automaton.initial[q];
      accepting[v] = accepting_states.count(verts[v].second) > 0;
      for (int e2 : graph.out_edges[static_cast<size_t>(edge.to)]) {
        for (int w : verts_at[static_cast<size_t>(e2)]) {
          if (is_succ[q][static_cast<size_t>(verts[w].second)]) {
            succ[v].push_back(w);
          }
        }
      }
    }
    result.total_product_states += verts.size();

    std::optional<Lasso> lasso = FindAcceptingLasso(succ, initial, accepting);
    if (!lasso.has_value()) continue;
    CounterExample cex;
    for (int v : lasso->prefix) {
      cex.run.steps.push_back(
          graph.Materialize(verts[static_cast<size_t>(v)].first));
    }
    cex.run.loop_start = lasso->prefix.size() - 1;
    for (size_t j = 1; j < lasso->cycle.size(); ++j) {
      cex.run.steps.push_back(graph.Materialize(
          verts[static_cast<size_t>(lasso->cycle[j])].first));
    }
    // Faithfulness: the valuation must range over Dom(rho) — the values
    // of the run and the database — plus the property's literals.
    std::set<Value> dom = property.formula->Literals();
    dom.insert(db.domain().begin(), db.domain().end());
    for (const TraceStep& step : cex.run.steps) {
      for (const Instance* inst :
           {&step.state, &step.inputs, &step.prev_inputs, &step.actions}) {
        dom.insert(inst->domain().begin(), inst->domain().end());
      }
      for (const auto& [name, v] : step.kappa) dom.insert(v);
    }
    bool faithful = true;
    for (const auto& [var, v] : valuation) faithful &= dom.count(v) > 0;
    if (!faithful) continue;
    cex.database = db;
    cex.valuation = std::move(valuation);
    result.holds = false;
    result.counterexample = std::move(cex);
    return result;
  }
  return result;
}

}  // namespace wsv

#endif  // WSV_TESTS_REFERENCE_CHECKER_H_
