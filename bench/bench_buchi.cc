// E11 — LTL -> Büchi translation: automaton size and construction time
// versus formula size (the exponential front-end every linear-time
// verification pays once per property).

#include <benchmark/benchmark.h>

#include <string>

#include "automata/ltl_to_buchi.h"
#include "common/str_util.h"
#include "ltl/ltl_parser.h"

namespace wsv {
namespace {

// Nested untils: (p0 U (p1 U (... U pn))).
std::string NestedUntil(int n) {
  std::string text = StrCat({"p", std::to_string(n)});
  for (int i = n - 1; i >= 0; --i) {
    text = StrCat({"p", std::to_string(i), " U (", text, ")"});
  }
  return text;
}

// Conjunctions of response properties: G(p_i -> F q_i).
std::string Responses(int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    if (i > 0) text += " & ";
    const std::string si = std::to_string(i);
    text += StrCat({"G(p", si, " -> F(q", si, "))"});
  }
  return text;
}

void RunTranslation(benchmark::State& state, const std::string& text) {
  auto prop = ParseTemporalProperty(text, nullptr);
  if (!prop.ok()) {
    state.SkipWithError(prop.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto gba = LtlToBuchi(*prop->formula);
    if (!gba.ok()) {
      state.SkipWithError(gba.status().ToString().c_str());
      return;
    }
    BuchiAutomaton aut = gba->Degeneralize();
    state.counters["gba_states"] = static_cast<double>(gba->size());
    state.counters["buchi_states"] = static_cast<double>(aut.size());
    benchmark::DoNotOptimize(aut.size());
  }
}

void BM_BuchiNestedUntil(benchmark::State& state) {
  RunTranslation(state, NestedUntil(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_BuchiNestedUntil)->DenseRange(1, 5, 1)
    ->Unit(benchmark::kMicrosecond);

void BM_BuchiResponses(benchmark::State& state) {
  RunTranslation(state, Responses(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_BuchiResponses)->DenseRange(1, 3, 1)
    ->Unit(benchmark::kMicrosecond);

void BM_BuchiPaperProperty(benchmark::State& state) {
  // The shape of Example 3.2's property (1).
  RunTranslation(state, "G(!p) | F(p & F(q))");
}
BENCHMARK(BM_BuchiPaperProperty)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace wsv

BENCHMARK_MAIN();
