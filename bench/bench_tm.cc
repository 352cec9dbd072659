// E5 — the Turing machine reduction (Theorem 3.7): relaxing the
// input-boundedness of options rules lets services simulate TMs, so
// verification becomes undecidable. The bounded verifier still decides
// each *bounded* instance; its cost grows quickly with the tape budget
// (fresh database cells), exhibiting why no uniform bound can exist.

#include <benchmark/benchmark.h>

#include "common/str_util.h"
#include "reductions/turing.h"
#include "verify/ltl_verifier.h"

namespace wsv {
namespace {

// A machine that writes k ones moving right, then halts: halting needs
// k+1 tape cells, i.e. a database with that many allocatable values.
TuringMachine CountingMachine(int k) {
  TuringMachine tm;
  for (int i = 0; i < k; ++i) {
    tm.moves.push_back({StrCat({"q", std::to_string(i)}), "b", "1",
                        StrCat({"q", std::to_string(i + 1)}),
                        TuringMachine::Dir::kRight});
  }
  tm.moves.push_back({StrCat({"q", std::to_string(k)}), "b", "b", "qH",
                      TuringMachine::Dir::kStay});
  return tm;
}

void BM_TmHaltingDetection(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  TuringMachine tm = CountingMachine(k);
  if (!SimulateTm(tm, 100)) {
    state.SkipWithError("machine should halt");
    return;
  }
  WebService service = std::move(BuildTuringService(tm)).value();
  TemporalProperty prop =
      std::move(TuringNonHaltingProperty(tm, service)).value();
  LtlVerifyOptions options;
  options.require_input_bounded = false;
  options.db.fresh_values = k + 1;
  options.db.max_tuples_per_relation = k + 2;
  options.extra_constant_values = 0;
  LtlVerifier verifier(&service, options);
  for (auto _ : state) {
    auto r = verifier.Verify(prop);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    if (r->holds) {
      state.SkipWithError("halting machine not detected");
      return;
    }
    state.counters["databases"] =
        static_cast<double>(r->databases_checked);
    state.counters["graph_nodes"] =
        static_cast<double>(r->total_graph_nodes);
  }
  state.SetLabel("halting state reached within bounds");
}
BENCHMARK(BM_TmHaltingDetection)->DenseRange(1, 2, 1)
    ->Unit(benchmark::kMillisecond);

void BM_TmLoopingMachine(benchmark::State& state) {
  TuringMachine tm;
  tm.moves.push_back({"q0", "b", "b", "q0", TuringMachine::Dir::kStay});
  WebService service = std::move(BuildTuringService(tm)).value();
  TemporalProperty prop =
      std::move(TuringNonHaltingProperty(tm, service)).value();
  LtlVerifyOptions options;
  options.require_input_bounded = false;
  options.db.fresh_values = static_cast<int>(state.range(0));
  options.db.max_tuples_per_relation = static_cast<int>(state.range(0)) + 1;
  options.extra_constant_values = 0;
  LtlVerifier verifier(&service, options);
  for (auto _ : state) {
    auto r = verifier.Verify(prop);
    if (!r.ok() || !r->holds) {
      state.SkipWithError("looping machine must satisfy the property");
      return;
    }
    state.counters["databases"] =
        static_cast<double>(r->databases_checked);
  }
  state.SetLabel("no halting configuration in any bounded run");
}
BENCHMARK(BM_TmLoopingMachine)->DenseRange(1, 2, 1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wsv

BENCHMARK_MAIN();
