// E7 — Kripke construction from a propositional service and a database
// (Theorem 4.4 / Lemma A.12). The structure is exponential in the
// service in the worst case (states are proposition sets); the sweep
// over the number of independent state propositions shows the blow-up,
// while the page count alone contributes only linearly.

#include <benchmark/benchmark.h>

#include <string>

#include "common/str_util.h"
#include "verify/abstraction.h"
#include "ws/builder.h"

namespace wsv {
namespace {

// A ring of `pages` pages; each page can toggle `bits` independent state
// propositions through a parameterized input, then move on.
StatusOr<WebService> RingService(int pages, int bits) {
  ServiceBuilder b("Ring");
  b.Input("act", 1);
  for (int i = 0; i < bits; ++i) {
    b.State(StrCat({"s", std::to_string(i)}), 0);
  }
  for (int p = 0; p < pages; ++p) {
    PageBuilder page = b.Page(StrCat({"P", std::to_string(p)}));
    std::string options;
    for (int i = 0; i < bits; ++i) {
      if (i > 0) options += " | ";
      const std::string si = std::to_string(i);
      options += StrCat({"x = \"set", si, "\" | x = \"clr", si, "\""});
    }
    options += " | x = \"go\"";
    page.Options("act(x)", options);
    for (int i = 0; i < bits; ++i) {
      std::string si = std::to_string(i);
      page.Insert(StrCat({"s", si}), StrCat({"act(\"set", si, "\")"}));
      page.Delete(StrCat({"s", si}), StrCat({"act(\"clr", si, "\")"}));
    }
    page.Target(StrCat({"P", std::to_string((p + 1) % pages)}),
                "act(\"go\")");
  }
  b.Home("P0").Error("ERR");
  return b.Build();
}

void BM_KripkeVsBits(benchmark::State& state) {
  WebService service =
      std::move(RingService(3, static_cast<int>(state.range(0)))).value();
  Instance db;
  KripkeBuildOptions options;
  options.graph.constant_pool = {Value::Intern("c0")};
  for (auto _ : state) {
    auto kripke = BuildPropositionalKripke(service, db, options);
    if (!kripke.ok()) {
      state.SkipWithError(kripke.status().ToString().c_str());
      return;
    }
    state.counters["kripke_states"] = static_cast<double>(kripke->size());
  }
}
BENCHMARK(BM_KripkeVsBits)->DenseRange(1, 6, 1)
    ->Unit(benchmark::kMillisecond);

void BM_KripkeVsPages(benchmark::State& state) {
  WebService service =
      std::move(RingService(static_cast<int>(state.range(0)), 2)).value();
  Instance db;
  KripkeBuildOptions options;
  options.graph.constant_pool = {Value::Intern("c0")};
  for (auto _ : state) {
    auto kripke = BuildPropositionalKripke(service, db, options);
    if (!kripke.ok()) {
      state.SkipWithError(kripke.status().ToString().c_str());
      return;
    }
    state.counters["kripke_states"] = static_cast<double>(kripke->size());
  }
}
BENCHMARK(BM_KripkeVsPages)->DenseRange(2, 10, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wsv

BENCHMARK_MAIN();
