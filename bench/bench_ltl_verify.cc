// E2 + E3 — LTL-FO verification (Theorem 3.5).
//
// E2 regenerates the paper's two flagship properties on the e-commerce
// service: the navigational eventuality (1) of Example 3.2 (violated)
// and pay-before-ship (4) of Example 3.4 (holds).
//
// E3 exhibits the PSPACE shape: verification time grows exponentially in
// the input-constant pool size and the database bound (the configuration
// graph is the exponential object), while the per-edge work stays
// polynomial. The node counters make the growth visible in the output.

#include <benchmark/benchmark.h>

#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "obs/report.h"
#include "verify/error_free.h"
#include "verify/ltl_verifier.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

// Folds the verifier's own telemetry into the benchmark's user counters,
// so `make bench_ltl_verify_json` carries the memo hit rate, graph
// expansion, and product sizes into BENCH_ltl_verify.json alongside the
// timings. Call obs::ResetMetrics() before the timing loop so the
// snapshot covers exactly this benchmark's iterations.
void MergeObsCounters(benchmark::State& state) {
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  auto put = [&](const char* key, const char* counter) {
    state.counters[key] = benchmark::Counter(
        static_cast<double>(snap.CounterValue(counter)),
        benchmark::Counter::kAvgIterations);
  };
  put("obs_nodes_expanded", "config_graph/nodes_expanded");
  put("obs_graph_nodes", "config_graph/nodes");
  put("obs_graph_edges", "config_graph/edges");
  put("obs_product_states", "ltl/product_states");
  put("obs_products_built", "ltl/products_built");
  put("obs_valuations_checked", "ltl/valuations_checked");
  put("obs_valuation_classes", "ltl/valuation_classes");
  put("obs_class_hits", "ltl/class_hits");
  put("obs_products_skipped", "ltl/products_skipped");
  put("obs_leaf_memo_hits", "ltl/leaf_memo_hits");
  put("obs_leaf_memo_misses", "ltl/leaf_memo_misses");
  // FO leaf work: per-edge leaf queries (set-at-a-time) vs per-binding
  // evaluations, and how many of the latter were fallbacks of
  // closure-dependent leaves.
  put("obs_fo_leaf_queries", "ltl/fo_leaf_queries");
  put("obs_fo_leaf_evals", "ltl/fo_leaf_evals");
  put("obs_fo_leaf_fallbacks", "ltl/fo_leaf_fallbacks");
  put("obs_otf_states_created", "ltl/otf_states_created");
  put("obs_otf_early_exits", "ltl/otf_early_exits");
  put("obs_bytecode_compiles", "fo/bytecode_compiles");
  put("obs_bytecode_cache_hits", "fo/bytecode_cache_hits");
  put("obs_bytecode_steps", "fo/bytecode_steps");
  put("obs_bytecode_execs", "fo/bytecode_execs");
  put("obs_interp_evals", "fo/interp_evals");
  // Cone-of-influence slicing: dependence-graph size, what the slicer
  // dropped, and how often the sliced probe bailed at a lasso. The
  // ratio row makes the reduction visible at a glance.
  put("obs_depgraph_nodes", "depgraph/nodes");
  put("obs_depgraph_edges", "depgraph/edges");
  put("obs_slice_cone_size", "slice/cone_size");
  put("obs_slice_rules_dropped", "slice/rules_dropped");
  put("obs_slice_relations_dropped", "slice/relations_dropped");
  put("obs_slice_inputs_dropped", "slice/inputs_dropped");
  put("obs_slice_sliced", "slice/sliced");
  put("obs_slice_lasso_bailouts", "slice/lasso_bailouts");
  put("obs_name_lookups", "relational/name_lookups");
  // Registry slot writes (counter adds, histogram records, published
  // deferred counters): the price of the telemetry itself, which must
  // not grow with the edges (bench-guarded on the login sweep).
  put("obs_registry_writes", "obs/registry_writes");
  uint64_t cone = snap.CounterValue("slice/cone_size");
  uint64_t dropped = snap.CounterValue("slice/relations_dropped");
  if (cone + dropped > 0) {
    state.counters["obs_slice_cone_ratio"] =
        static_cast<double>(cone) / static_cast<double>(cone + dropped);
  }
  // Peak product size: the max of the per-search state-count histogram
  // (not averaged — it is already a max over the snapshot window).
  auto hist = snap.histograms.find("ltl/peak_product_states");
  if (hist != snap.histograms.end()) {
    state.counters["obs_peak_product_states"] =
        static_cast<double>(hist->second.max);
  }
  double rate = obs::LeafMemoHitRate(snap);
  if (rate >= 0) state.counters["obs_memo_hit_rate"] = rate;
  double collapse = obs::ValuationCollapseRate(snap);
  if (collapse >= 0) state.counters["obs_collapse_rate"] = collapse;
  double compiled = obs::BytecodeCompiledShare(snap);
  if (compiled >= 0) state.counters["obs_bytecode_compiled_share"] = compiled;
  double cache_rate = obs::ProgramCacheHitRate(snap);
  if (cache_rate >= 0) {
    state.counters["obs_program_cache_hit_rate"] = cache_rate;
  }
  // Live-memory gauges: occupancy at snapshot time, not per-iteration
  // work, so they land as plain values ("mem/x_bytes" -> "mem_x_bytes").
  for (const auto& [name, value] : snap.gauges) {
    std::string key = name;
    for (char& c : key) {
      if (c == '/') c = '_';
    }
    state.counters[key] = static_cast<double>(value);
  }
  // The configuration graphs' peak footprint over this benchmark's
  // iterations (ResetMetrics rebases gauge marks to the live level).
  state.counters["obs_config_graph_peak_bytes"] =
      static_cast<double>(snap.GaugePeak("mem/config_graph_bytes"));
}

// --- E2: the paper's properties on the running example. ---------------

// The _NoSlice row is the baseline for the cone-of-influence slicer: on
// this VIOLATED property the sliced probe is pure overhead (the first
// valuation already has a lasso), so the row bounds that overhead.
void RunProperty1(benchmark::State& state, bool slice = true) {
  WebService service = std::move(BuildEcommerceService()).value();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.enable_slice = slice;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  LtlVerifier verifier(&service, options);
  auto prop = ParseTemporalProperty("G(!PIP) | F(PIP & F(CC))",
                                    &service.vocab());
  obs::ResetMetrics();
  for (auto _ : state) {
    auto r = verifier.VerifyOnDatabase(*prop, db);
    if (!r.ok() || r->holds) {
      state.SkipWithError("expected a violation");
      return;
    }
    state.counters["graph_nodes"] =
        static_cast<double>(r->total_graph_nodes);
  }
  MergeObsCounters(state);
  state.SetLabel("VIOLATED (paper: eventuality not enforced)");
}

void BM_Property1_Ecommerce(benchmark::State& state) { RunProperty1(state); }
BENCHMARK(BM_Property1_Ecommerce)->Unit(benchmark::kMillisecond);

void BM_Property1_Ecommerce_NoSlice(benchmark::State& state) {
  RunProperty1(state, /*slice=*/false);
}
BENCHMARK(BM_Property1_Ecommerce_NoSlice)->Unit(benchmark::kMillisecond);

// Property 4 holds, so slicing pays off in full: the sliced graph alone
// proves the absence of accepting lassos and the unsliced product is
// never built. The _NoSlice row is the A/B baseline for the guard's
// cone-reduction compare rules.
void RunProperty4(benchmark::State& state, bool slice = true) {
  WebService service = std::move(BuildEcommerceService()).value();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.enable_slice = slice;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  options.closure_candidates = {V("p1"), V("100"), V("alice")};
  LtlVerifier verifier(&service, options);
  auto prop = ParseTemporalProperty(
      "forall pid, price . ((UPP & payamount(price) & button(\"submit\") "
      "& pick(pid, price) & prod_prices(pid, price)) "
      "B !(conf(name, price) & ship(name, pid)))",
      &service.vocab());
  obs::ResetMetrics();
  for (auto _ : state) {
    auto r = verifier.VerifyOnDatabase(*prop, db);
    if (!r.ok() || !r->holds) {
      state.SkipWithError("expected the property to hold");
      return;
    }
    state.counters["graph_nodes"] =
        static_cast<double>(r->total_graph_nodes);
    state.counters["product_states"] =
        static_cast<double>(r->total_product_states);
  }
  MergeObsCounters(state);
  state.SetLabel("HOLDS (paper: shipped products are paid for)");
}

void BM_Property4_PayBeforeShip(benchmark::State& state) {
  RunProperty4(state);
}
BENCHMARK(BM_Property4_PayBeforeShip)->Unit(benchmark::kMillisecond);

void BM_Property4_PayBeforeShip_NoSlice(benchmark::State& state) {
  RunProperty4(state, /*slice=*/false);
}
BENCHMARK(BM_Property4_PayBeforeShip_NoSlice)->Unit(benchmark::kMillisecond);

// --- E2b: the parallel engine, /jobs:1 vs /jobs:N. ---------------------
//
// The jobs:1 rows run the serial verifier (the parallel front end
// delegates); higher job counts fan the same sweep over the pool with
// identical verdicts. Speedup scales with hardware threads — on a
// single-core host the rows coincide (modulo pool overhead).

// Pay-before-ship on the fixed small database: 2 closure variables x 3
// candidates = 9 valuations, chunked across workers; every chunk's
// CheckValuations call builds its own configuration graph. Also
// exercises the FO-leaf memo.
void BM_Property4_PayBeforeShip_Jobs(benchmark::State& state) {
  WebService service = std::move(BuildEcommerceService()).value();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  options.require_input_bounded = false;
  options.closure_candidates = {V("p1"), V("100"), V("alice")};
  LtlVerifier verifier(&service, options, static_cast<int>(state.range(0)));
  auto prop = ParseTemporalProperty(
      "forall pid, price . ((UPP & payamount(price) & button(\"submit\") "
      "& pick(pid, price) & prod_prices(pid, price)) "
      "B !(conf(name, price) & ship(name, pid)))",
      &service.vocab());
  obs::ResetMetrics();
  for (auto _ : state) {
    auto r = verifier.VerifyOnDatabase(*prop, db);
    if (!r.ok() || !r->holds) {
      state.SkipWithError("expected the property to hold");
      return;
    }
  }
  MergeObsCounters(state);
}
BENCHMARK(BM_Property4_PayBeforeShip_Jobs)
    ->ArgName("jobs")->Arg(1)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Database-level fan-out: the login service verified over every database
// within the bound (the property holds, so the sweep is exhaustive — the
// worst case for the enumerator and the best case for parallelism).
void BM_LoginEnumSweep_Jobs(benchmark::State& state) {
  WebService service = std::move(BuildLoginService()).value();
  LtlVerifyOptions options;
  options.db.fresh_values = 1;
  options.db.max_tuples_per_relation = 1;
  options.graph.constant_pool = {V("d0")};
  LtlVerifier verifier(&service, options, static_cast<int>(state.range(0)));
  auto prop = ParseTemporalProperty("G(!error(\"no such page\"))",
                                    &service.vocab());
  obs::ResetMetrics();
  for (auto _ : state) {
    auto r = verifier.Verify(*prop);
    if (!r.ok() || !r->holds) {
      state.SkipWithError("expected the property to hold");
      return;
    }
    state.counters["databases"] =
        static_cast<double>(r->databases_checked);
  }
  MergeObsCounters(state);
}
BENCHMARK(BM_LoginEnumSweep_Jobs)
    ->ArgName("jobs")->Arg(1)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// The shipped login sweep of perfbench's db_sweep_jobs2 workload: every
// database within fresh_values = 2, decided during the search (HOLDS,
// 207 nodes and 497 product states). Its obs_registry_writes budget
// keeps the telemetry's own writes at a few per node expansion: a write
// per edge or per FO program run would multiply it.
void BM_LoginFresh2Sweep(benchmark::State& state) {
  WebService service = std::move(BuildLoginService()).value();
  LtlVerifyOptions options;
  options.db.fresh_values = 2;
  LtlVerifier verifier(&service, options);
  auto prop = ParseTemporalProperty("G(!CP | logged_in)", &service.vocab());
  obs::ResetMetrics();
  for (auto _ : state) {
    auto r = verifier.Verify(*prop);
    if (!r.ok() || !r->holds) {
      state.SkipWithError("expected the property to hold");
      return;
    }
    state.counters["product_states"] =
        static_cast<double>(r->total_product_states);
  }
  MergeObsCounters(state);
}
BENCHMARK(BM_LoginFresh2Sweep)->Unit(benchmark::kMillisecond);

// --- E3: scaling shape. -------------------------------------------------

// Verification time vs. input-constant pool size on the login service:
// the configuration graph grows with every new candidate credential.
void BM_ScalePoolSize(benchmark::State& state) {
  WebService service = std::move(BuildLoginService()).value();
  Instance db = LoginDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  for (int i = 0; i < state.range(0); ++i) {
    options.graph.constant_pool.push_back(
        V(("extra" + std::to_string(i)).c_str()));
  }
  LtlVerifier verifier(&service, options);
  auto prop = ParseTemporalProperty("G(!CP | logged_in)", &service.vocab());
  for (auto _ : state) {
    auto r = verifier.VerifyOnDatabase(*prop, db);
    if (!r.ok() || !r->holds) {
      state.SkipWithError("expected the property to hold");
      return;
    }
    state.counters["graph_nodes"] =
        static_cast<double>(r->total_graph_nodes);
  }
}
BENCHMARK(BM_ScalePoolSize)->DenseRange(0, 8, 2)
    ->Unit(benchmark::kMillisecond);

// Error-freeness over *all* databases within a growing tuple bound. The
// databases are Theorem 3.5's exponential factor, but the check decides
// them as runs probe them in one graph (DESIGN.md §6j): `databases`
// counts the databases covered, `graph_nodes` the one graph's size.
void BM_ScaleDatabaseBound(benchmark::State& state) {
  WebService service = std::move(BuildLoginService()).value();
  ErrorFreeOptions options;
  options.db.fresh_values = 1;
  options.db.max_tuples_per_relation = static_cast<int>(state.range(0));
  options.graph.constant_pool = {V("d0")};
  for (auto _ : state) {
    auto r = CheckErrorFree(service, options);
    if (!r.ok() || !r->error_free) {
      state.SkipWithError("expected error-free");
      return;
    }
    state.counters["databases"] =
        static_cast<double>(r->databases_checked);
    state.counters["graph_nodes"] =
        static_cast<double>(r->total_graph_nodes);
  }
}
BENCHMARK(BM_ScaleDatabaseBound)->DenseRange(1, 4, 1)
    ->Unit(benchmark::kMillisecond);

// Universal closure arity: each additional closure variable multiplies
// the valuation space by the candidate count. The telemetry merge makes
// the FO-leaf memo visible: later valuations re-resolve leaves whose
// projected bindings repeat, so the hit count must be nonzero here
// (bench-guarded).
void BM_ScaleClosureArity(benchmark::State& state) {
  WebService service = std::move(BuildLoginService()).value();
  Instance db = LoginDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  LtlVerifier verifier(&service, options);
  // One G-leaf per closure variable: a leaf's truth column depends only
  // on the valuation's projection onto its own variable, so with k >= 2
  // variables the sweep re-resolves each leaf |cand|^(k-1) times per
  // projected value — the memo's bread and butter.
  std::string vars = "m0";
  std::string body = "G(!error(m0) | logged_in | true)";
  for (int i = 1; i < state.range(0); ++i) {
    vars += ", m" + std::to_string(i);
    body += " & G(!error(m" + std::to_string(i) + ") | logged_in | true)";
  }
  auto prop = ParseTemporalProperty("forall " + vars + " . (" + body + ")",
                                    &service.vocab());
  obs::ResetMetrics();
  for (auto _ : state) {
    auto r = verifier.VerifyOnDatabase(*prop, db);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->holds);
  }
  MergeObsCounters(state);
}
BENCHMARK(BM_ScaleClosureArity)->DenseRange(1, 3, 1)
    ->Unit(benchmark::kMillisecond);

// A HOLDS family where the exhaustive search cannot early-exit: the
// login safety property over every database within a growing bound. The
// guard bounds the product states the sweep creates; the _NoSlice row is
// the baseline for the slicer's compare rules.
void RunLoginHoldsSweep(benchmark::State& state, bool slice = true) {
  WebService service = std::move(BuildLoginService()).value();
  LtlVerifyOptions options;
  options.enable_slice = slice;
  options.db.fresh_values = 1;
  options.db.max_tuples_per_relation = static_cast<int>(state.range(0));
  options.graph.constant_pool = {V("d0")};
  LtlVerifier verifier(&service, options);
  auto prop = ParseTemporalProperty("G(!CP | logged_in)", &service.vocab());
  obs::ResetMetrics();
  for (auto _ : state) {
    auto r = verifier.Verify(*prop);
    if (!r.ok() || !r->holds) {
      state.SkipWithError("expected the property to hold");
      return;
    }
    state.counters["databases"] =
        static_cast<double>(r->databases_checked);
    state.counters["product_states"] =
        static_cast<double>(r->total_product_states);
  }
  MergeObsCounters(state);
}

void BM_LoginHoldsBound(benchmark::State& state) {
  RunLoginHoldsSweep(state);
}
BENCHMARK(BM_LoginHoldsBound)->ArgName("bound")->DenseRange(1, 2, 1)
    ->Unit(benchmark::kMillisecond);

void BM_LoginHoldsBound_NoSlice(benchmark::State& state) {
  RunLoginHoldsSweep(state, /*slice=*/false);
}
BENCHMARK(BM_LoginHoldsBound_NoSlice)->ArgName("bound")->DenseRange(1, 2, 1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wsv

BENCHMARK_MAIN();
