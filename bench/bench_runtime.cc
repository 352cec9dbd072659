// E1 — run-time interpreter throughput on the Figure 2 e-commerce
// service: scripted purchase sessions and random sessions. Establishes
// the substrate cost that every verification experiment builds on.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/str_util.h"
#include "fo/bytecode/compiler.h"
#include "fo/bytecode/vm.h"
#include "fo/evaluator.h"
#include "gallery/gallery.h"
#include "obs/metrics.h"
#include "runtime/interpreter.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

UserChoice Button(const char* label) {
  UserChoice c;
  c.relation_choices["button"] = Tuple{V(label)};
  return c;
}

std::vector<UserChoice> PurchaseScript() {
  std::vector<UserChoice> script;
  UserChoice login = Button("login");
  login.constant_values["name"] = V("alice");
  login.constant_values["password"] = V("pw");
  script.push_back(login);
  script.push_back(Button("laptop"));
  UserChoice search = Button("search");
  search.relation_choices["laptopsearch"] =
      Tuple{V("4gb"), V("1tb"), V("13in")};
  script.push_back(search);
  UserChoice pick;
  pick.relation_choices["pickproduct"] = Tuple{V("p1"), V("100")};
  script.push_back(pick);
  script.push_back(Button("buy"));
  UserChoice pay = Button("submit");
  pay.relation_choices["payamount"] = Tuple{V("100")};
  script.push_back(pay);
  script.push_back(Button("confirmorder"));
  script.push_back(Button("logout"));
  return script;
}

void BM_PurchaseSession(benchmark::State& state) {
  WebService service = std::move(BuildEcommerceService()).value();
  Instance db = EcommerceDatabase();
  Interpreter interp(&service, &db);
  int64_t steps = 0;
  for (auto _ : state) {
    ScriptedInputProvider provider(PurchaseScript());
    auto run = interp.Run(provider, 9);
    if (!run.ok() || run->reached_error) {
      state.SkipWithError("session failed");
      return;
    }
    steps += 9;
    benchmark::DoNotOptimize(run->trace.size());
  }
  state.counters["steps_per_s"] =
      benchmark::Counter(static_cast<double>(steps),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PurchaseSession);

void BM_RandomSession(benchmark::State& state) {
  WebService service = std::move(BuildEcommerceService()).value();
  Instance db = EcommerceDatabase();
  Interpreter interp(&service, &db);
  std::vector<Value> pool{V("alice"), V("pw"), V("Admin"), V("root")};
  const int kSteps = static_cast<int>(state.range(0));
  uint64_t seed = 0;
  int64_t steps = 0;
  for (auto _ : state) {
    RandomInputProvider provider(seed++, pool);
    auto run = interp.Run(provider, kSteps);
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      return;
    }
    steps += kSteps;
    benchmark::DoNotOptimize(run->trace.size());
  }
  state.counters["steps_per_s"] =
      benchmark::Counter(static_cast<double>(steps),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RandomSession)->Arg(10)->Arg(50)->Arg(200);

void BM_SingleStepHP(benchmark::State& state) {
  WebService service = std::move(BuildEcommerceService()).value();
  Instance db = EcommerceDatabase();
  Stepper stepper(&service, &db);
  Config initial = stepper.InitialConfig();
  UserChoice login = Button("login");
  login.constant_values["name"] = V("alice");
  login.constant_values["password"] = V("pw");
  for (auto _ : state) {
    auto out = stepper.Step(initial, login);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out->next.page);
  }
}
BENCHMARK(BM_SingleStepHP);

// --- Leaf-evaluation micro family -----------------------------------
//
// One FO sentence evaluated by the bytecode VM over a chain-shaped
// guarded join whose closure arity scales with the benchmark argument:
//
//   exists x0..x{k-1} ( edge(x0,x1) & ... & edge(x{k-2},x{k-1})
//                       & !(x0 = x{k-1}) )
//
// on a 16-node edge cycle. This is the per-leaf hot loop of LTL
// verification with the context setup amortized away. The rows export
// the VM's work per execution (obs_bytecode_steps: instructions plus
// tuples tested; obs_bytecode_execs), which budgets_runtime.json caps:
// a plan that stops using the guards to join shows as more steps.

FormulaPtr ClosureChainFormula(int k) {
  auto var = [](int i) {
    return Term::Variable(StrCat({"x", std::to_string(i)}));
  };
  std::vector<FormulaPtr> conjs;
  for (int i = 0; i + 1 < k; ++i) {
    conjs.push_back(
        Formula::MakeAtom(Atom{"edge", false, {var(i), var(i + 1)}, {}}));
  }
  conjs.push_back(Formula::Not(Formula::Equals(var(0), var(k - 1))));
  std::vector<std::string> vars;
  for (int i = 0; i < k; ++i) vars.push_back(StrCat({"x", std::to_string(i)}));
  return Formula::Exists(std::move(vars), Formula::And(std::move(conjs)));
}

Instance EdgeCycleInstance(int n) {
  Instance inst;
  (void)inst.EnsureRelation("edge", 2);
  for (int i = 0; i < n; ++i) {
    Value a = Value::Intern(StrCat({"d", std::to_string(i)}));
    Value b = Value::Intern(StrCat({"d", std::to_string((i + 1) % n)}));
    inst.MutableRelation("edge")->Insert({a, b});
    inst.AddDomainValue(a);
  }
  return inst;
}

void BM_LeafEvalCompiled(benchmark::State& state) {
  const int arity = static_cast<int>(state.range(0));
  Instance inst = EdgeCycleInstance(16);
  EvalContext ctx;
  ctx.AddLayer(&inst);
  FormulaPtr f = ClosureChainFormula(arity);
  auto prog = fobc::CompileBool(f);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  obs::ResetMetrics();
  for (auto _ : state) {
    auto r = fobc::Execute(**prog, ctx);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*r);
  }
  const obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  for (const char* counter : {"bytecode_steps", "bytecode_execs"}) {
    state.counters[StrCat({"obs_", counter})] = benchmark::Counter(
        static_cast<double>(snap.CounterValue(StrCat({"fo/", counter}))),
        benchmark::Counter::kAvgIterations);
  }
}
BENCHMARK(BM_LeafEvalCompiled)->Arg(2)->Arg(3)->Arg(4);

}  // namespace
}  // namespace wsv

BENCHMARK_MAIN();
