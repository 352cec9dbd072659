// Differential tests for the FO bytecode engine: on seeded random
// formulas and instances, every verdict and query result both the VM and
// the plan-free oracle (fo/evaluator.h OracleEvaluate) return must agree.
// The VM's plan skips evaluations, so it may succeed where the oracle
// hits an unbound symbol (or the reverse, when a guard scan resolves a
// term the oracle's left-to-right conjunction never reaches); only
// values are compared.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "fo/bytecode/cache.h"
#include "fo/bytecode/compiler.h"
#include "fo/bytecode/vm.h"
#include "fo/evaluator.h"
#include "fo/formula.h"
#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "ltl/run_semantics.h"
#include "obs/metrics.h"
#include "verify/ltl_verifier.h"
#include "ws/builder.h"

namespace wsv {
namespace {

// The rows of `rel` as the oracle returns a query's tuples.
std::set<Tuple> TupleSet(const Relation& rel) {
  std::set<Tuple> out;
  for (Row t : rel.rows()) out.emplace(t.begin(), t.end());
  return out;
}

struct RelSpec {
  const char* name;
  int arity;
};

constexpr RelSpec kRels[] = {{"p", 1}, {"q", 2}, {"r", 3}, {"s", 2}};
constexpr const char* kVars[] = {"x", "y", "z", "w"};
constexpr const char* kConsts[] = {"ca", "cb"};

class Fuzzer {
 public:
  explicit Fuzzer(uint64_t seed) : eng_(seed) {
    for (int i = 0; i < 5; ++i) {
      values_.push_back(Value::Intern(StrCat({"v", std::to_string(i)})));
    }
  }

  int Uniform(int n) {
    return static_cast<int>(eng_() % static_cast<uint64_t>(n));
  }
  bool Chance(int percent) { return Uniform(100) < percent; }

  Value RandValue() { return values_[Uniform(values_.size())]; }

  Term RandTerm() {
    switch (Uniform(4)) {
      case 0:
        return Term::ConstantSymbol(kConsts[Uniform(2)]);
      case 1:
        return Term::Literal(RandValue());
      default:
        return Term::Variable(kVars[Uniform(4)]);
    }
  }

  FormulaPtr RandAtom() {
    const RelSpec& rel = kRels[Uniform(4)];
    std::vector<Term> terms;
    for (int i = 0; i < rel.arity; ++i) terms.push_back(RandTerm());
    // prev atoms only for s, which the context's prev layer populates.
    bool prev = std::string(rel.name) == "s" && Chance(30);
    return Formula::MakeAtom(Atom{rel.name, prev, std::move(terms), {}});
  }

  // An equality pinning a variable to a literal (sometimes one no
  // instance holds), a constant symbol (cb is unbound in half the
  // contexts) or another variable, either way round.
  FormulaPtr RandPin() {
    Term var = Term::Variable(kVars[Uniform(4)]);
    Term value = Chance(20)   ? Term::Literal(Value::Intern("outside"))
                 : Chance(30) ? Term::Variable(kVars[Uniform(4)])
                              : RandTerm();
    return Uniform(2) == 0 ? Formula::Equals(var, value)
                           : Formula::Equals(value, var);
  }

  // With pins_ set, leaves are pins half the time and a connective is
  // sometimes a disjunction of pins (`x = "a" | x = ca`).
  FormulaPtr RandFormula(int depth) {
    if (pins_ && Chance(depth <= 0 ? 50 : 15)) {
      if (depth <= 0 || Chance(50)) return RandPin();
      std::vector<FormulaPtr> pins;
      for (int i = 0, n = 2 + Uniform(2); i < n; ++i) pins.push_back(RandPin());
      return Formula::Or(std::move(pins));
    }
    if (depth <= 0) {
      switch (Uniform(6)) {
        case 0:
          return Formula::True();
        case 1:
          return Formula::False();
        case 2:
          return Formula::Equals(RandTerm(), RandTerm());
        default:
          return RandAtom();
      }
    }
    switch (Uniform(6)) {
      case 0:
        return Formula::Not(RandFormula(depth - 1));
      case 1:
      case 2: {
        std::vector<FormulaPtr> parts;
        int n = 2 + Uniform(2);
        for (int i = 0; i < n; ++i) parts.push_back(RandFormula(depth - 1));
        // Pins bind variables only as conjuncts.
        return Uniform(pins_ ? 3 : 2) != 1 ? Formula::And(std::move(parts))
                                           : Formula::Or(std::move(parts));
      }
      case 3:
      case 4: {
        std::vector<std::string> vars;
        vars.push_back(kVars[Uniform(4)]);
        if (Chance(40)) vars.push_back(kVars[Uniform(4)]);
        FormulaPtr body = RandFormula(depth - 1);
        return Uniform(2) == 0
                   ? Formula::Exists(std::move(vars), std::move(body))
                   : Formula::Forall(std::move(vars), std::move(body));
      }
      default:
        return RandFormula(0);
    }
  }

  Instance RandInstance(int max_tuples) {
    Instance inst;
    for (const RelSpec& rel : kRels) {
      EXPECT_TRUE(inst.EnsureRelation(rel.name, rel.arity).ok());
      int n = Uniform(max_tuples + 1);
      for (int t = 0; t < n; ++t) {
        Tuple tuple;
        for (int i = 0; i < rel.arity; ++i) tuple.push_back(RandValue());
        for (Value v : tuple) inst.AddDomainValue(v);
        inst.MutableRelation(rel.name)->Insert(tuple);
      }
    }
    return inst;
  }

  Valuation RandValuation() {
    Valuation val;
    for (const char* v : kVars) {
      if (Chance(35)) val[v] = RandValue();
    }
    return val;
  }

  // Query heads: one or two distinct variables.
  std::vector<std::string> RandHeads() {
    std::vector<std::string> heads;
    heads.push_back(kVars[Uniform(4)]);
    if (Chance(50)) {
      const char* second = kVars[Uniform(4)];
      if (second != heads[0]) heads.push_back(second);
    }
    return heads;
  }

  // A rule head's term list as the .wsv parser hands it to
  // DesugarHeadTerms: variables (sometimes repeated, as in R(x, x)),
  // literals and constant symbols.
  std::vector<Term> RandHeadTerms() {
    std::vector<Term> terms;
    for (int i = 0, n = 1 + Uniform(3); i < n; ++i) {
      terms.push_back(Chance(60) ? Term::Variable(kVars[Uniform(3)])
                                 : RandTerm());
    }
    return terms;
  }

  // A context over `inst` and `prev`, or one with an empty active domain
  // (no values, no constants) one time in `empty_one_in`.
  void FillContext(EvalContext* ctx, const Instance* inst,
                   const Instance* prev, const Instance* empty,
                   int empty_one_in) {
    if (empty_one_in > 0 && Uniform(empty_one_in) == 0) {
      ctx->AddLayer(empty);
      return;
    }
    ctx->AddLayer(inst);
    if (prev != nullptr) ctx->SetPrevLayer(prev);
    ctx->SetConstant("ca", RandValue());
    if (Chance(50)) ctx->SetConstant("cb", RandValue());
  }

  std::mt19937_64 eng_;
  std::vector<Value> values_;
  bool pins_ = false;
};

// An instance with every fuzz relation and nothing else: its active
// domain is empty.
Instance EmptyInstance() {
  Instance inst;
  for (const RelSpec& rel : kRels) {
    EXPECT_TRUE(inst.EnsureRelation(rel.name, rel.arity).ok());
  }
  return inst;
}

// Compares the VM with the oracle on one (formula, context, valuation)
// triple: when both return a verdict, they must agree. Returns whether
// that comparison was made.
bool ExpectSameBool(const FormulaPtr& f, const EvalContext& ctx,
                    const Valuation& val) {
  auto prog = fobc::CompileBool(f);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString() << "\n  formula: "
                         << f->ToString();
  if (!prog.ok()) return false;
  StatusOr<bool> compiled = fobc::Execute(**prog, ctx, val);
  StatusOr<bool> oracle = OracleEvaluate(*f, ctx, val);
  if (!compiled.ok() || !oracle.ok()) return false;
  EXPECT_EQ(*compiled, *oracle) << "oracle disagrees on: " << f->ToString();
  return true;
}

// The query analogue of ExpectSameBool: the VM's and the oracle's tuple
// sets agree whenever both return one.
bool ExpectSameQuery(const FormulaPtr& f,
                     const std::vector<std::string>& heads,
                     const EvalContext& ctx, const Valuation& val) {
  auto prog = fobc::CompileQuery(f, heads);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString() << "\n  query: "
                         << f->ToString();
  if (!prog.ok()) return false;
  StatusOr<Relation> compiled = fobc::ExecuteQuery(**prog, ctx, val);
  StatusOr<std::set<Tuple>> oracle = OracleEvaluateQuery(*f, heads, ctx, val);
  if (!compiled.ok() || !oracle.ok()) return false;
  EXPECT_EQ(TupleSet(*compiled), *oracle)
      << "oracle disagrees on: " << f->ToString();
  return true;
}

// The valuation of a query's non-head free variables.
Valuation WithoutHeads(Valuation val, const std::vector<std::string>& heads) {
  for (const std::string& h : heads) val.erase(h);
  return val;
}

TEST(FoBytecodeDiffTest, RandomSentencesMatchInterpreter) {
  Fuzzer fz(20260809);
  int checked = 0;
  for (int iter = 0; iter < 400; ++iter) {
    Instance inst = fz.RandInstance(4);
    Instance prev = fz.RandInstance(2);
    EvalContext ctx;
    ctx.AddLayer(&inst);
    ctx.SetPrevLayer(&prev);
    ctx.SetConstant("ca", fz.RandValue());
    if (fz.Chance(50)) ctx.SetConstant("cb", fz.RandValue());
    FormulaPtr f = fz.RandFormula(1 + fz.Uniform(3));
    checked += ExpectSameBool(f, ctx, fz.RandValuation());
    if (HasFailure()) {
      ADD_FAILURE() << "first divergence at iteration " << iter;
      break;
    }
  }
  EXPECT_GE(checked, 200) << "too few reference comparisons";
}

TEST(FoBytecodeDiffTest, RandomQueriesMatchInterpreter) {
  Fuzzer fz(424242);
  int checked = 0;
  for (int iter = 0; iter < 250; ++iter) {
    Instance inst = fz.RandInstance(4);
    EvalContext ctx;
    ctx.AddLayer(&inst);
    ctx.SetConstant("ca", fz.RandValue());
    if (fz.Chance(50)) ctx.SetConstant("cb", fz.RandValue());
    FormulaPtr f = fz.RandFormula(1 + fz.Uniform(2));
    std::vector<std::string> heads = fz.RandHeads();
    checked += ExpectSameQuery(f, heads, ctx, {});
    if (HasFailure()) {
      ADD_FAILURE() << "first divergence at iteration " << iter;
      break;
    }
  }
  EXPECT_GE(checked, 100) << "too few reference comparisons";
}

// Equality-pinned shapes (fo/plan.h): x = literal, x = ca / cb (cb
// sometimes unbound), x = y, disjunctions of pins, and contexts with an
// empty active domain.
TEST(FoBytecodeDiffTest, PinnedSentencesMatchInterpreterAndReference) {
  Fuzzer fz(5150);
  fz.pins_ = true;
  const Instance empty = EmptyInstance();
  int checked = 0;
  for (int iter = 0; iter < 600; ++iter) {
    Instance inst = fz.RandInstance(3);
    Instance prev = fz.RandInstance(2);
    EvalContext ctx;
    fz.FillContext(&ctx, &inst, &prev, &empty, 8);
    FormulaPtr f = fz.RandFormula(1 + fz.Uniform(3));
    checked += ExpectSameBool(f, ctx, fz.RandValuation());
    if (HasFailure()) {
      ADD_FAILURE() << "first divergence at iteration " << iter;
      break;
    }
  }
  EXPECT_GE(checked, 180) << "too few reference comparisons";
}

TEST(FoBytecodeDiffTest, PinnedQueriesMatchInterpreterAndReference) {
  Fuzzer fz(6160);
  fz.pins_ = true;
  const Instance empty = EmptyInstance();
  int checked = 0;
  for (int iter = 0; iter < 500; ++iter) {
    Instance inst = fz.RandInstance(3);
    EvalContext ctx;
    fz.FillContext(&ctx, &inst, nullptr, &empty, 8);
    FormulaPtr f = fz.RandFormula(1 + fz.Uniform(2));
    std::vector<std::string> heads = fz.RandHeads();
    checked += ExpectSameQuery(f, heads, ctx,
                               WithoutHeads(fz.RandValuation(), heads));
    if (HasFailure()) {
      ADD_FAILURE() << "first divergence at iteration " << iter;
      break;
    }
  }
  EXPECT_GE(checked, 220) << "too few reference comparisons";
}

// Rule queries as the spec builder produces them: DesugarHeadTerms turns
// each literal, constant or repeated head term into a fresh head
// variable pinned by `_hN = t`.
TEST(FoBytecodeDiffTest, DesugaredRuleHeadsMatchInterpreterAndReference) {
  Fuzzer fz(7270);
  fz.pins_ = true;
  const Instance empty = EmptyInstance();
  int checked = 0;
  for (int iter = 0; iter < 400; ++iter) {
    Instance inst = fz.RandInstance(3);
    EvalContext ctx;
    fz.FillContext(&ctx, &inst, nullptr, &empty, 8);
    FormulaPtr body = fz.RandFormula(fz.Uniform(3));
    std::vector<Term> head_terms = fz.RandHeadTerms();
    std::vector<std::string> heads;
    ASSERT_TRUE(DesugarHeadTerms(head_terms, &body, &heads).ok());
    checked += ExpectSameQuery(body, heads, ctx,
                               WithoutHeads(fz.RandValuation(), heads));
    if (HasFailure()) {
      ADD_FAILURE() << "first divergence at iteration " << iter;
      break;
    }
  }
  EXPECT_GE(checked, 180) << "too few reference comparisons";
}

// Programs served by the process-wide cache agree with the oracle, and
// a second lookup of the same formula is a cache hit that returns the
// same program.
TEST(FoBytecodeDiffTest, EvaluateFastMatchesInterpreterThroughCache) {
  Fuzzer fz(7);
  Instance inst = fz.RandInstance(4);
  EvalContext ctx;
  ctx.AddLayer(&inst);
  ctx.SetConstant("ca", fz.RandValue());
  for (int iter = 0; iter < 50; ++iter) {
    FormulaPtr f = fz.RandFormula(2);
    Valuation val = fz.RandValuation();
    auto prog = fobc::GetOrCompileBool(f);
    ASSERT_TRUE(prog.ok()) << f->ToString();
    EXPECT_EQ(*fobc::GetOrCompileBool(f), *prog) << f->ToString();
    StatusOr<bool> fast = fobc::Execute(**prog, ctx, val);
    StatusOr<bool> oracle = OracleEvaluate(*f, ctx, val);
    if (fast.ok() && oracle.ok()) {
      EXPECT_EQ(*oracle, *fast) << f->ToString();
    }
  }
}

TEST(FoBytecodeTest, StepBudgetExhaustionFailsClosed) {
  // Three unguarded domain loops over a sizeable domain: far more steps
  // than the tiny budget allows.
  Instance inst;
  ASSERT_TRUE(inst.EnsureRelation("p", 1).ok());
  for (int i = 0; i < 16; ++i) {
    Value v = Value::Intern(StrCat({"d", std::to_string(i)}));
    inst.AddDomainValue(v);
  }
  EvalContext ctx;
  ctx.AddLayer(&inst);
  // An unsatisfiable, guard-free body: all 16^3 domain triples are
  // visited before the exists can conclude false.
  FormulaPtr body = Formula::And(
      Formula::Not(Formula::Equals(Term::Variable("x"), Term::Variable("x"))),
      Formula::Equals(Term::Variable("y"), Term::Variable("z")));
  FormulaPtr f = Formula::Exists({"x", "y", "z"}, std::move(body));
  auto prog = fobc::CompileBool(f);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();

  fobc::SetStepBudget(40);
  StatusOr<bool> res = fobc::Execute(**prog, ctx);
  fobc::SetStepBudget(0);  // restore the default
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
      << res.status().ToString();

  // With the default budget the same program completes.
  StatusOr<bool> ok = fobc::Execute(**prog, ctx);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(*ok);
}

TEST(FoBytecodeTest, SharedProgramRunsConcurrently) {
  // One cached program, many threads, per-thread contexts: exercises the
  // thread-local arena under TSan.
  FormulaPtr f = Formula::Exists(
      {"a", "b"},
      Formula::And(Formula::MakeAtom(
                       Atom{"q",
                            false,
                            {Term::Variable("a"), Term::Variable("b")},
                            {}}),
                   Formula::MakeAtom(
                       Atom{"p", false, {Term::Variable("b")}, {}})));
  auto compiled_f = fobc::GetOrCompileBool(f);
  ASSERT_TRUE(compiled_f.ok());
  const std::shared_ptr<const fobc::Program> prog = *compiled_f;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Fuzzer fz(1000 + t);
      for (int iter = 0; iter < 200; ++iter) {
        Instance inst = fz.RandInstance(5);
        EvalContext ctx;
        ctx.AddLayer(&inst);
        StatusOr<bool> compiled = fobc::Execute(*prog, ctx);
        StatusOr<bool> oracle = OracleEvaluate(*f, ctx);
        if (!compiled.ok() || !oracle.ok() || *compiled != *oracle) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// A formula that does not compile is cached as its error: every lookup
// returns the compile's Status (owners return it when built), and it
// compiles once.
TEST(FoBytecodeTest, FailedCompileIsCachedAsItsStatus) {
  const FormulaPtr f = Formula::MakeAtom(
      Atom{"q", false, {Term::Variable("x"), Term::Variable("y")}, {}});
  const uint64_t before =
      obs::SnapshotMetrics().CounterValue("fo/bytecode_compiles");
  for (int i = 0; i < 2; ++i) {
    auto prog = fobc::GetOrCompileQuery(f, {"x", "x"});
    ASSERT_FALSE(prog.ok());
    EXPECT_EQ(prog.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(prog.status().ToString().find("repeated query head variable"),
              std::string::npos);
  }
  EXPECT_EQ(obs::SnapshotMetrics().CounterValue("fo/bytecode_compiles"),
            before + 1);
  EXPECT_FALSE(fobc::GetOrCompileBool(nullptr).ok());
}

// Witness validation asks the lasso evaluator for the oracle explicitly:
// that mode runs no program, and the default mode runs the leaves'
// programs.
TEST(FoBytecodeTest, LassoEvaluationHonorsTheRequestedEngine) {
  auto ws = BuildLoginService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  const Instance db = LoginDatabase();
  auto p = ParseTemporalProperty("forall m . G(!error(m))", &ws->vocab());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  LtlVerifyOptions options;
  options.graph.constant_pool = {Value::Intern("alice"), Value::Intern("pw")};
  auto r = LtlVerifier(&*ws, options).VerifyOnDatabase(*p, db);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->counterexample.has_value());
  const CounterExample& cex = *r->counterexample;

  auto execs_during = [&](FoEngine engine) {
    const uint64_t before =
        obs::SnapshotMetrics().CounterValue("fo/bytecode_execs");
    auto sat = EvaluateLtlOnLassoWithValuation(
        *p->formula, cex.run, cex.database, *ws, cex.valuation, engine);
    EXPECT_TRUE(sat.ok()) << sat.status().ToString();
    EXPECT_FALSE(sat.ok() && *sat);
    return obs::SnapshotMetrics().CounterValue("fo/bytecode_execs") - before;
  };
  EXPECT_EQ(execs_during(FoEngine::kOracle), 0u);
  EXPECT_GT(execs_during(FoEngine::kCompiled), 0u);
}

// A compiled query assumes its heads are unbound on entry, so a caller
// that binds the heads evaluates the body as a sentence instead (the
// verifier's per-binding leaf evaluation): its verdict at every binding
// is membership in the query's answer, and the oracle's query agrees.
TEST(FoBytecodeTest, QueryWithBoundHeadFallsBackIdentically) {
  Fuzzer fz(99);
  Instance inst = fz.RandInstance(4);
  EvalContext ctx;
  ctx.AddLayer(&inst);
  FormulaPtr f = Formula::Or(
      Formula::MakeAtom(
          Atom{"q", false, {Term::Variable("x"), Term::Variable("y")}, {}}),
      Formula::And(
          Formula::MakeAtom(Atom{"p", false, {Term::Variable("x")}, {}}),
          Formula::Equals(Term::Variable("y"), Term::Variable("x"))));
  std::vector<std::string> heads = {"x", "y"};
  auto query = fobc::GetOrCompileQuery(f, heads);
  auto sentence = fobc::GetOrCompileBool(f);
  ASSERT_TRUE(query.ok() && sentence.ok());
  StatusOr<Relation> compiled = fobc::ExecuteQuery(**query, ctx);
  StatusOr<std::set<Tuple>> oracle = OracleEvaluateQuery(*f, heads, ctx);
  ASSERT_TRUE(compiled.ok() && oracle.ok());
  EXPECT_EQ(TupleSet(*compiled), *oracle);
  ASSERT_FALSE(compiled->empty());

  const Row dom = ctx.ActiveDomain();
  for (Value x : dom) {
    for (Value y : dom) {
      StatusOr<bool> holds =
          fobc::Execute(**sentence, ctx, Valuation{{"x", x}, {"y", y}});
      ASSERT_TRUE(holds.ok()) << holds.status().ToString();
      EXPECT_EQ(*holds, compiled->Contains(Tuple{x, y}));
    }
  }
}

}  // namespace
}  // namespace wsv
