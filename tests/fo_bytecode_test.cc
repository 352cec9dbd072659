// Differential tests for the FO bytecode engine: on seeded random
// formulas and instances, compiled verdicts, query results, and error
// statuses must be bit-identical to the tree-walking interpreter's.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "fo/bytecode/cache.h"
#include "fo/bytecode/compiler.h"
#include "fo/bytecode/vm.h"
#include "fo/evaluator.h"
#include "fo/formula.h"

namespace wsv {
namespace {

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
      values_.push_back(Value::Intern("v" + std::to_string(i)));
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

  FormulaPtr RandFormula(int depth) {
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
        return Uniform(2) == 0 ? Formula::And(std::move(parts))
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

  std::mt19937_64 eng_;
  std::vector<Value> values_;
};

// Compares interpreter and bytecode on one (formula, context, valuation)
// triple: same ok-ness, same verdict, and the same error code + message.
void ExpectSameBool(const FormulaPtr& f, const EvalContext& ctx,
                    const Valuation& val) {
  StatusOr<bool> interp = Evaluate(*f, ctx, val);
  auto prog = fobc::CompileBool(f);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString() << "\n  formula: "
                         << f->ToString();
  StatusOr<bool> compiled = fobc::Execute(**prog, ctx, val);
  ASSERT_EQ(interp.ok(), compiled.ok())
      << "formula: " << f->ToString()
      << "\n  interp:   " << interp.status().ToString()
      << "\n  compiled: " << compiled.status().ToString();
  if (interp.ok()) {
    EXPECT_EQ(*interp, *compiled) << "formula: " << f->ToString();
  } else {
    EXPECT_EQ(interp.status().ToString(), compiled.status().ToString())
        << "formula: " << f->ToString();
  }
}

TEST(FoBytecodeDiffTest, RandomSentencesMatchInterpreter) {
  Fuzzer fz(20260809);
  for (int iter = 0; iter < 400; ++iter) {
    Instance inst = fz.RandInstance(4);
    Instance prev = fz.RandInstance(2);
    EvalContext ctx;
    ctx.AddLayer(&inst);
    ctx.SetPrevLayer(&prev);
    ctx.SetConstant("ca", fz.RandValue());
    if (fz.Chance(50)) ctx.SetConstant("cb", fz.RandValue());
    FormulaPtr f = fz.RandFormula(1 + fz.Uniform(3));
    ExpectSameBool(f, ctx, fz.RandValuation());
    if (HasFailure()) {
      ADD_FAILURE() << "first divergence at iteration " << iter;
      break;
    }
  }
}

TEST(FoBytecodeDiffTest, RandomQueriesMatchInterpreter) {
  Fuzzer fz(424242);
  for (int iter = 0; iter < 250; ++iter) {
    Instance inst = fz.RandInstance(4);
    EvalContext ctx;
    ctx.AddLayer(&inst);
    ctx.SetConstant("ca", fz.RandValue());
    if (fz.Chance(50)) ctx.SetConstant("cb", fz.RandValue());
    FormulaPtr f = fz.RandFormula(1 + fz.Uniform(2));
    std::vector<std::string> heads;
    heads.push_back(kVars[fz.Uniform(4)]);
    if (fz.Chance(50)) {
      const char* second = kVars[fz.Uniform(4)];
      if (second != heads[0]) heads.push_back(second);
    }
    StatusOr<std::set<Tuple>> interp = EvaluateQuery(*f, heads, ctx);
    auto prog = fobc::CompileQuery(f, heads);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString() << "\n  query: "
                           << f->ToString();
    StatusOr<std::set<Tuple>> compiled = fobc::ExecuteQuery(**prog, ctx);
    ASSERT_EQ(interp.ok(), compiled.ok())
        << "query: " << f->ToString()
        << "\n  interp:   " << interp.status().ToString()
        << "\n  compiled: " << compiled.status().ToString()
        << "\n  iteration " << iter;
    if (interp.ok()) {
      EXPECT_EQ(*interp, *compiled)
          << "query: " << f->ToString() << "\n  iteration " << iter;
    } else {
      EXPECT_EQ(interp.status().ToString(), compiled.status().ToString());
    }
    if (HasFailure()) break;
  }
}

// Programs served by the process-wide cache agree with the interpreter,
// and a second lookup of the same formula is a cache hit that returns
// the same program.
TEST(FoBytecodeDiffTest, EvaluateFastMatchesInterpreterThroughCache) {
  Fuzzer fz(7);
  Instance inst = fz.RandInstance(4);
  EvalContext ctx;
  ctx.AddLayer(&inst);
  ctx.SetConstant("ca", fz.RandValue());
  for (int iter = 0; iter < 50; ++iter) {
    FormulaPtr f = fz.RandFormula(2);
    Valuation val = fz.RandValuation();
    std::shared_ptr<const fobc::Program> prog = fobc::GetOrCompileBool(f);
    ASSERT_NE(prog, nullptr) << f->ToString();
    EXPECT_EQ(fobc::GetOrCompileBool(f), prog) << f->ToString();
    StatusOr<bool> fast = fobc::Execute(*prog, ctx, val);
    StatusOr<bool> interp = Evaluate(*f, ctx, val);
    ASSERT_EQ(interp.ok(), fast.ok()) << f->ToString();
    if (interp.ok()) {
      EXPECT_EQ(*interp, *fast) << f->ToString();
    }
  }
}

TEST(FoBytecodeTest, StepBudgetExhaustionFailsClosed) {
  // Three unguarded domain loops over a sizeable domain: far more steps
  // than the tiny budget allows.
  Instance inst;
  ASSERT_TRUE(inst.EnsureRelation("p", 1).ok());
  for (int i = 0; i < 16; ++i) {
    Value v = Value::Intern("d" + std::to_string(i));
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
  std::shared_ptr<const fobc::Program> prog = fobc::GetOrCompileBool(f);
  ASSERT_NE(prog, nullptr);

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
        StatusOr<bool> interp = Evaluate(*f, ctx);
        if (!compiled.ok() || !interp.ok() || *compiled != *interp) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(FoBytecodeTest, GatingRespectsScopeAndProcessSwitch) {
  EXPECT_TRUE(fobc::BytecodeEnabled());
  {
    fobc::ScopedDisable d1;
    EXPECT_FALSE(fobc::BytecodeEnabled());
    {
      fobc::ScopedDisable d2;
      EXPECT_FALSE(fobc::BytecodeEnabled());
    }
    EXPECT_FALSE(fobc::BytecodeEnabled());
  }
  EXPECT_TRUE(fobc::BytecodeEnabled());
  fobc::SetBytecodeEnabled(false);
  EXPECT_FALSE(fobc::BytecodeEnabled());
  fobc::SetBytecodeEnabled(true);
}

// A compiled query assumes its heads are unbound on entry, so a caller
// that binds a head runs the interpreter. Its answer is the compiled
// (unbound) answer restricted to the bound value.
TEST(FoBytecodeTest, QueryWithBoundHeadFallsBackIdentically) {
  Fuzzer fz(99);
  Instance inst = fz.RandInstance(4);
  EvalContext ctx;
  ctx.AddLayer(&inst);
  FormulaPtr f = Formula::MakeAtom(
      Atom{"q", false, {Term::Variable("x"), Term::Variable("y")}, {}});
  std::vector<std::string> heads = {"x", "y"};
  std::shared_ptr<const fobc::Program> prog =
      fobc::GetOrCompileQuery(f, heads);
  ASSERT_NE(prog, nullptr);
  StatusOr<std::set<Tuple>> compiled = fobc::ExecuteQuery(*prog, ctx);
  StatusOr<std::set<Tuple>> interp = EvaluateQuery(*f, heads, ctx);
  ASSERT_TRUE(compiled.ok() && interp.ok());
  EXPECT_EQ(*compiled, *interp);

  Valuation bound;
  bound["x"] = compiled->empty() ? fz.RandValue() : compiled->begin()->at(0);
  StatusOr<std::set<Tuple>> interp_bound =
      EvaluateQuery(*f, heads, ctx, bound);
  ASSERT_TRUE(interp_bound.ok());
  std::set<Tuple> restricted;
  for (const Tuple& t : *compiled) {
    if (t[0] == bound["x"]) restricted.insert(t);
  }
  EXPECT_EQ(*interp_bound, restricted);
}

}  // namespace
}  // namespace wsv
