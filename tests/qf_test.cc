#include <gtest/gtest.h>

#include <random>

#include "fo/bytecode/compiler.h"
#include "fo/bytecode/vm.h"
#include "fo/evaluator.h"
#include "fo/parser.h"
#include "fo/qf.h"

namespace wsv {
namespace {

Value V(const std::string& s) { return Value::Intern(s); }

// Runs `f` on the VM and on the oracle; where both return a verdict they
// must agree. Returns the VM's.
StatusOr<bool> EvalBoth(const FormulaPtr& f, const EvalContext& ctx,
                        const Valuation& val = {}) {
  WSV_ASSIGN_OR_RETURN(auto prog, fobc::CompileBool(f));
  StatusOr<bool> vm = fobc::Execute(*prog, ctx, val);
  StatusOr<bool> oracle = OracleEvaluate(*f, ctx, val);
  if (vm.ok() && oracle.ok()) {
    EXPECT_EQ(*vm, *oracle) << "oracle disagrees on " << f->ToString();
  }
  return vm;
}

class QfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(vocab_.AddRelation("R", 1, SymbolKind::kDatabase).ok());
    ASSERT_TRUE(vocab_.AddRelation("T", 2, SymbolKind::kDatabase).ok());
    ASSERT_TRUE(vocab_.AddRelation("s", 0, SymbolKind::kState).ok());
    ASSERT_TRUE(vocab_.AddRelation("W", 1, SymbolKind::kState).ok());
    ASSERT_TRUE(vocab_.AddRelation("I", 2, SymbolKind::kInput).ok());
    ASSERT_TRUE(vocab_.AddRelation("J", 1, SymbolKind::kInput).ok());
  }

  // Evaluates `text` directly over (db, state, inputs, prev) and through
  // the quantifier-free rewriting; both results must agree.
  void CheckAgreement(const std::string& text, const Instance& db,
                      const Instance& state, const Instance& inputs,
                      const Instance& prev) {
    auto parsed = ParseFormula(text, &vocab_);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

    EvalContext direct;
    direct.AddLayer(&inputs);
    direct.AddLayer(&state);
    direct.AddLayer(&db);
    direct.SetPrevLayer(&prev);
    auto expect = EvalBoth(*parsed, direct);
    ASSERT_TRUE(expect.ok()) << expect.status().ToString();

    auto qf = InputBoundedToQuantifierFree(**parsed, vocab_);
    ASSERT_TRUE(qf.ok()) << qf.status().ToString();
    EXPECT_TRUE((*qf)->IsQuantifierFree()) << (*qf)->ToString();

    // Bind the designated variables and presence propositions.
    Instance presence;
    Valuation valuation;
    Value dummy = V("__dummy");
    for (bool is_prev : {false, true}) {
      const Instance& src = is_prev ? prev : inputs;
      for (const RelationSymbol& sym :
           vocab_.RelationsOfKind(SymbolKind::kInput)) {
        const Relation* rel = src.FindRelation(sym.name);
        bool present = rel != nullptr && !rel->empty();
        (void)presence.EnsureRelation(QfPresenceProp(sym.name, is_prev), 0);
        presence.MutableRelation(QfPresenceProp(sym.name, is_prev))
            ->SetBool(present);
        for (int i = 1; i <= sym.arity; ++i) {
          Value v = present ? rel->row(0)[i - 1] : dummy;
          valuation[QfTupleVariable(sym.name, i, is_prev)] = v;
        }
      }
    }
    EvalContext qf_ctx;
    qf_ctx.AddLayer(&presence);
    qf_ctx.AddLayer(&state);
    qf_ctx.AddLayer(&db);
    auto got = EvalBoth(*qf, qf_ctx, valuation);
    ASSERT_TRUE(got.ok())
        << got.status().ToString() << "\nqf: " << (*qf)->ToString();
    EXPECT_EQ(*expect, *got)
        << "formula: " << text << "\nqf: " << (*qf)->ToString();
  }

  Vocabulary vocab_;
};

TEST_F(QfTest, RewritesGuardedQuantifiers) {
  auto f = ParseFormula("exists x, y . I(x, y) & T(x, y)", &vocab_);
  ASSERT_TRUE(f.ok());
  auto qf = InputBoundedToQuantifierFree(**f, vocab_);
  ASSERT_TRUE(qf.ok()) << qf.status().ToString();
  EXPECT_TRUE((*qf)->IsQuantifierFree());
  std::string s = (*qf)->ToString();
  EXPECT_NE(s.find("__present_I"), std::string::npos);
  EXPECT_NE(s.find("__cur_I__1"), std::string::npos);
}

TEST_F(QfTest, RejectsUnguardedQuantifiers) {
  auto f = ParseFormula("exists x . R(x) & true", &vocab_);
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(InputBoundedToQuantifierFree(**f, vocab_).ok());
}

TEST_F(QfTest, HandPickedAgreement) {
  Instance db;
  ASSERT_TRUE(db.AddFact("R", {V("a")}).ok());
  ASSERT_TRUE(db.AddFact("T", {V("a"), V("b")}).ok());
  Instance state;
  ASSERT_TRUE(state.EnsureRelation("s", 0).ok());
  state.MutableRelation("s")->SetBool(true);
  ASSERT_TRUE(state.AddFact("W", {V("a")}).ok());
  Instance inputs;
  ASSERT_TRUE(inputs.AddFact("I", {V("a"), V("b")}).ok());
  ASSERT_TRUE(inputs.EnsureRelation("J", 1).ok());  // empty input
  Instance prev;
  ASSERT_TRUE(prev.AddFact("J", {V("b")}).ok());

  const char* formulas[] = {
      "I(\"a\", \"b\")",
      "I(\"a\", \"a\")",
      "J(\"a\")",
      "prev.J(\"b\")",
      "exists x, y . I(x, y) & T(x, y)",
      "exists x, y . I(x, y) & T(y, x)",
      "exists x . J(x) & R(x)",
      "exists x . prev.J(x) & !R(x)",
      "forall x, y . I(x, y) -> T(x, y)",
      "forall x . J(x) -> false",
      "s & (exists x, y . I(x, y) & W(x))",
      "!(exists x, y . I(x, y) & T(y, x)) | s",
      "exists x . I(x, x) & true",
      "(exists x, y . I(x, y) & R(x)) & (forall z . prev.J(z) -> R(z))",
  };
  for (const char* text : formulas) {
    SCOPED_TRACE(text);
    CheckAgreement(text, db, state, inputs, prev);
  }
}

// Randomized sweep: random instances, fixed formula battery.
class QfRandomTest : public QfTest,
                     public ::testing::WithParamInterface<int> {};

TEST_P(QfRandomTest, AgreementOnRandomInstances) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()));
  std::vector<Value> dom{V("a"), V("b"), V("c")};
  auto pick = [&]() { return dom[rng() % dom.size()]; };
  for (int iter = 0; iter < 20; ++iter) {
    Instance db;
    for (int i = 0; i < 3; ++i) {
      if (rng() % 2) {
        ASSERT_TRUE(db.AddFact("R", {pick()}).ok());
      }
      if (rng() % 2) {
        ASSERT_TRUE(db.AddFact("T", {pick(), pick()}).ok());
      }
    }
    (void)db.EnsureRelation("R", 1);
    (void)db.EnsureRelation("T", 2);
    Instance state;
    (void)state.EnsureRelation("s", 0);
    state.MutableRelation("s")->SetBool(rng() % 2 == 0);
    (void)state.EnsureRelation("W", 1);
    if (rng() % 2) {
      ASSERT_TRUE(state.AddFact("W", {pick()}).ok());
    }
    Instance inputs;
    (void)inputs.EnsureRelation("I", 2);
    (void)inputs.EnsureRelation("J", 1);
    if (rng() % 2) {
      ASSERT_TRUE(inputs.AddFact("I", {pick(), pick()}).ok());
    }
    if (rng() % 2) {
      ASSERT_TRUE(inputs.AddFact("J", {pick()}).ok());
    }
    Instance prev;
    (void)prev.EnsureRelation("I", 2);
    (void)prev.EnsureRelation("J", 1);
    if (rng() % 2) {
      ASSERT_TRUE(prev.AddFact("J", {pick()}).ok());
    }

    const char* formulas[] = {
        "exists x, y . I(x, y) & T(x, y)",
        "exists x . J(x) & (R(x) | s)",
        "forall x, y . I(x, y) -> (R(x) | R(y))",
        "(exists x . J(x) & W(x)) | !(exists y . prev.J(y) & R(y))",
        "exists x . I(x, x) & R(x)",
    };
    for (const char* text : formulas) {
      SCOPED_TRACE(std::string(text) + " iter " + std::to_string(iter));
      CheckAgreement(text, db, state, inputs, prev);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QfRandomTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace wsv
