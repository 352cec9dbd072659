#include <gtest/gtest.h>

#include <algorithm>

#include "fo/bytecode/compiler.h"
#include "fo/bytecode/vm.h"
#include "fo/evaluator.h"
#include "fo/formula.h"
#include "fo/input_bounded.h"
#include "fo/parser.h"
#include "fo/plan.h"
#include "fo/rewrite.h"
#include "ws/builder.h"

namespace wsv {
namespace {

Vocabulary DemoVocab() {
  Vocabulary v;
  EXPECT_TRUE(v.AddRelation("user", 2, SymbolKind::kDatabase).ok());
  EXPECT_TRUE(v.AddRelation("error", 1, SymbolKind::kState).ok());
  EXPECT_TRUE(v.AddRelation("button", 1, SymbolKind::kInput).ok());
  EXPECT_TRUE(v.AddRelation("pick", 2, SymbolKind::kState).ok());
  EXPECT_TRUE(v.AddRelation("ship", 2, SymbolKind::kAction).ok());
  EXPECT_TRUE(v.AddConstant("name", true).ok());
  EXPECT_TRUE(v.AddConstant("password", true).ok());
  return v;
}

TEST(FoParserTest, ParsesAtomsAndEqualities) {
  Vocabulary v = DemoVocab();
  auto f = ParseFormula("user(name, password) & button(\"login\")", &v);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ((*f)->kind(), Formula::Kind::kAnd);
  EXPECT_EQ((*f)->ToString(),
            "(user(name, password) & button(\"login\"))");
}

TEST(FoParserTest, ResolvesConstantsVsVariables) {
  Vocabulary v = DemoVocab();
  auto f = ParseFormula("user(name, x)", &v);
  ASSERT_TRUE(f.ok());
  const Atom& atom = (*f)->atom();
  EXPECT_TRUE(atom.terms[0].is_constant_symbol());
  EXPECT_TRUE(atom.terms[1].is_variable());
}

TEST(FoParserTest, QuantifierScopesMaximally) {
  auto f = ParseFormula("exists x . p(x) & q(x)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->kind(), Formula::Kind::kExists);
  EXPECT_TRUE((*f)->FreeVariables().empty());
}

TEST(FoParserTest, PrecedenceImpliesWeakerThanOr) {
  auto f = ParseFormula("a | b -> c");
  ASSERT_TRUE(f.ok());
  // (a | b) -> c  ==  !(a | b) | c
  EXPECT_EQ((*f)->kind(), Formula::Kind::kOr);
  EXPECT_EQ((*f)->children()[0]->kind(), Formula::Kind::kNot);
}

TEST(FoParserTest, PrevAtoms) {
  Vocabulary v = DemoVocab();
  auto f = ParseFormula("prev.button(\"login\")", &v);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE((*f)->atom().prev);
  // prev on a non-input relation is rejected.
  EXPECT_FALSE(ParseFormula("prev.user(x, y)", &v).ok());
}

TEST(FoParserTest, ChecksArity) {
  Vocabulary v = DemoVocab();
  EXPECT_FALSE(ParseFormula("user(x)", &v).ok());
  EXPECT_FALSE(ParseFormula("unknown(x)", &v).ok());
}

TEST(FoParserTest, RejectsTrailingInput) {
  EXPECT_FALSE(ParseFormula("a b").ok());
  EXPECT_FALSE(ParseFormula("").ok());
}

TEST(FoParserTest, InequalityDesugarsToNotEquals) {
  auto f = ParseFormula("x != y");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->kind(), Formula::Kind::kNot);
  EXPECT_EQ((*f)->children()[0]->kind(), Formula::Kind::kEquals);
  EXPECT_EQ((*f)->ToString(), "x != y");
}

TEST(FoAnalysisTest, FreeVariables) {
  auto f = ParseFormula("p(x) & exists y . q(x, y)");
  ASSERT_TRUE(f.ok());
  std::set<std::string> free = (*f)->FreeVariables();
  EXPECT_EQ(free, (std::set<std::string>{"x"}));
}

TEST(FoAnalysisTest, ConstantSymbolsAndLiterals) {
  Vocabulary v = DemoVocab();
  auto f = ParseFormula("user(name, password) & button(\"login\")", &v);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->ConstantSymbols(),
            (std::set<std::string>{"name", "password"}));
  EXPECT_EQ((*f)->Literals(), (std::set<Value>{Value::Intern("login")}));
}

// --- Evaluation ------------------------------------------------------------

class FoEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.AddFact("user", {Value::Intern("ann"),
                                     Value::Intern("pw1")}).ok());
    ASSERT_TRUE(db_.AddFact("user", {Value::Intern("bob"),
                                     Value::Intern("pw2")}).ok());
    ctx_.AddLayer(&db_);
  }

  // Runs `text` on the VM and on the oracle; where both return a
  // verdict they must agree. Returns the VM's.
  StatusOr<bool> Eval(const std::string& text, Valuation val = {}) {
    Vocabulary v = DemoVocab();
    auto f = ParseFormula(text, &v);
    if (!f.ok()) return f.status();
    return EvalBoth(*f, ctx_, val);
  }

  static StatusOr<bool> EvalBoth(const FormulaPtr& f, const EvalContext& ctx,
                                 const Valuation& val = {}) {
    WSV_ASSIGN_OR_RETURN(auto prog, fobc::CompileBool(f));
    StatusOr<bool> vm = fobc::Execute(*prog, ctx, val);
    StatusOr<bool> oracle = OracleEvaluate(*f, ctx, val);
    if (vm.ok() && oracle.ok()) {
      EXPECT_EQ(*vm, *oracle) << "oracle disagrees on " << f->ToString();
    }
    return vm;
  }

  Instance db_;
  EvalContext ctx_;
};

TEST_F(FoEvalTest, GroundAtoms) {
  ctx_.SetConstant("name", Value::Intern("ann"));
  ctx_.SetConstant("password", Value::Intern("pw1"));
  auto r = Eval("user(name, password)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(*r);
  ctx_.SetConstant("password", Value::Intern("wrong"));
  EXPECT_FALSE(*Eval("user(name, password)"));
}

// A constant layer is read through its pointer: later changes to the map
// show, SetConstant still overrides it, and its values join the domain.
TEST_F(FoEvalTest, ConstantLayerIsReadThroughThePointer) {
  NameMap<Value> kappa = {{"name", Value::Intern("ann")},
                          {"password", Value::Intern("pw1")}};
  ctx_.SetConstantLayer(&kappa);
  EXPECT_TRUE(*Eval("user(name, password)"));
  ctx_.SetConstant("password", Value::Intern("wrong"));
  EXPECT_FALSE(*Eval("user(name, password)"));
  EvalContext layered;
  layered.AddLayer(&db_);
  kappa.Set(InternName("password"), Value::Intern("fresh"));
  layered.SetConstantLayer(&kappa);
  EXPECT_EQ(layered.ResolveConstant("password"), Value::Intern("fresh"));
  const Row dom = layered.ActiveDomain();
  EXPECT_TRUE(std::binary_search(dom.begin(), dom.end(),
                                 Value::Intern("fresh")));
}

TEST_F(FoEvalTest, ActiveDomainQuantification) {
  auto r = Eval("exists x, y . user(x, y) & true");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  // Nobody is their own password.
  EXPECT_TRUE(*Eval("forall x . user(x, x) -> false"));
}

TEST_F(FoEvalTest, NegationAndBoolean) {
  EXPECT_TRUE(*Eval("!user(\"zed\", \"pw\")"));
  EXPECT_TRUE(*Eval("true & !false"));
  EXPECT_FALSE(*Eval("false | false"));
}

TEST_F(FoEvalTest, EqualityOfLiterals) {
  EXPECT_TRUE(*Eval("\"a\" = \"a\""));
  EXPECT_FALSE(*Eval("\"a\" = \"b\""));
}

TEST_F(FoEvalTest, ValuationBindsFreeVariables) {
  Valuation val{{"x", Value::Intern("ann")}, {"y", Value::Intern("pw1")}};
  EXPECT_TRUE(*Eval("user(x, y)", val));
  val["y"] = Value::Intern("pw2");
  EXPECT_FALSE(*Eval("user(x, y)", val));
}

TEST_F(FoEvalTest, QueryEnumeration) {
  Vocabulary v = DemoVocab();
  auto f = ParseFormula("user(x, y)", &v);
  ASSERT_TRUE(f.ok());
  auto prog = fobc::CompileQuery(*f, {"x", "y"});
  ASSERT_TRUE(prog.ok());
  auto tuples = fobc::ExecuteQuery(**prog, ctx_);
  ASSERT_TRUE(tuples.ok());
  EXPECT_EQ(tuples->size(), 2u);
  auto oracle = OracleEvaluateQuery(**f, {"x", "y"}, ctx_);
  ASSERT_TRUE(oracle.ok());
  std::set<Tuple> rows;
  for (Row t : tuples->rows()) rows.emplace(t.begin(), t.end());
  EXPECT_EQ(rows, *oracle);
  // With only x in the head, y stays unbound during evaluation: error.
  auto proj = fobc::CompileQuery(*f, {"x"});
  ASSERT_TRUE(proj.ok());
  EXPECT_FALSE(fobc::ExecuteQuery(**proj, ctx_).ok());
  EXPECT_FALSE(OracleEvaluateQuery(**f, {"x"}, ctx_).ok());
}

TEST_F(FoEvalTest, EmptyDomainSemantics) {
  Instance empty;
  EvalContext ctx;
  ctx.AddLayer(&empty);
  auto exists = ParseFormula("exists x . p(x) & true");
  ASSERT_TRUE(exists.ok());
  auto r = EvalBoth(*exists, ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

// --- Plan pricing and domain membership ------------------------------------

// QueryDomainLoops prices the plan of fo/plan.h, where an equality pin
// binds its variable without a domain loop. Before pins existed these
// bodies cost 1, 2 and 2 loops.
TEST(QueryDomainLoopsTest, EqualityPinsCostNoDomainLoop) {
  Vocabulary v = DemoVocab();
  ASSERT_TRUE(v.AddRelation("orderpick", 2, SymbolKind::kInput).ok());

  // options button(x) :- x = "a" | x = "b"
  auto options = ParseFormula("x = \"a\" | x = \"b\"", &v);
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(QueryDomainLoops(**options, {"x"}), 0);

  // state +newuser(name, password) :- button("confirm"), desugared to
  // button("confirm") & _h0 = name & _h1 = password.
  auto newuser = ParseFormula("button(\"confirm\")", &v);
  ASSERT_TRUE(newuser.ok()) << newuser.status().ToString();
  FormulaPtr body = *newuser;
  std::vector<std::string> heads;
  ASSERT_TRUE(DesugarHeadTerms({Term::ConstantSymbol("name"),
                                Term::ConstantSymbol("password")},
                               &body, &heads)
                  .ok());
  ASSERT_EQ(heads, (std::vector<std::string>{"_h0", "_h1"}));
  EXPECT_EQ(QueryDomainLoops(*body, heads), 0);

  // The e-commerce cancel rule: u is pinned; p keeps its loop, since a
  // guard inside a nested existential does not count.
  auto cancel = ParseFormula(
      "u = name & (exists a . prev.orderpick(p, a) & true) & "
      "button(\"cancel\")",
      &v);
  ASSERT_TRUE(cancel.ok()) << cancel.status().ToString();
  EXPECT_EQ(QueryDomainLoops(**cancel, {"u", "p"}), 1);
}

// A pin's value may be a variable bound earlier in the plan, but not one
// still being planned; a guard comes before any pin.
TEST(QueryDomainLoopsTest, PinsFollowTheBindOrder) {
  auto chained = ParseFormula("x = y");
  ASSERT_TRUE(chained.ok());
  // x loops over the domain, then y = x pins y.
  EXPECT_EQ(QueryDomainLoops(**chained, {"x", "y"}), 1);
  auto guarded = ParseFormula("y = x & p(x)");
  ASSERT_TRUE(guarded.ok());
  EXPECT_EQ(QueryDomainLoops(**guarded, {"x", "y"}), 0);
  auto free_value = ParseFormula("x = z");
  ASSERT_TRUE(free_value.ok());
  EXPECT_EQ(QueryDomainLoops(**free_value, {"x"}), 0);
}

// InActiveDomain answers membership in ActiveDomain() from every source
// of the domain, with or without the union built.
TEST(EvalContextTest, InActiveDomainMatchesActiveDomain) {
  auto val = [](const char* s) { return Value::Intern(s); };
  Instance db;
  ASSERT_TRUE(db.AddFact("user", {val("ann"), val("pw1")}).ok());
  Instance state;
  state.AddDomainValue(val("st"));
  Instance prev;
  ASSERT_TRUE(prev.AddFact("button", {val("login")}).ok());
  NameMap<Value> kappa = {{"name", val("kap")}};
  const std::vector<Value> probes = {val("ann"), val("pw1"),   val("st"),
                                     val("login"), val("kap"), val("ovr"),
                                     val("extra"), val("absent")};

  EvalContext ctx;
  ctx.AddLayer(&state);
  ctx.AddLayer(&db);
  ctx.SetPrevLayer(&prev);
  ctx.SetConstantLayer(&kappa);
  ctx.SetConstant("password", val("ovr"));
  ctx.AddDomainValue(val("extra"));
  // Before ActiveDomain() is built: every source answers.
  for (Value v : probes) {
    EXPECT_EQ(ctx.InActiveDomain(v), v != val("absent")) << v.name();
  }
  const Row dom = ctx.ActiveDomain();
  for (Value v : probes) {
    EXPECT_EQ(ctx.InActiveDomain(v),
              std::binary_search(dom.begin(), dom.end(), v))
        << v.name();
  }
  EvalContext empty;
  EXPECT_FALSE(empty.InActiveDomain(val("ann")));
  EXPECT_TRUE(empty.ActiveDomain().empty());
}

// --- Rewriting --------------------------------------------------------------

TEST(RewriteTest, NnfPushesNegation) {
  auto f = ParseFormula("!(p(x) & !q(x))");
  ASSERT_TRUE(f.ok());
  FormulaPtr nnf = ToNNF(**f);
  EXPECT_EQ(nnf->ToString(), "(!(p(x)) | q(x))");
}

TEST(RewriteTest, NnfQuantifierDuality) {
  auto f = ParseFormula("!(exists x . p(x) & true)");
  ASSERT_TRUE(f.ok());
  FormulaPtr nnf = ToNNF(**f);
  EXPECT_EQ(nnf->kind(), Formula::Kind::kForall);
}

TEST(RewriteTest, DnfDistributes) {
  auto f = ParseFormula("(a | b) & c");
  ASSERT_TRUE(f.ok());
  auto dnf = ToDNF(**f);
  ASSERT_TRUE(dnf.ok());
  EXPECT_EQ((*dnf)->ToString(), "((a & c) | (b & c))");
}

TEST(RewriteTest, DnfRejectsQuantifiers) {
  auto f = ParseFormula("exists x . p(x) & true");
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(ToDNF(**f).ok());
}

TEST(RewriteTest, SubstituteRespectsBinding) {
  auto f = ParseFormula("p(x) & exists x . q(x) & true");
  ASSERT_TRUE(f.ok());
  std::map<std::string, Term> sub{{"x", Term::Variable("z")}};
  FormulaPtr g = Substitute(**f, sub);
  EXPECT_EQ(g->ToString(), "(p(z) & (exists x . ((q(x) & true))))");
}

TEST(RewriteTest, SimplifyFoldsConstants) {
  auto f = ParseFormula("(true & p(x)) | false");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(Simplify(**f)->ToString(), "p(x)");
  auto g = ParseFormula("\"a\" = \"b\"");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(Simplify(**g)->kind(), Formula::Kind::kFalse);
  auto h = ParseFormula("x = x");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(Simplify(**h)->kind(), Formula::Kind::kTrue);
}

// --- Input-boundedness -------------------------------------------------------

TEST(InputBoundedTest, GuardedQuantifiersAccepted) {
  Vocabulary v = DemoVocab();
  auto f = ParseFormula("exists x . button(x) & user(name, password)", &v);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(CheckInputBounded(**f, v).ok());
  auto g = ParseFormula("forall x . button(x) -> error(x)", &v);
  ASSERT_TRUE(g.ok());
  // x occurs in the state atom error(x): rejected.
  EXPECT_FALSE(CheckInputBounded(**g, v).ok());
}

TEST(InputBoundedTest, UnguardedQuantifierRejected) {
  Vocabulary v = DemoVocab();
  auto f = ParseFormula("exists x . user(x, password) & true", &v);
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(CheckInputBounded(**f, v).ok());
}

TEST(InputBoundedTest, PrevGuardAccepted) {
  Vocabulary v = DemoVocab();
  auto f = ParseFormula("exists x . prev.button(x) & user(x, x)", &v);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(CheckInputBounded(**f, v).ok());
}

TEST(InputBoundedTest, QuantifierFreeAlwaysOk) {
  Vocabulary v = DemoVocab();
  auto f = ParseFormula("error(\"x\") & !button(\"login\")", &v);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(CheckInputBounded(**f, v).ok());
}

TEST(InputBoundedTest, InputRuleGroundStateAtoms) {
  Vocabulary v = DemoVocab();
  auto ok = ParseFormula("user(x, y) & error(\"failed\")", &v);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(CheckExistentialInputRule(**ok, v).ok());
  auto bad = ParseFormula("error(x)", &v);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(CheckExistentialInputRule(**bad, v).ok());
  auto univ = ParseFormula("forall x . button(x) -> true", &v);
  ASSERT_TRUE(univ.ok());
  EXPECT_FALSE(CheckExistentialInputRule(**univ, v).ok());
}

}  // namespace
}  // namespace wsv
