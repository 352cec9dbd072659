// Differential test of one-pass successor generation and the hash-consed
// configuration graph (`ctest -L runtime`; DESIGN.md §6g, §6h).
//
// LazyConfigGraph expands a node by computing its static error check
// once, its options once per constant binding, and every choice through
// the stepper's unvalidated apply core. The reference expansion below
// does it the slow way: its own choice enumerator, the public validated
// Stepper::Step on every choice, an ordered node index and edge dedup by
// the printed inputs. The two must build the same graph — the same nodes
// in the same order, the same per-node out-edge lists, byte-identical
// edge inputs, to_error and error_reason — on the login service over
// every database within two fresh values, on the e-commerce service over
// its small database with pool {alice, pw}, on the clear-loop login
// variant, and on a small service that reaches every branch (error
// conditions (i)-(iii), propositions, an input nothing reads). Step must
// still reject every kind of invalid choice, and one stepper shared by
// four concurrent expansions (the chunked sweep's shape) must give each
// of them the same graph; the suite is in the tsan set for that. Every
// production graph's store must hold each part once, and views into it
// must stay valid as the graph grows and when it is moved.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gallery/gallery.h"
#include "ltl/ltl_parser.h"
#include "runtime/successor.h"
#include "verify/config_graph.h"
#include "verify/db_enum.h"
#include "verify/ltl_verifier.h"
#include "ws/spec_parser.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

// Every user choice at `config`, in the order the configuration graph
// enumerates them: constants odometer-style over the pool (first
// requested constant slowest), then per offered relation no pick followed
// by each option, then each proposition false, then true.
StatusOr<std::vector<UserChoice>> ReferenceChoices(
    const Stepper& stepper, const Config& config,
    const std::vector<Value>& pool) {
  const WebService& service = stepper.service();
  if (config.page == service.error_page() ||
      stepper.StaticError(config).has_value()) {
    return std::vector<UserChoice>{UserChoice{}};
  }
  const PageSchema* page = service.FindPage(config.page);
  if (page == nullptr) return Status::NotFound("unknown page");
  std::vector<std::string> props;
  for (const std::string& in : page->inputs) {
    const RelationSymbol* sym = service.vocab().FindRelation(in);
    if (sym != nullptr && sym->arity == 0) props.push_back(in);
  }
  const size_t num_consts = page->input_constants.size();
  uint64_t bindings = 1;
  for (size_t i = 0; i < num_consts; ++i) bindings *= pool.size();

  std::vector<UserChoice> out;
  for (uint64_t b = 0; b < bindings; ++b) {
    std::map<std::string, Value> consts;
    for (size_t i = num_consts, rest = b; i-- > 0; rest /= pool.size()) {
      consts[page->input_constants[i]] = pool[rest % pool.size()];
    }
    WSV_ASSIGN_OR_RETURN(auto options, stepper.ComputeOptions(config, consts));
    std::vector<UserChoice> partial(1);
    partial[0].constant_values = consts;
    for (const auto& [rel, tuples] : options) {
      std::vector<UserChoice> next;
      for (const UserChoice& c : partial) {
        UserChoice none = c;
        none.relation_choices[rel] = std::nullopt;
        next.push_back(none);
        for (const Tuple& t : tuples) {
          UserChoice pick = c;
          pick.relation_choices[rel] = t;
          next.push_back(pick);
        }
      }
      partial = std::move(next);
    }
    for (const std::string& prop : props) {
      std::vector<UserChoice> next;
      for (const UserChoice& c : partial) {
        for (bool truth : {false, true}) {
          UserChoice with = c;
          with.proposition_choices[prop] = truth;
          next.push_back(with);
        }
      }
      partial = std::move(next);
    }
    out.insert(out.end(), partial.begin(), partial.end());
  }
  return out;
}

// The reference expansion's own graph: owning nodes and edge inputs.
struct ReferenceGraph {
  struct Edge {
    int from = 0;
    int to = 0;
    Instance inputs;
    bool to_error = false;
    std::string error_reason;
  };
  std::vector<Config> nodes;
  std::vector<Edge> edges;
  std::vector<std::vector<int>> out_edges;
  int initial = 0;
};

// BuildConfigGraph the slow way: BFS, Step on every choice.
StatusOr<ReferenceGraph> ReferenceExpansion(const Stepper& stepper,
                                            const std::vector<Value>& pool) {
  ReferenceGraph graph;
  std::map<Config, int> index;
  auto intern = [&](const Config& c) {
    auto [it, inserted] =
        index.emplace(c, static_cast<int>(graph.nodes.size()));
    if (inserted) {
      graph.nodes.push_back(c);
      graph.out_edges.emplace_back();
    }
    return it->second;
  };
  graph.initial = intern(stepper.InitialConfig());
  for (size_t v = 0; v < graph.nodes.size(); ++v) {
    const Config current = graph.nodes[v];
    WSV_ASSIGN_OR_RETURN(std::vector<UserChoice> choices,
                         ReferenceChoices(stepper, current, pool));
    std::set<std::pair<int, std::string>> seen;
    for (const UserChoice& choice : choices) {
      WSV_ASSIGN_OR_RETURN(StepOutcome outcome, stepper.Step(current, choice));
      const int to = intern(outcome.next);
      if (!seen.insert({to, outcome.trace.inputs.ToString()}).second) {
        continue;
      }
      ReferenceGraph::Edge edge;
      edge.from = static_cast<int>(v);
      edge.to = to;
      edge.inputs = std::move(outcome.trace.inputs);
      edge.to_error = outcome.to_error;
      edge.error_reason = outcome.error_reason;
      graph.out_edges[v].push_back(static_cast<int>(graph.edges.size()));
      graph.edges.push_back(std::move(edge));
    }
  }
  return graph;
}

// The graph's store holds each part once: no two stored instances and
// no two stored kappa maps are equal, and structurally distinct nodes are
// exactly the distinct pointer tuples.
void ExpectStoreUnique(const ConfigGraph& graph) {
  std::set<Instance> instances;
  for (const Instance& inst : graph.store->instances()) {
    EXPECT_TRUE(instances.insert(inst).second)
        << "instance stored twice:\n" << inst.ToString();
  }
  std::set<Kappa> kappas;
  for (const Kappa& kappa : graph.store->kappas()) {
    EXPECT_TRUE(kappas.insert(kappa).second) << "kappa stored twice";
  }
  std::set<Config> configs;
  for (size_t v = 0; v < graph.nodes.size(); ++v) {
    configs.insert(graph.MaterializeNode(static_cast<int>(v)));
  }
  EXPECT_EQ(configs.size(), graph.nodes.size());
}

StatusOr<ConfigGraph> ProductionExpansion(const Stepper& stepper,
                                          const std::vector<Value>& pool) {
  ConfigGraphOptions options;
  options.constant_pool = pool;
  LazyConfigGraph lazy(&stepper, options);
  WSV_RETURN_IF_ERROR(lazy.ExpandAll());
  EXPECT_FALSE(lazy.truncated());
  ConfigGraph graph = lazy.TakeGraph();
  ExpectStoreUnique(graph);
  return graph;
}

void ExpectSameGraph(const ConfigGraph& got, const ReferenceGraph& want,
                     const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.initial, want.initial);
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (size_t v = 0; v < want.nodes.size(); ++v) {
    ASSERT_TRUE(got.MaterializeNode(static_cast<int>(v)) == want.nodes[v])
        << "node " << v;
    ASSERT_EQ(std::vector<int>(got.out_edges[v].begin(), got.out_edges[v].end()),
              want.out_edges[v])
        << "node " << v;
  }
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (size_t e = 0; e < want.edges.size(); ++e) {
    const ConfigGraph::Edge& a = got.edges[e];
    const ReferenceGraph::Edge& b = want.edges[e];
    ASSERT_EQ(a.from, b.from) << "edge " << e;
    ASSERT_EQ(a.to, b.to) << "edge " << e;
    ASSERT_EQ(a.inputs->ToString(), b.inputs.ToString()) << "edge " << e;
    ASSERT_TRUE(*a.inputs == b.inputs) << "edge " << e;
    ASSERT_EQ(a.to_error(), b.to_error) << "edge " << e;
    ASSERT_EQ(*a.error_reason, b.error_reason) << "edge " << e;
  }
}

// The stepper and pool the verifier uses for `property` on `db`.
struct Fixture {
  Stepper stepper;
  std::vector<Value> pool;

  Fixture(const WebService& service, const Instance& db,
          const std::string& property, const LtlVerifyOptions& options)
      : stepper(&service, &db) {
    auto prop = ParseTemporalProperty(property, &service.vocab());
    EXPECT_TRUE(prop.ok()) << prop.status().ToString();
    stepper.SetTrackedPrev(TrackedPrevRelations(service, *prop));
    pool = ResolveConstantPool(service, *prop, db, options);
  }
};

void CheckDatabase(const WebService& service, const Instance& db,
                   const std::string& property,
                   const LtlVerifyOptions& options, const std::string& where) {
  Fixture f(service, db, property, options);
  auto want = ReferenceExpansion(f.stepper, f.pool);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto got = ProductionExpansion(f.stepper, f.pool);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameGraph(*got, *want, where);
}

TEST(ExpansionDiff, LoginEveryDatabaseWithinTwoFreshValues) {
  WebService service = std::move(BuildLoginService()).value();
  const std::string property = "G(!CP | logged_in)";
  auto prop = ParseTemporalProperty(property, &service.vocab());
  ASSERT_TRUE(prop.ok());
  LtlVerifyOptions options;
  options.db.fresh_values = 2;
  std::set<Value> lits = prop->formula->Literals();
  options.db.base_values.assign(lits.begin(), lits.end());
  uint64_t databases = 0;
  auto done = EnumerateDatabases(
      service, options.db, [&](const Instance& db) -> StatusOr<bool> {
        CheckDatabase(service, db, property, options,
                      "login database " + std::to_string(databases));
        ++databases;
        return ::testing::Test::HasFatalFailure();
      });
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(databases, 407u);
}

TEST(ExpansionDiff, EcommerceSmallDatabase) {
  WebService service = std::move(BuildEcommerceService()).value();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  CheckDatabase(service, EcommerceSmallDatabase(),
                "forall pid . G(!shipped(pid) | paid(pid, \"100\"))", options,
                "ecommerce");
}

TEST(ExpansionDiff, GalleryLoginServices) {
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw"), V("u0")};
  for (bool clear_loop : {false, true}) {
    WebService service =
        std::move(clear_loop ? BuildPaperClearLoopService()
                             : BuildLoginService())
            .value();
    CheckDatabase(service, LoginDatabase(), "G(!MP)", options,
                  clear_loop ? "clear-loop login" : "login");
  }
}

// Every branch of the expansion on one small service: input constants,
// a propositional input, an input no rule reads (so different choices
// reach the same successor with different inputs), condition (iii) on
// HP, condition (i) on P2 (`late` is never provided before it), and
// condition (ii) when P3 returns to HP.
TEST(ExpansionDiff, EveryBranch) {
  auto ws = ParseServiceSpec(R"wsv(
service Branches;
database item(x);
state seen(x);
state done;
input code const;
input late const;
input pick(x);
input color(x);
input flag;
page HP {
  input code, flag;
  options pick(x) :- item(x);
  options color(x) :- item(x);
  state +seen(x) :- pick(x) & flag;
  target P2 :- pick(code);
  target P3 :- flag & pick(code);
}
page P2 {
  options color(x) :- item(x);
  state +done :- color(late);
}
page P3 {
  input late, flag;
  options pick(x) :- item(x) & x = late;
  target HP :- flag;
}
home HP;
error ERR;
)wsv");
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db;
  ASSERT_TRUE(db.AddFact("item", {V("a")}).ok());
  ASSERT_TRUE(db.AddFact("item", {V("b")}).ok());
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("a"), V("b")};
  Fixture f(*ws, db, "G(!done)", options);
  auto want = ReferenceExpansion(f.stepper, f.pool);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto got = ProductionExpansion(f.stepper, f.pool);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameGraph(*got, *want, "branches");

  // The spec reaches each branch it is written for.
  std::set<std::string> reasons;
  for (const ReferenceGraph::Edge& e : want->edges) {
    if (!e.to_error) continue;
    reasons.insert(e.error_reason.substr(e.error_reason.rfind('(')));
  }
  EXPECT_EQ(reasons, (std::set<std::string>{"(condition i)", "(condition ii)",
                                            "(condition iii)"}));
  bool same_target_other_inputs = false;
  for (const std::vector<int>& out : want->out_edges) {
    for (size_t i = 0; i < out.size(); ++i) {
      for (size_t j = i + 1; j < out.size(); ++j) {
        same_target_other_inputs |=
            want->edges[static_cast<size_t>(out[i])].to ==
            want->edges[static_cast<size_t>(out[j])].to;
      }
    }
  }
  EXPECT_TRUE(same_target_other_inputs);
  // Some step updates the state, so a successor state is built as well
  // as reused.
  bool state_updated = false;
  for (const Config& node : want->nodes) {
    state_updated |= !(node.state == want->nodes[0].state);
  }
  EXPECT_TRUE(state_updated);
}

// A node with many out-edges, some of them parallel: a pool that names
// a value twice makes the third constant binding repeat the first, so
// every one of its 31 choices reaches a successor the node already has
// an edge to, with the same inputs, after more than 60 distinct edges
// (past the edge index's first growth). The production dedup must drop
// exactly the repeats the reference's printed-inputs dedup drops.
TEST(ExpansionDiff, WideNodeWithParallelEdges) {
  auto ws = ParseServiceSpec(R"wsv(
service Wide;
database item(x);
state picked(x);
input code const;
input pick(x);
page HP {
  input code;
  options pick(x) :- item(x);
  state +picked(x) :- pick(x) & item(code);
}
home HP;
error ERR;
)wsv");
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db.AddFact("item", {Value::Intern("i" + std::to_string(i))})
                    .ok());
  }
  LtlVerifyOptions options;
  Fixture f(*ws, db, "G(true)", options);
  f.pool = {V("i0"), V("i1"), V("i0")};
  auto want = ReferenceExpansion(f.stepper, f.pool);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto got = ProductionExpansion(f.stepper, f.pool);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameGraph(*got, *want, "wide");

  // The initial node has 3 x 31 choices and 2 x 31 distinct edges.
  auto choices = ReferenceChoices(f.stepper, want->nodes[want->initial],
                                  f.pool);
  ASSERT_TRUE(choices.ok()) << choices.status().ToString();
  EXPECT_EQ(choices->size(), 93u);
  EXPECT_EQ(want->out_edges[static_cast<size_t>(want->initial)].size(), 62u);
}

TEST(ExpansionDiff, StepStillRejectsInvalidChoices) {
  WebService service = std::move(BuildEcommerceService()).value();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  Fixture f(service, db, "G(!MP)", options);
  auto graph = ProductionExpansion(f.stepper, f.pool);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto rejected = [&](const Config& c, const UserChoice& choice) {
    auto out = f.stepper.Step(c, choice);
    return !out.ok() && out.status().code() == StatusCode::kInvalidArgument;
  };
  int checked = 0;
  for (size_t v = 0; v < graph->nodes.size(); ++v) {
    const Config c = graph->MaterializeNode(static_cast<int>(v));
    if (c.page == service.error_page() ||
        f.stepper.StaticError(c).has_value()) {
      continue;
    }
    const PageSchema* page = service.FindPage(c.page);
    ASSERT_NE(page, nullptr);
    UserChoice base;
    for (const std::string& name : page->input_constants) {
      base.constant_values[name] = V("alice");
    }
    // A constant the page does not request.
    UserChoice extra = base;
    extra.constant_values["no_such_constant"] = V("alice");
    EXPECT_TRUE(rejected(c, extra)) << c.page;
    // A requested constant left out.
    if (!page->input_constants.empty()) {
      UserChoice missing = base;
      missing.constant_values.erase(page->input_constants.front());
      EXPECT_TRUE(rejected(c, missing)) << c.page;
    }
    // A relation the page does not offer, and a proposition it does not.
    UserChoice foreign = base;
    foreign.relation_choices["no_such_relation"] = std::nullopt;
    EXPECT_TRUE(rejected(c, foreign)) << c.page;
    UserChoice foreign_prop = base;
    foreign_prop.proposition_choices["no_such_proposition"] = true;
    EXPECT_TRUE(rejected(c, foreign_prop)) << c.page;
    // A tuple outside the options of an offered relation.
    auto options_or = f.stepper.ComputeOptions(c, base.constant_values);
    ASSERT_TRUE(options_or.ok()) << options_or.status().ToString();
    for (const auto& [rel, tuples] : *options_or) {
      const RelationSymbol* sym = service.vocab().FindRelation(rel);
      ASSERT_NE(sym, nullptr);
      Tuple outside(static_cast<size_t>(sym->arity), V("not_an_option"));
      ASSERT_EQ(tuples.count(outside), 0u);
      UserChoice bad = base;
      bad.relation_choices[rel] = outside;
      EXPECT_TRUE(rejected(c, bad)) << c.page << " " << rel;
    }
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

// Stored parts never move: a view taken after the first expansion reads
// the same content, through the same addresses, once the whole graph is
// expanded and after the graph is moved out of the builder.
TEST(ExpansionDiff, ViewsStayValidAsTheGraphGrows) {
  WebService service = std::move(BuildEcommerceService()).value();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  Fixture f(service, db, "G(!MP)", options);
  ConfigGraphOptions graph_options;
  graph_options.constant_pool = f.pool;
  LazyConfigGraph lazy(&f.stepper, graph_options);
  auto expanded = lazy.EnsureExpanded(lazy.initial());
  ASSERT_TRUE(expanded.ok() && *expanded);
  ASSERT_FALSE(lazy.graph().edges.empty());
  const size_t early_nodes = lazy.graph().nodes.size();
  const TraceView view = lazy.graph().View(0);
  const TraceStep copy = lazy.graph().Materialize(0);
  const ConfigView node = lazy.graph().nodes[0];
  const Config node_copy = lazy.graph().MaterializeNode(0);

  auto expect_unchanged = [&](const ConfigGraph& graph) {
    EXPECT_EQ(*view.page, copy.page);
    EXPECT_TRUE(*view.state == copy.state);
    EXPECT_TRUE(*view.inputs == copy.inputs);
    EXPECT_TRUE(*view.prev_inputs == copy.prev_inputs);
    EXPECT_TRUE(*view.actions == copy.actions);
    EXPECT_EQ(*view.kappa, copy.kappa);
    EXPECT_TRUE(node.Materialize() == node_copy);
    const TraceView again = graph.View(0);
    EXPECT_EQ(again.state, view.state);
    EXPECT_EQ(again.inputs, view.inputs);
    EXPECT_EQ(again.kappa, view.kappa);
    EXPECT_TRUE(graph.nodes[0] == node);
    // The early addresses are still those of stored instances.
    std::set<const Instance*> stored;
    for (const Instance& inst : graph.store->instances()) stored.insert(&inst);
    for (const Instance* inst :
         {view.state, view.inputs, view.prev_inputs, view.actions}) {
      EXPECT_EQ(stored.count(inst), 1u);
    }
  };
  ASSERT_TRUE(lazy.ExpandAll().ok());
  ASSERT_GT(lazy.graph().nodes.size(), 10 * early_nodes);
  expect_unchanged(lazy.graph());
  const ConfigGraph graph = lazy.TakeGraph();
  expect_unchanged(graph);
}

TEST(ExpansionDiff, SharedStepperConcurrentExpansions) {
  WebService service = std::move(BuildEcommerceService()).value();
  Instance db = EcommerceSmallDatabase();
  LtlVerifyOptions options;
  options.graph.constant_pool = {V("alice"), V("pw")};
  Fixture f(service, db, "G(!MP)", options);
  auto want = ReferenceExpansion(f.stepper, f.pool);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  std::vector<std::optional<ConfigGraph>> got(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      auto g = ProductionExpansion(f.stepper, f.pool);
      if (g.ok()) got[t] = std::move(g).value();
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < got.size(); ++t) {
    ASSERT_TRUE(got[t].has_value()) << "thread " << t;
    ExpectSameGraph(*got[t], *want, "thread " + std::to_string(t));
  }
}

}  // namespace
}  // namespace wsv
