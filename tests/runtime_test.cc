#include <gtest/gtest.h>

#include "gallery/gallery.h"
#include "runtime/interpreter.h"
#include "runtime/successor.h"

namespace wsv {
namespace {

Value V(const char* s) { return Value::Intern(s); }

UserChoice LoginChoice(const char* name, const char* pw) {
  UserChoice c;
  c.constant_values["name"] = V(name);
  c.constant_values["password"] = V(pw);
  c.relation_choices["button"] = Tuple{V("login")};
  return c;
}

class LoginRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ws = BuildLoginService();
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    service_ = std::move(ws).value();
    db_ = LoginDatabase();
    stepper_.emplace(&service_, &db_);
  }

  WebService service_;
  Instance db_;
  std::optional<Stepper> stepper_;
};

TEST_F(LoginRuntimeTest, InitialConfigMaterializesState) {
  Config c = stepper_->InitialConfig();
  EXPECT_EQ(c.page, "HP");
  ASSERT_NE(c.state.FindRelation("error"), nullptr);
  EXPECT_TRUE(c.state.FindRelation("error")->empty());
  EXPECT_TRUE(c.provided_constants.empty());
}

TEST_F(LoginRuntimeTest, OptionsComeFromRules) {
  Config c = stepper_->InitialConfig();
  std::map<std::string, Value> consts{{"name", V("alice")},
                                      {"password", V("pw")}};
  auto options = stepper_->ComputeOptions(c, consts);
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  ASSERT_EQ(options->count("button"), 1u);
  EXPECT_EQ(options->at("button").size(), 2u);  // login, quit
}

TEST_F(LoginRuntimeTest, SuccessfulLoginReachesCP) {
  Config c = stepper_->InitialConfig();
  auto out = stepper_->Step(c, LoginChoice("alice", "pw"));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out->to_error);
  EXPECT_EQ(out->next.page, "CP");
  EXPECT_TRUE(out->next.state.FindRelation("logged_in")->AsBool());
  EXPECT_TRUE(out->next.state.FindRelation("error")->empty());
  // kappa now holds both constants.
  EXPECT_EQ(out->next.provided_constants.size(), 2u);
  // The trace records the chosen inputs.
  EXPECT_TRUE(out->trace.inputs.FindRelation("button")->Contains(
      Tuple{V("login")}));
}

TEST_F(LoginRuntimeTest, FailedLoginRecordsErrorState) {
  Config c = stepper_->InitialConfig();
  auto out = stepper_->Step(c, LoginChoice("alice", "wrong"));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->next.page, "MP");
  EXPECT_TRUE(out->next.state.FindRelation("error")->Contains(
      Tuple{V("failed login")}));
}

TEST_F(LoginRuntimeTest, EmptySubmissionEndsSession) {
  Config c = stepper_->InitialConfig();
  UserChoice choice;
  choice.constant_values["name"] = V("alice");
  choice.constant_values["password"] = V("pw");
  auto out = stepper_->Step(c, choice);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->next.page, "BYE");
}

TEST(PaperClearLoopTest, ReRequestingConstantsIsAnError) {
  auto ws = BuildPaperClearLoopService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = LoginDatabase();
  Stepper stepper(&*ws, &db);
  Config c = stepper.InitialConfig();
  UserChoice clear;
  clear.constant_values["name"] = V("alice");
  clear.constant_values["password"] = V("pw");
  clear.relation_choices["button"] = Tuple{V("clear")};
  auto out = stepper.Step(c, clear);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->next.page, "HP");
  // Back on HP with name/password already in kappa: condition (ii).
  auto err = stepper.StaticError(out->next);
  ASSERT_TRUE(err.has_value());
  auto out2 = stepper.Step(out->next, UserChoice{});
  ASSERT_TRUE(out2.ok());
  EXPECT_TRUE(out2->to_error);
  EXPECT_EQ(out2->next.page, "ERR");
}

TEST_F(LoginRuntimeTest, ChoiceValidation) {
  Config c = stepper_->InitialConfig();
  // Missing constants.
  UserChoice empty;
  EXPECT_FALSE(stepper_->Step(c, empty).ok());
  // Tuple outside the options.
  UserChoice bad = LoginChoice("alice", "pw");
  bad.relation_choices["button"] = Tuple{V("nosuchbutton")};
  EXPECT_FALSE(stepper_->Step(c, bad).ok());
}

// The apply core builds a part only where the step changes it and
// otherwise reuses the source node's instance or an empty prototype
// (DESIGN.md §6h); Step materializes the same successor either way.
TEST_F(LoginRuntimeTest, ApplyChoiceBuildsOnlyChangedParts) {
  using Origin = Part::Origin;
  const Config start = stepper_->InitialConfig();
  const PageSchema* hp = service_.FindPage("HP");
  ASSERT_NE(hp, nullptr);

  // A successful login changes the state, records the inputs and the
  // pressed button (prev), and triggers no action.
  Kappa kappa = {{"name", V("alice")}, {"password", V("pw")}};
  auto login =
      stepper_->ApplyChoice(start, *hp, &kappa, LoginChoice("alice", "pw"));
  ASSERT_TRUE(login.ok()) << login.status().ToString();
  EXPECT_EQ(login->state.origin(), Origin::kBuilt);
  EXPECT_EQ(login->inputs.origin(), Origin::kBuilt);
  EXPECT_EQ(login->prev_inputs.origin(), Origin::kBuilt);
  EXPECT_EQ(login->actions.origin(), Origin::kPrototype);
  EXPECT_EQ(*login->page, "CP");
  EXPECT_EQ(login->kappa, &kappa);

  // Quitting fires no state update: the source state itself is reused.
  UserChoice quit = LoginChoice("alice", "pw");
  quit.relation_choices["button"] = Tuple{V("quit")};
  auto bye = stepper_->ApplyChoice(start, *hp, &kappa, quit);
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  EXPECT_EQ(bye->state.origin(), Origin::kSource);
  EXPECT_EQ(&bye->state.get(), &start.state);
  EXPECT_EQ(*bye->page, "BYE");

  // Idling on CP changes nothing: the page pointer and the state are the
  // source's, and inputs, prev and actions are the empty prototypes.
  auto cp_or = stepper_->Step(start, LoginChoice("alice", "pw"));
  ASSERT_TRUE(cp_or.ok());
  const Config cp = cp_or->next;
  const PageSchema* cp_page = service_.FindPage("CP");
  ASSERT_NE(cp_page, nullptr);
  UserChoice idle;
  idle.relation_choices["button"] = std::nullopt;
  auto stay = stepper_->ApplyChoice(cp, *cp_page, &cp.provided_constants, idle);
  ASSERT_TRUE(stay.ok()) << stay.status().ToString();
  EXPECT_EQ(stay->page, &cp.page);
  EXPECT_EQ(stay->state.origin(), Origin::kSource);
  EXPECT_EQ(stay->inputs.origin(), Origin::kPrototype);
  EXPECT_EQ(stay->prev_inputs.origin(), Origin::kPrototype);
  EXPECT_EQ(stay->actions.origin(), Origin::kPrototype);
  auto stepped = stepper_->Step(cp, idle);
  ASSERT_TRUE(stepped.ok());
  EXPECT_TRUE(stepped->next.state == cp.state);
  EXPECT_TRUE(stepped->trace.inputs == stay->inputs.get());
  EXPECT_TRUE(stepped->next.prev_inputs == stay->prev_inputs.get());
}

TEST_F(LoginRuntimeTest, ErrorPageLoopsForever) {
  Config c = stepper_->InitialConfig();
  c.page = "ERR";
  auto out = stepper_->Step(c, UserChoice{});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->next.page, "ERR");
  EXPECT_EQ(out->next.state, c.state);  // carried unchanged
}

TEST_F(LoginRuntimeTest, ScriptedInterpreterRunsSession) {
  std::vector<UserChoice> script{LoginChoice("alice", "pw")};
  {
    UserChoice logout;
    logout.relation_choices["button"] = Tuple{V("logout")};
    script.push_back(logout);
  }
  ScriptedInputProvider provider(std::move(script));
  Interpreter interp(&service_, &db_);
  auto run = interp.Run(provider, 3);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->page_sequence,
            (std::vector<std::string>{"HP", "CP", "BYE"}));
  EXPECT_FALSE(run->reached_error);
}

TEST_F(LoginRuntimeTest, RandomRunsNeverCrash) {
  std::vector<Value> pool{V("alice"), V("pw"), V("zzz")};
  for (uint64_t seed = 0; seed < 10; ++seed) {
    RandomInputProvider provider(seed, pool);
    Interpreter interp(&service_, &db_);
    auto run = interp.Run(provider, 15);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->trace.size(), 15u);
  }
}

TEST(EcommerceRuntimeTest, ShoppingSessionEndToEnd) {
  auto ws = BuildEcommerceService();
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  Instance db = EcommerceDatabase();
  Interpreter interp(&*ws, &db);

  auto button = [](const char* label) {
    UserChoice c;
    c.relation_choices["button"] = Tuple{V(label)};
    return c;
  };
  std::vector<UserChoice> script;
  {
    UserChoice login = button("login");
    login.constant_values["name"] = V("alice");
    login.constant_values["password"] = V("pw");
    script.push_back(login);           // HP -> CP
  }
  script.push_back(button("laptop"));  // CP -> LSP
  {
    UserChoice search = button("search");
    search.relation_choices["laptopsearch"] =
        Tuple{V("4gb"), V("1tb"), V("13in")};
    script.push_back(search);          // LSP -> PIP
  }
  {
    UserChoice pick;
    pick.relation_choices["pickproduct"] = Tuple{V("p1"), V("100")};
    script.push_back(pick);            // PIP -> PP
  }
  script.push_back(button("buy"));     // PP -> UPP
  {
    UserChoice pay = button("submit");
    pay.relation_choices["payamount"] = Tuple{V("100")};
    script.push_back(pay);             // UPP -> COP
  }
  script.push_back(button("confirmorder"));  // COP -> VOP, conf+ship fire
  script.push_back(button("logout"));        // VOP -> GBP

  ScriptedInputProvider provider(std::move(script));
  auto run = interp.Run(provider, 9);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->page_sequence,
            (std::vector<std::string>{"HP", "CP", "LSP", "PIP", "PP", "UPP",
                                      "COP", "VOP", "GBP"}));
  EXPECT_FALSE(run->reached_error) << run->error_reason;
  // The confirm step produced both actions, visible in the next trace
  // element (actions triggered at step i land in A_{i+1}).
  const TraceStep& vop = run->trace[7];
  EXPECT_TRUE(vop.actions.FindRelation("conf")->Contains(
      Tuple{V("alice"), V("100")}));
  EXPECT_TRUE(vop.actions.FindRelation("ship")->Contains(
      Tuple{V("alice"), V("p1")}));
  // paid was recorded when submitting payment.
  EXPECT_TRUE(vop.state.FindRelation("paid")->Contains(
      Tuple{V("p1"), V("100")}));
}

TEST(EcommerceRuntimeTest, AdminCanShipPendingOrder) {
  auto ws = BuildEcommerceService();
  ASSERT_TRUE(ws.ok());
  Instance db = EcommerceDatabase();
  Interpreter interp(&*ws, &db);
  auto button = [](const char* label) {
    UserChoice c;
    c.relation_choices["button"] = Tuple{V(label)};
    return c;
  };
  std::vector<UserChoice> script;
  {
    UserChoice login = button("login");
    login.constant_values["name"] = V("Admin");
    login.constant_values["password"] = V("root");
    script.push_back(login);  // HP -> AP
  }
  script.push_back(button("pending"));  // AP -> POP
  ScriptedInputProvider provider(std::move(script));
  auto run = interp.Run(provider, 3);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->page_sequence,
            (std::vector<std::string>{"HP", "AP", "POP"}));
  EXPECT_TRUE(run->trace[1].state.FindRelation("is_admin")->AsBool());
}

}  // namespace
}  // namespace wsv
