#include "runtime/successor.h"

#include <algorithm>
#include <array>

#include "fo/bytecode/cache.h"
#include "fo/bytecode/vm.h"

namespace wsv {

namespace {

// An instance with every relation of `kind` materialized empty, except
// those outside `only` when it is set.
Instance EmptyInstanceOfKind(const WebService& service, SymbolKind kind,
                             const std::optional<std::set<std::string>>& only) {
  Instance out;
  for (const RelationSymbol& sym : service.vocab().RelationsOfKind(kind)) {
    if (only.has_value() && only->count(sym.name) == 0) continue;
    // EnsureRelation only fails on arity conflicts, impossible here.
    (void)out.EnsureRelation(sym.id, sym.arity);
  }
  return out;
}

// The distinct names of `names` in name order, and each element's index
// into them.
std::vector<NameId> SlotsInNameOrder(const std::vector<NameId>& names,
                                     std::vector<size_t>* slot_of) {
  std::vector<NameId> distinct = names;
  std::sort(distinct.begin(), distinct.end(), NameLess);
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  slot_of->clear();
  for (NameId n : names) {
    slot_of->push_back(static_cast<size_t>(
        std::find(distinct.begin(), distinct.end(), n) - distinct.begin()));
  }
  return distinct;
}

}  // namespace

Stepper::Stepper(const WebService* service, const Instance* database)
    : service_(service), database_(database) {
  home_page_id_ = InternName(service_->home_page());
  error_page_id_ = InternName(service_->error_page());
  tables_.reserve(service_->pages().size());
  for (const PageSchema& page : service_->pages()) {
    PageTables& t = tables_.emplace_back();
    t.name = InternName(page.name);
    for (const std::string& in : page.inputs) {
      t.inputs.push_back(InternName(in));
      const RelationSymbol* sym = service_->vocab().FindRelation(in);
      if (sym != nullptr && sym->arity == 0) {
        t.propositions.push_back(t.inputs.back());
      }
    }
    for (const std::string& c : page.input_constants) {
      t.input_constants.push_back(InternName(c));
    }
    std::vector<NameId> rule_inputs, rule_states;
    PagePrograms& progs = t.programs;
    // Keeps a compiled program, or the first compile error as status_.
    auto keep = [&](StatusOr<std::shared_ptr<const fobc::Program>> prog,
                    std::vector<std::shared_ptr<const fobc::Program>>* out) {
      if (!prog.ok() && status_.ok()) status_ = prog.status();
      out->push_back(prog.ok() ? std::move(prog).value() : nullptr);
    };
    for (const InputRule& r : page.input_rules) {
      keep(fobc::GetOrCompileQuery(r.body, r.head_vars), &progs.input);
      rule_inputs.push_back(InternName(r.input));
    }
    for (const StateRule& r : page.state_rules) {
      keep(fobc::GetOrCompileQuery(r.body, r.head_vars), &progs.state);
      rule_states.push_back(InternName(r.state));
    }
    for (const ActionRule& r : page.action_rules) {
      keep(fobc::GetOrCompileQuery(r.body, r.head_vars), &progs.action);
      t.action_rule_relation.push_back(InternName(r.action));
    }
    for (const TargetRule& r : page.target_rules) {
      keep(fobc::GetOrCompileBool(r.body), &progs.target);
      t.target_rule_page.push_back(InternName(r.target));
    }
    t.option_relations = SlotsInNameOrder(rule_inputs, &t.input_rule_slot);
    t.updated_states = SlotsInNameOrder(rule_states, &t.state_rule_slot);
    auto collect = [&](const FormulaPtr& body, RuleConstants::Kind kind,
                       size_t rule) {
      for (Value v : body->Literals()) rule_literals_.AddDomainValue(v);
      RuleConstants entry{kind, rule, {}};
      for (const std::string& c : body->ConstantSymbols()) {
        if (service_->vocab().IsInputConstant(c)) {
          entry.constants.push_back(InternName(c));
        }
      }
      if (!entry.constants.empty()) {
        t.rule_constants.push_back(std::move(entry));
      }
    };
    using Kind = RuleConstants::Kind;
    for (size_t i = 0; i < page.input_rules.size(); ++i) {
      collect(page.input_rules[i].body, Kind::kInput, i);
    }
    for (size_t i = 0; i < page.state_rules.size(); ++i) {
      collect(page.state_rules[i].body, Kind::kState, i);
    }
    for (size_t i = 0; i < page.action_rules.size(); ++i) {
      collect(page.action_rules[i].body, Kind::kAction, i);
    }
    for (size_t i = 0; i < page.target_rules.size(); ++i) {
      collect(page.target_rules[i].body, Kind::kTarget, i);
    }
  }
  empty_state_ = EmptyInstanceOfKind(*service_, SymbolKind::kState, {});
  empty_inputs_ = EmptyInstanceOfKind(*service_, SymbolKind::kInput, {});
  empty_actions_ = EmptyInstanceOfKind(*service_, SymbolKind::kAction, {});
  empty_prev_ = empty_inputs_;
}

const PageSchema* Stepper::FindPage(NameId page) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].name == page) return &service_->pages()[i];
  }
  return nullptr;
}

void Stepper::SetTrackedPrev(std::set<std::string> tracked_prev) {
  tracked_prev_ = std::move(tracked_prev);
  empty_prev_ =
      EmptyInstanceOfKind(*service_, SymbolKind::kInput, tracked_prev_);
}

std::set<std::string> Stepper::PrevRelationsInRules(
    const WebService& service) {
  std::set<std::string> out;
  auto collect = [&](const FormulaPtr& body) {
    for (const Atom& atom : body->Atoms()) {
      if (atom.prev) out.insert(atom.relation);
    }
  };
  for (const PageSchema& page : service.pages()) {
    for (const InputRule& r : page.input_rules) collect(r.body);
    for (const StateRule& r : page.state_rules) collect(r.body);
    for (const ActionRule& r : page.action_rules) collect(r.body);
    for (const TargetRule& r : page.target_rules) collect(r.body);
  }
  return out;
}

Config Stepper::InitialConfig() const { return InitialView().Materialize(); }

ConfigView Stepper::InitialView() const {
  return ConfigView(&service_->home_page(), &empty_state_, &empty_prev_,
                    &empty_actions_, &empty_kappa_);
}

EvalContext Stepper::MakeContext(const ConfigView& node, const Kappa& kappa,
                                 const Instance* current_inputs,
                                 ProbeLog* probes) const {
  EvalContext ctx;
  if (current_inputs != nullptr) ctx.AddLayer(current_inputs);
  ctx.AddLayer(node.state);
  ctx.AddLayer(node.database != nullptr ? &node.database->facts()
                                        : database_);
  ctx.SetProbeLog(probes);
  ctx.SetPrevLayer(node.prev_inputs);
  ctx.AddLayer(&rule_literals_);
  ctx.SetConstantLayer(&kappa);
  return ctx;
}

std::optional<std::string> Stepper::StaticError(const ConfigView& node) const {
  if (*node.page == service_->error_page()) return std::nullopt;
  const PageSchema* page = service_->FindPage(*node.page);
  if (page == nullptr) return "unknown page " + *node.page;
  return StaticError(node, *page);
}

std::optional<std::string> Stepper::StaticError(const ConfigView& node,
                                                const PageSchema& page) const {
  const Kappa& provided = *node.kappa;
  const PageTables& tables = TablesOf(page);

  // Condition (ii): the page requests a constant already provided.
  for (NameId c : tables.input_constants) {
    if (provided.Contains(c)) {
      return "input constant '" + NameOf(c) +
             "' requested again (condition ii)";
    }
  }

  // Condition (i): some rule formula uses an input constant outside
  // kappa_i = provided ∪ requested-now. The message is built only here,
  // on the failing branch.
  for (const RuleConstants& entry : tables.rule_constants) {
    for (NameId c : entry.constants) {
      if (provided.Contains(c) ||
          std::find(tables.input_constants.begin(),
                    tables.input_constants.end(),
                    c) != tables.input_constants.end()) {
        continue;
      }
      std::string rule;
      switch (entry.kind) {
        case RuleConstants::Kind::kInput:
          rule = page.input_rules[entry.rule].ToString();
          break;
        case RuleConstants::Kind::kState:
          rule = page.state_rules[entry.rule].ToString();
          break;
        case RuleConstants::Kind::kAction:
          rule = page.action_rules[entry.rule].ToString();
          break;
        case RuleConstants::Kind::kTarget:
          rule = page.target_rules[entry.rule].ToString();
          break;
      }
      return "rule [" + rule + "] uses input constant '" + NameOf(c) +
             "' before it was provided (condition i)";
    }
  }
  return std::nullopt;
}

StatusOr<std::map<std::string, std::set<Tuple>>> Stepper::ComputeOptions(
    const ConfigView& node,
    const std::map<std::string, Value>& new_constants) const {
  Kappa kappa = *node.kappa;
  for (const auto& [name, v] : new_constants) kappa.Set(InternName(name), v);
  return OptionsUnder(node, kappa);
}

StatusOr<std::map<std::string, std::set<Tuple>>> Stepper::OptionsUnder(
    const ConfigView& node, const Kappa& kappa) const {
  const PageSchema* page = service_->FindPage(*node.page);
  if (page == nullptr) {
    return Status::NotFound("unknown page " + *node.page);
  }
  WSV_ASSIGN_OR_RETURN(InputOptions options,
                       OptionsOn(node, *page, kappa));
  std::map<std::string, std::set<Tuple>> out;
  for (const auto& [rel, rows] : options) {
    std::set<Tuple>& tuples = out[NameOf(rel)];
    for (Row t : rows.rows()) tuples.emplace(t.begin(), t.end());
  }
  return out;
}

StatusOr<InputOptions> Stepper::OptionsOn(const ConfigView& node,
                                          const PageSchema& page,
                                          const Kappa& kappa,
                                          ProbeLog* probes) const {
  if (!status_.ok()) return status_;
  EvalContext ctx =
      MakeContext(node, kappa, /*current_inputs=*/nullptr, probes);
  const PageTables& tables = TablesOf(page);
  InputOptions options;
  options.reserve(tables.option_relations.size());
  for (NameId rel : tables.option_relations) {
    options.emplace_back(rel, Relation());
  }
  for (size_t i = 0; i < page.input_rules.size(); ++i) {
    WSV_ASSIGN_OR_RETURN(Relation tuples,
                         fobc::ExecuteQuery(*tables.programs.input[i], ctx));
    options[tables.input_rule_slot[i]].second = std::move(tuples);
  }
  return options;
}

Successor Stepper::ErrorPageLoop(const ConfigView& node) const {
  Successor out;
  out.page = node.page;
  out.page_id = error_page_id_;
  out.state = Part::Source(node.state);
  out.prev_inputs = Part::Prototype(&empty_prev_);
  out.actions = Part::Prototype(&empty_actions_);
  out.kappa = node.kappa;
  out.database = node.database;
  out.inputs = Part::Prototype(&empty_inputs_);
  return out;
}

Successor Stepper::ToErrorPage(const ConfigView& node, const Kappa* kappa,
                               std::string reason) const {
  Successor out;
  out.to_error = true;
  out.error_reason = std::move(reason);
  out.page = &service_->error_page();
  out.page_id = error_page_id_;
  out.state = Part::Source(node.state);  // carried unchanged
  out.prev_inputs = Part::Prototype(&empty_prev_);
  out.actions = Part::Prototype(&empty_actions_);
  out.kappa = kappa;
  out.database = node.database;
  out.inputs = Part::Prototype(&empty_inputs_);
  return out;
}

StepOutcome Stepper::WithTrace(const Config& config, Successor succ) {
  StepOutcome out;
  out.trace.page = config.page;
  out.trace.state = config.state;
  out.trace.inputs = succ.inputs.Release();
  out.trace.prev_inputs = config.prev_inputs;
  out.trace.actions = config.actions;
  // kappa_i is the successor's accumulated interpretation.
  out.trace.kappa = *succ.kappa;
  out.next.page = *succ.page;
  out.next.state = succ.state.Release();
  out.next.prev_inputs = succ.prev_inputs.Release();
  out.next.actions = succ.actions.Release();
  out.next.provided_constants = *succ.kappa;
  out.to_error = succ.to_error;
  out.error_reason = std::move(succ.error_reason);
  return out;
}

StatusOr<StepOutcome> Stepper::Step(const Config& config,
                                    const UserChoice& choice) const {
  // The error page loops forever with no inputs and no rules.
  if (config.page == service_->error_page()) {
    return WithTrace(config, ErrorPageLoop(config));
  }

  const PageSchema* page = service_->FindPage(config.page);
  if (page == nullptr) {
    return Status::NotFound("unknown page " + config.page);
  }

  // Node-level error conditions (i) and (ii): the step consumes no input.
  if (std::optional<std::string> err = StaticError(config)) {
    return WithTrace(config, ToErrorPage(config, &config.provided_constants,
                                         std::move(*err)));
  }

  // Validate the constant choices.
  for (const auto& [name, v] : choice.constant_values) {
    if (!page->HasInputConstant(name)) {
      return Status::InvalidArgument("page " + page->name +
                                     " does not request input constant " +
                                     name);
    }
    (void)v;
  }
  Kappa kappa = config.provided_constants;
  for (const std::string& c : page->input_constants) {
    auto it = choice.constant_values.find(c);
    if (it == choice.constant_values.end()) {
      return Status::InvalidArgument("no value provided for input constant " +
                                     c);
    }
    kappa.Set(InternName(c), it->second);
  }

  // Validate the relation picks against the options and the
  // propositions against the page.
  WSV_ASSIGN_OR_RETURN(auto options, OptionsUnder(config, kappa));
  for (const auto& [rel, pick] : choice.relation_choices) {
    if (!page->HasInputRelation(rel)) {
      return Status::InvalidArgument("page " + page->name +
                                     " does not offer input relation " + rel);
    }
    if (!pick.has_value()) continue;
    auto it = options.find(rel);
    if (it == options.end() || it->second.count(*pick) == 0) {
      return Status::InvalidArgument("chosen tuple " + TupleToString(*pick) +
                                     " is not among the options for " + rel);
    }
  }
  for (const auto& [prop, truth] : choice.proposition_choices) {
    const RelationSymbol* sym = service_->vocab().FindRelation(prop);
    if (sym == nullptr || sym->kind != SymbolKind::kInput ||
        sym->arity != 0 || !page->HasInputRelation(prop)) {
      return Status::InvalidArgument(
          "page " + page->name + " does not offer propositional input " +
          prop);
    }
    (void)truth;
  }

  WSV_ASSIGN_OR_RETURN(Successor succ,
                       ApplyChoice(config, *page, &kappa, choice));
  return WithTrace(config, std::move(succ));
}

namespace {

// Whether `rel` holds every row of `sub`.
bool ContainsAll(const Relation& rel, const Relation& sub) {
  for (Row t : sub.rows()) {
    if (!rel.Contains(t)) return false;
  }
  return true;
}

// Three-way row comparison, in row order.
int CompareRows(Row a, Row b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// The state update of one relation, S' = (ins \ del) ∪ (S ∩ ins ∩ del) ∪
// (S \ (ins ∪ del)): a row of ins survives unless it is also deleted and
// not in S (insert+delete conflicts no-op); a row of S survives unless
// exactly one of ins and del holds it. One merge over the sorted rows of
// S and ins, so `out` is built by appending.
void UpdateRelation(const Relation& old, const Relation& ins,
                    const Relation& del, Relation* out) {
  const Relation::Rows s = old.rows();
  const Relation::Rows i = ins.rows();
  size_t si = 0;
  size_t ii = 0;
  while (si < s.size() || ii < i.size()) {
    const int cmp = si == s.size()   ? 1
                    : ii == i.size() ? -1
                                     : CompareRows(s[si], i[ii]);
    const Row t = cmp <= 0 ? s[si] : i[ii];
    const bool in_old = cmp <= 0;
    const bool in_ins = cmp >= 0;
    if (cmp <= 0) ++si;
    if (cmp >= 0) ++ii;
    const bool in_del = !del.empty() && del.Contains(t);
    if ((in_ins && !in_del) || (in_old && in_ins == in_del)) out->Append(t);
  }
}

}  // namespace

// Each part is built only where the step changes it; otherwise the
// successor reuses the source node's instance or an empty prototype.
// Reuse yields exactly the instance a fresh build would: every tuple
// enters a state, prev or action relation through a build below, which
// adds the tuple's values to that instance's domain, so an instance
// whose relations a build would leave unchanged gains nothing from it
// either (DESIGN.md §6h).
StatusOr<Successor> Stepper::ApplyChoice(const ConfigView& node,
                                         const PageSchema& page,
                                         const Kappa* kappa,
                                         const UserChoice& choice) const {
  ResolvedChoice resolved;
  for (const auto& [rel, pick] : choice.relation_choices) {
    CountNameLookup();
    resolved.relations.emplace_back(
        InternName(rel),
        pick.has_value() ? std::optional<Row>(*pick) : std::nullopt);
  }
  for (const auto& [prop, truth] : choice.proposition_choices) {
    CountNameLookup();
    resolved.propositions.emplace_back(InternName(prop), truth);
  }
  return ApplyChoice(node, page, kappa, resolved);
}

StatusOr<Successor> Stepper::ApplyChoice(const ConfigView& node,
                                         const PageSchema& page,
                                         const Kappa* kappa,
                                         const ResolvedChoice& choice,
                                         ProbeLog* probes) const {
  if (!status_.ok()) return status_;
  const PageTables& tables = TablesOf(page);
  Successor out;
  out.database = node.database;
  // Assemble the input instance I_i; it is the empty prototype unless
  // something is picked, some proposition is true, or the page records a
  // constant in it.
  bool any_input = !tables.input_constants.empty();
  for (const auto& [rel, pick] : choice.relations) {
    any_input = any_input || pick.has_value();
  }
  for (const auto& [prop, truth] : choice.propositions) {
    any_input = any_input || truth;
  }
  if (any_input) {
    Instance built = empty_inputs_;
    for (const auto& [rel, pick] : choice.relations) {
      if (!pick.has_value()) continue;
      built.MutableRelation(rel)->Insert(*pick);
      built.AddDomainValues(*pick);
    }
    for (const auto& [prop, truth] : choice.propositions) {
      built.MutableRelation(prop)->SetBool(truth);
    }
    // Record the constants provided at this step in I_i for the trace.
    for (NameId c : tables.input_constants) {
      built.SetConstant(c, *kappa->Find(c));
    }
    out.inputs = Part::Built(std::move(built));
  } else {
    out.inputs = Part::Prototype(&empty_inputs_);
  }
  const Instance& inputs = out.inputs.get();

  EvalContext ctx = MakeContext(node, *kappa, &inputs, probes);
  const PagePrograms& progs = tables.programs;

  // Target rules; condition (iii) fires on ambiguity. Every rule is
  // evaluated; the first two that fire are kept.
  size_t num_fired = 0;
  std::array<size_t, 2> fired_rules{};
  for (size_t i = 0; i < page.target_rules.size(); ++i) {
    WSV_ASSIGN_OR_RETURN(bool fired, fobc::Execute(*progs.target[i], ctx));
    if (fired && num_fired++ < fired_rules.size()) {
      fired_rules[num_fired - 1] = i;
    }
  }
  if (num_fired > 1) {
    return ToErrorPage(node, kappa,
                       "ambiguous targets: " +
                           page.target_rules[fired_rules[0]].target + " and " +
                           page.target_rules[fired_rules[1]].target +
                           " (condition iii)");
  }

  if (num_fired == 0) {
    out.page = node.page;
    out.page_id = tables.name;
  } else {
    out.page = &page.target_rules[fired_rules[0]].target;
    out.page_id = tables.target_rule_page[fired_rules[0]];
  }
  out.kappa = kappa;

  // State update (UpdateRelation) per state relation with rules on this
  // page; others carry unchanged. The source state is copied only once
  // some relation actually changes. The (ins, del) pairs live in a
  // per-thread buffer that keeps its capacity across steps.
  thread_local std::vector<std::pair<Relation, Relation>> updates;
  updates.assign(tables.updated_states.size(), {});
  for (size_t i = 0; i < page.state_rules.size(); ++i) {
    const StateRule& rule = page.state_rules[i];
    WSV_ASSIGN_OR_RETURN(Relation tuples,
                         fobc::ExecuteQuery(*progs.state[i], ctx));
    auto& [ins, del] = updates[tables.state_rule_slot[i]];
    (rule.insert ? ins : del) = std::move(tuples);
  }
  Instance state;
  bool state_changed = false;
  for (size_t k = 0; k < updates.size(); ++k) {
    const NameId state_name = tables.updated_states[k];
    const auto& [ins, del] = updates[k];
    const Relation* old = node.state->FindRelation(state_name);
    if (old == nullptr) continue;  // every state relation is materialized
    Relation updated(old->arity());
    UpdateRelation(*old, ins, del, &updated);
    if (updated == *old) continue;
    if (!state_changed) {
      state = *node.state;
      state_changed = true;
    }
    // Track new values in the state's domain.
    for (Row t : updated.rows()) state.AddDomainValues(t);
    *state.MutableRelation(state_name) = std::move(updated);
  }
  out.state = state_changed ? Part::Built(std::move(state))
                            : Part::Source(node.state);

  // Actions triggered at step i land in A_{i+1}.
  Instance actions;
  bool any_action = false;
  for (size_t i = 0; i < page.action_rules.size(); ++i) {
    WSV_ASSIGN_OR_RETURN(Relation tuples,
                         fobc::ExecuteQuery(*progs.action[i], ctx));
    if (tuples.empty()) continue;
    if (!any_action) {
      actions = empty_actions_;
      any_action = true;
    }
    Relation* rel = actions.MutableRelation(tables.action_rule_relation[i]);
    for (Row t : tuples.rows()) {
      rel->Insert(t);
      actions.AddDomainValues(t);
    }
  }
  out.actions = any_action ? Part::Built(std::move(actions))
                           : Part::Prototype(&empty_actions_);

  // P_{i+1}(prev_I) = I_i(I) for I offered by this page, empty otherwise.
  // Under lossless-input semantics (Theorem 3.9's extension (iii)),
  // prev_I instead accumulates every input ever given to I.
  const Instance& prev_base = lossless_input_ ? *node.prev_inputs : empty_prev_;
  Instance prev;
  bool prev_changed = false;
  for (NameId in : tables.inputs) {
    const Relation* cur = inputs.FindRelation(in);
    const Relation* before = prev_base.FindRelation(in);
    if (cur == nullptr || before == nullptr) continue;  // untracked Prev_I
    if (lossless_input_ ? ContainsAll(*before, *cur) : *cur == *before) {
      continue;
    }
    if (!prev_changed) {
      prev = prev_base;
      prev_changed = true;
    }
    Relation* rel = prev.MutableRelation(in);
    if (lossless_input_) {
      for (Row t : cur->rows()) rel->Insert(t);
    } else {
      *rel = *cur;
    }
    for (Row t : cur->rows()) prev.AddDomainValues(t);
  }
  if (prev_changed) {
    out.prev_inputs = Part::Built(std::move(prev));
  } else {
    out.prev_inputs = lossless_input_ ? Part::Source(node.prev_inputs)
                                      : Part::Prototype(&empty_prev_);
  }
  return out;
}

}  // namespace wsv
