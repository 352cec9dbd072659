#include "verify/abstraction.h"

#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "fo/rewrite.h"
#include "verify/db_enum.h"
#include "ws/classify.h"
#include "ws/validate.h"

namespace wsv {

namespace {

// The proposition set of one trace element.
std::set<std::string> TraceLabel(const TraceView& trace,
                                 const WebService& service) {
  std::set<std::string> label;
  label.insert(*trace.page);
  const Vocabulary& vocab = service.vocab();
  for (const RelationSymbol& sym : vocab.relations()) {
    switch (sym.kind) {
      case SymbolKind::kState: {
        const Relation* rel = trace.state->FindRelation(sym.name);
        if (rel != nullptr && rel->AsBool()) label.insert(sym.name);
        break;
      }
      case SymbolKind::kAction: {
        const Relation* rel = trace.actions->FindRelation(sym.name);
        if (rel != nullptr && rel->AsBool()) label.insert(sym.name);
        break;
      }
      case SymbolKind::kInput: {
        const Relation* rel = trace.inputs->FindRelation(sym.name);
        if (rel == nullptr || rel->empty()) break;
        if (sym.arity == 0) {
          label.insert(sym.name);
        } else {
          // Ground input atoms: one proposition per chosen tuple.
          for (Row t : rel->rows()) {
            Atom atom;
            atom.relation = sym.name;
            for (Value v : t) atom.terms.push_back(Term::Literal(v));
            label.insert(atom.ToString());
            // Also the bare relation name: "some tuple was input".
            label.insert(sym.name);
          }
        }
        break;
      }
      default:
        break;
    }
  }
  return label;
}

// Hash for label sets (ordered, so iteration order is canonical).
struct LabelSetHash {
  size_t operator()(const std::set<std::string>& names) const {
    return HashRange(names.begin(), names.end());
  }
};

}  // namespace

StatusOr<Kripke> BuildPropositionalKripke(const WebService& service,
                                          const Instance& database,
                                          const KripkeBuildOptions& options) {
  if (options.check_propositional) {
    WSV_RETURN_IF_ERROR(CheckPropositionalService(service));
  }

  Stepper stepper(&service, &database);
  WSV_RETURN_IF_ERROR(stepper.status());
  stepper.SetTrackedPrev(Stepper::PrevRelationsInRules(service));
  ConfigGraphOptions graph_options = options.graph;
  graph_options.constant_pool =
      InputConstantPool(options.graph.constant_pool, service, database, {},
                        /*typed_values=*/1);
  WSV_ASSIGN_OR_RETURN(ConfigGraph graph,
                       BuildConfigGraph(stepper, graph_options));
  if (graph.truncated) {
    return Status::ResourceExhausted(
        "configuration graph truncated while building the Kripke "
        "structure; raise the budgets");
  }

  Kripke kripke;
  // Map each config-graph edge to a Kripke state keyed by its label.
  std::unordered_map<std::set<std::string>, int, LabelSetHash> state_of_label;
  std::vector<int> edge_state(graph.edges.size());
  for (size_t e = 0; e < graph.edges.size(); ++e) {
    std::set<std::string> names =
        TraceLabel(graph.View(static_cast<int>(e)), service);
    std::set<int> label;
    for (const std::string& n : names) label.insert(kripke.InternProp(n));
    auto it = state_of_label.find(names);
    if (it == state_of_label.end()) {
      int s = kripke.AddState(std::move(label));
      it = state_of_label.emplace(std::move(names), s).first;
    }
    edge_state[e] = it->second;
  }
  // Edges between consecutive trace elements; initial states are the
  // labels of the first step.
  std::unordered_set<uint64_t> added;
  for (size_t e = 0; e < graph.edges.size(); ++e) {
    if (graph.edges[e].from == graph.initial) {
      kripke.SetInitial(edge_state[e]);
    }
    for (int e2 : graph.out_edges[graph.edges[e].to]) {
      if (added.insert(PackInts(edge_state[e], edge_state[e2])).second) {
        kripke.AddEdge(edge_state[e], edge_state[e2]);
      }
    }
  }
  WSV_RETURN_IF_ERROR(kripke.CheckTotal());
  return kripke;
}

StatusOr<Kripke> BuildUnmergedKripke(const WebService& service,
                                     const Instance& database,
                                     const KripkeBuildOptions& options) {
  Stepper stepper(&service, &database);
  WSV_RETURN_IF_ERROR(stepper.status());
  stepper.SetTrackedPrev(Stepper::PrevRelationsInRules(service));
  ConfigGraphOptions graph_options = options.graph;
  graph_options.constant_pool =
      InputConstantPool(options.graph.constant_pool, service, database, {},
                        /*typed_values=*/1);
  WSV_ASSIGN_OR_RETURN(ConfigGraph graph,
                       BuildConfigGraph(stepper, graph_options));
  if (graph.truncated) {
    return Status::ResourceExhausted(
        "configuration graph truncated while building the Kripke "
        "structure; raise the budgets");
  }
  Kripke kripke;
  for (size_t e = 0; e < graph.edges.size(); ++e) {
    std::set<std::string> names =
        TraceLabel(graph.View(static_cast<int>(e)), service);
    std::set<int> label;
    for (const std::string& n : names) label.insert(kripke.InternProp(n));
    int s = kripke.AddState(std::move(label));
    if (graph.edges[e].from == graph.initial) kripke.SetInitial(s);
  }
  for (size_t e = 0; e < graph.edges.size(); ++e) {
    for (int e2 : graph.out_edges[graph.edges[e].to]) {
      kripke.AddEdge(static_cast<int>(e), e2);
    }
  }
  WSV_RETURN_IF_ERROR(kripke.CheckTotal());
  return kripke;
}

namespace {

// Rewrites a formula: database/state/action atoms become propositions;
// input atoms and equalities stay; Prev_I atoms are rejected.
StatusOr<FormulaPtr> AbstractFo(const Formula& f, const Vocabulary& vocab) {
  switch (f.kind()) {
    case Formula::Kind::kTrue:
      return Formula::True();
    case Formula::Kind::kFalse:
      return Formula::False();
    case Formula::Kind::kEquals:
      return Formula::Equals(f.lhs(), f.rhs());
    case Formula::Kind::kAtom: {
      const Atom& atom = f.atom();
      if (atom.prev) {
        return Status::Unsupported(
            "cannot abstract Prev_I atom " + atom.ToString() +
            " (propositional services admit no Prev_I)");
      }
      const RelationSymbol* sym = vocab.FindRelation(atom.relation);
      if (sym != nullptr && sym->kind == SymbolKind::kInput) {
        return Formula::MakeAtom(atom);
      }
      return Formula::MakeAtom(atom.relation, {});
    }
    case Formula::Kind::kNot: {
      WSV_ASSIGN_OR_RETURN(FormulaPtr c, AbstractFo(*f.children()[0], vocab));
      return Formula::Not(std::move(c));
    }
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr: {
      std::vector<FormulaPtr> parts;
      for (const FormulaPtr& c : f.children()) {
        WSV_ASSIGN_OR_RETURN(FormulaPtr a, AbstractFo(*c, vocab));
        parts.push_back(std::move(a));
      }
      return f.kind() == Formula::Kind::kAnd ? Formula::And(std::move(parts))
                                             : Formula::Or(std::move(parts));
    }
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      WSV_ASSIGN_OR_RETURN(FormulaPtr body, AbstractFo(*f.body(), vocab));
      return f.kind() == Formula::Kind::kExists
                 ? Formula::Exists(f.variables(), std::move(body))
                 : Formula::Forall(f.variables(), std::move(body));
    }
  }
  return Status::Internal("bad formula kind");
}

// Collects top-level conjuncts that equate a variable with a ground term
// (produced by rule-head desugaring), for substitution before closing.
void GroundEqualities(const Formula& f,
                      std::map<std::string, Term>* subst) {
  if (f.kind() == Formula::Kind::kAnd) {
    for (const FormulaPtr& c : f.children()) GroundEqualities(*c, subst);
    return;
  }
  if (f.kind() != Formula::Kind::kEquals) return;
  const Term* var = nullptr;
  const Term* ground = nullptr;
  for (const Term* t : {&f.lhs(), &f.rhs()}) {
    if (t->is_variable()) {
      var = t;
    } else {
      ground = t;
    }
  }
  if (var != nullptr && ground != nullptr) {
    subst->emplace(var->name(), *ground);
  }
}

// Close the abstracted body over the former head variables that still
// occur free (they can only occur in input atoms / equalities now).
// Variables pinned by a ground equality conjunct are substituted away
// first, so e.g. the desugared +error("failed login") closes to a
// quantifier-free proposition rule.
StatusOr<FormulaPtr> AbstractRuleBody(const FormulaPtr& body,
                                      const std::vector<std::string>& head,
                                      const Vocabulary& vocab) {
  WSV_ASSIGN_OR_RETURN(FormulaPtr abs, AbstractFo(*body, vocab));
  std::map<std::string, Term> pinned;
  GroundEqualities(*abs, &pinned);
  std::map<std::string, Term> subst;
  for (const std::string& v : head) {
    auto it = pinned.find(v);
    if (it != pinned.end()) subst.emplace(v, it->second);
  }
  if (!subst.empty()) abs = Simplify(*Substitute(*abs, subst));
  std::set<std::string> free = abs->FreeVariables();
  std::vector<std::string> close;
  for (const std::string& v : head) {
    if (free.count(v) > 0) close.push_back(v);
  }
  return Formula::Exists(std::move(close), std::move(abs));
}

}  // namespace

StatusOr<WebService> AbstractToPropositional(const WebService& service) {
  const Vocabulary& vocab = service.vocab();
  WebService ws;
  ws.set_name(service.name() + "_abs");
  ws.set_home_page(service.home_page());
  ws.set_error_page(service.error_page());
  Vocabulary& nv = ws.mutable_vocab();
  for (const RelationSymbol& sym : vocab.relations()) {
    if (sym.kind == SymbolKind::kPage) continue;
    int arity = sym.kind == SymbolKind::kState ||
                        sym.kind == SymbolKind::kAction ||
                        sym.kind == SymbolKind::kDatabase
                    ? 0
                    : sym.arity;
    WSV_RETURN_IF_ERROR(nv.AddRelation(sym.name, arity, sym.kind));
  }
  for (const std::string& c : vocab.constants()) {
    WSV_RETURN_IF_ERROR(nv.AddConstant(c, vocab.IsInputConstant(c)));
  }

  for (const PageSchema& page : service.pages()) {
    PageSchema np;
    np.name = page.name;
    np.inputs = page.inputs;
    np.input_constants = page.input_constants;
    np.actions = page.actions;
    np.targets = page.targets;
    for (const InputRule& r : page.input_rules) {
      WSV_ASSIGN_OR_RETURN(FormulaPtr abs, AbstractFo(*r.body, vocab));
      np.input_rules.push_back(InputRule{r.input, r.head_vars, abs, Span{}});
    }
    for (const StateRule& r : page.state_rules) {
      WSV_ASSIGN_OR_RETURN(FormulaPtr body,
                           AbstractRuleBody(r.body, r.head_vars, vocab));
      np.state_rules.push_back(StateRule{r.state, r.insert, {}, body, Span{}});
    }
    for (const ActionRule& r : page.action_rules) {
      WSV_ASSIGN_OR_RETURN(FormulaPtr body,
                           AbstractRuleBody(r.body, r.head_vars, vocab));
      np.action_rules.push_back(ActionRule{r.action, {}, body, Span{}});
    }
    for (const TargetRule& r : page.target_rules) {
      WSV_ASSIGN_OR_RETURN(FormulaPtr body, AbstractFo(*r.body, vocab));
      np.target_rules.push_back(TargetRule{r.target, body, Span{}});
    }
    WSV_RETURN_IF_ERROR(ws.AddPage(std::move(np)));
  }
  for (const PageSchema& page : ws.pages()) {
    WSV_RETURN_IF_ERROR(nv.AddRelation(page.name, 0, SymbolKind::kPage));
  }
  WSV_RETURN_IF_ERROR(nv.AddRelation(ws.error_page(), 0, SymbolKind::kPage));
  WSV_RETURN_IF_ERROR(ValidateService(ws));
  return ws;
}

}  // namespace wsv
