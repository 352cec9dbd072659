#include "analysis/depgraph.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>

#include "common/str_util.h"
#include "fo/plan.h"
#include "fo/rewrite.h"
#include "obs/metrics.h"

namespace wsv {
namespace analysis {

namespace {

// ---------------------------------------------------------------------------
// Domain-independence analysis.
//
// The FO evaluator's quantifier fallback enumerates the *active domain*
// (every value in any instance of the current configuration), so a
// quantified formula can observe relations it never names. Slicing
// removes content from exactly those relations; a formula whose truth
// may depend on them cannot be sliced against. The syntactic criterion
// below implies semantic domain independence: truth is identical over
// any two active domains that both contain the named relations'
// contents, the formula's literals/constants, and the free-variable
// bindings.
// ---------------------------------------------------------------------------

bool CheckDomainIndependent(const Formula& f);

// An equality conjunct pins `var` when the other side's value is
// available without consulting the domain: a literal or a declared
// constant symbol.
bool EqualityPins(const Formula& eq, const std::string& var) {
  if (eq.kind() != Formula::Kind::kEquals) return false;
  const Term& l = eq.lhs();
  const Term& r = eq.rhs();
  auto pins = [&](const Term& v, const Term& t) {
    return v.is_variable() && v.name() == var &&
           (t.is_literal() || t.is_constant_symbol());
  };
  return pins(l, r) || pins(r, l);
}

// ∃vars.body (body in NNF): every var must be bound by a top-level
// positive atom conjunct or pinned by an equality, in every disjunct
// (∃ distributes over ∨). Conjuncts are then checked recursively.
bool ExistsDomainIndependent(const std::vector<std::string>& vars,
                             const Formula& body) {
  if (body.kind() == Formula::Kind::kOr) {
    for (const FormulaPtr& d : body.children()) {
      if (!ExistsDomainIndependent(vars, *d)) return false;
    }
    return true;
  }
  std::vector<const Formula*> conjuncts;
  FlattenAnd(body, &conjuncts);
  for (const std::string& var : vars) {
    bool bound = false;
    for (const Formula* c : conjuncts) {
      if (c->kind() == Formula::Kind::kAtom) {
        for (const Term& t : c->atom().terms) {
          if (t.is_variable() && t.name() == var) {
            bound = true;
            break;
          }
        }
      } else if (EqualityPins(*c, var)) {
        bound = true;
      }
      if (bound) break;
    }
    if (!bound) return false;
  }
  for (const Formula* c : conjuncts) {
    if (!CheckDomainIndependent(*c)) return false;
  }
  return true;
}

bool CheckDomainIndependent(const Formula& f) {
  switch (f.kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
    case Formula::Kind::kAtom:
    case Formula::Kind::kEquals:
      return true;
    case Formula::Kind::kNot:
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr: {
      for (const FormulaPtr& c : f.children()) {
        if (!CheckDomainIndependent(*c)) return false;
      }
      return true;
    }
    case Formula::Kind::kExists:
      return ExistsDomainIndependent(f.variables(), *f.children().front());
    case Formula::Kind::kForall: {
      // The evaluator computes ∀x.φ as ¬∃x.(¬φ in NNF); analyze the
      // same rewritten body it will actually enumerate.
      FormulaPtr neg = ToNNF(*Formula::Not(f.children().front()));
      return ExistsDomainIndependent(f.variables(), *neg);
    }
  }
  return false;
}

std::string RuleKindTag(DepNode::RuleKind kind) {
  switch (kind) {
    case DepNode::RuleKind::kOptions:
      return "options";
    case DepNode::RuleKind::kState:
      return "state";
    case DepNode::RuleKind::kAction:
      return "action";
    case DepNode::RuleKind::kTarget:
      return "target";
    case DepNode::RuleKind::kNone:
      break;
  }
  return "none";
}

std::string SymbolKindTag(SymbolKind kind) {
  switch (kind) {
    case SymbolKind::kDatabase:
      return "database";
    case SymbolKind::kState:
      return "state";
    case SymbolKind::kInput:
      return "input";
    case SymbolKind::kAction:
      return "action";
    case SymbolKind::kPage:
      return "page";
  }
  return "unknown";
}

}  // namespace

bool IsDomainIndependent(const Formula& f) {
  // Normalize once so negations sit directly on atoms/equalities and
  // the conjunct scan above sees through double negations.
  return CheckDomainIndependent(*ToNNF(f));
}

DepGraph DepGraph::Build(const WebService& service) {
  DepGraph g;
  g.service_ = &service;

  std::map<std::string, int> rel_id;
  std::map<std::string, int> const_id;

  for (const RelationSymbol& sym : service.vocab().relations()) {
    DepNode node;
    node.kind = DepNodeKind::kRelation;
    node.symbol_kind = sym.kind;
    node.name = sym.name;
    node.span = sym.span;
    rel_id[sym.name] = static_cast<int>(g.nodes_.size());
    g.nodes_.push_back(std::move(node));
  }
  for (const std::string& c : service.vocab().constants()) {
    DepNode node;
    node.kind = DepNodeKind::kConstant;
    node.name = c;
    node.span = service.vocab().ConstantSpan(c);
    const_id[c] = static_cast<int>(g.nodes_.size());
    g.nodes_.push_back(std::move(node));
  }

  auto add_edge = [&](int from, int to) {
    if (from < 0 || to < 0 || from == to) return;
    g.nodes_[from].reads.push_back(to);
    g.nodes_[to].readers.push_back(from);
  };
  auto find_rel = [&](const std::string& name) {
    auto it = rel_id.find(name);
    return it == rel_id.end() ? -1 : it->second;
  };

  auto add_rule = [&](const std::string& page_name, DepNode::RuleKind kind,
                      int index, const std::string& label,
                      const std::string& head, const Formula& body,
                      Span span) {
    DepNode node;
    node.kind = DepNodeKind::kRule;
    node.rule_kind = kind;
    node.rule_index = index;
    node.name = label;
    node.page = page_name;
    node.head = head;
    node.span = span;
    node.domain_independent = IsDomainIndependent(body);
    int id = static_cast<int>(g.nodes_.size());
    g.nodes_.push_back(std::move(node));
    // A rule fires only while the run sits on its page.
    add_edge(id, find_rel(page_name));
    for (const std::string& rel : body.RelationNames()) {
      add_edge(id, find_rel(rel));
    }
    for (const std::string& c : body.ConstantSymbols()) {
      auto it = const_id.find(c);
      if (it != const_id.end()) add_edge(id, it->second);
    }
    return id;
  };

  for (const PageSchema& page : service.pages()) {
    for (size_t i = 0; i < page.input_rules.size(); ++i) {
      const InputRule& r = page.input_rules[i];
      int id = add_rule(page.name, DepNode::RuleKind::kOptions,
                        static_cast<int>(i),
                        page.name + "/options:" + r.input, r.input, *r.body,
                        r.span);
      add_edge(find_rel(r.input), id);
    }
    for (size_t i = 0; i < page.state_rules.size(); ++i) {
      const StateRule& r = page.state_rules[i];
      int id = add_rule(page.name, DepNode::RuleKind::kState,
                        static_cast<int>(i),
                        page.name + "/" + (r.insert ? "+" : "-") + r.state,
                        r.state, *r.body, r.span);
      add_edge(find_rel(r.state), id);
    }
    for (size_t i = 0; i < page.action_rules.size(); ++i) {
      const ActionRule& r = page.action_rules[i];
      int id = add_rule(page.name, DepNode::RuleKind::kAction,
                        static_cast<int>(i),
                        page.name + "/action:" + r.action, r.action, *r.body,
                        r.span);
      add_edge(find_rel(r.action), id);
    }
    for (size_t i = 0; i < page.target_rules.size(); ++i) {
      const TargetRule& r = page.target_rules[i];
      int id = add_rule(page.name, DepNode::RuleKind::kTarget,
                        static_cast<int>(i),
                        page.name + "/target:" + r.target, "", *r.body,
                        r.span);
      // Which page the run reaches depends on the targets leading there.
      add_edge(find_rel(r.target), id);
    }
  }

  // Dedupe adjacency lists and settle the edge count.
  g.num_edges_ = 0;
  for (DepNode& node : g.nodes_) {
    auto dedupe = [](std::vector<int>* v) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    };
    dedupe(&node.reads);
    dedupe(&node.readers);
    g.num_edges_ += node.reads.size();
  }
  WSV_COUNT("depgraph/nodes", g.nodes_.size());
  WSV_COUNT("depgraph/edges", g.num_edges_);
  return g;
}

int DepGraph::FindRelation(const std::string& name) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == DepNodeKind::kRelation && nodes_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int DepGraph::FindConstant(const std::string& name) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == DepNodeKind::kConstant && nodes_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

namespace {

std::vector<char> Closure(const std::vector<DepNode>& nodes,
                          const std::vector<int>& seeds,
                          std::vector<int> DepNode::*edges) {
  std::vector<char> reached(nodes.size(), 0);
  std::deque<int> queue;
  for (int s : seeds) {
    if (s >= 0 && s < static_cast<int>(nodes.size()) && !reached[s]) {
      reached[s] = 1;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    int n = queue.front();
    queue.pop_front();
    for (int next : nodes[n].*edges) {
      if (!reached[next]) {
        reached[next] = 1;
        queue.push_back(next);
      }
    }
  }
  return reached;
}

}  // namespace

std::vector<char> DepGraph::BackwardCone(const std::vector<int>& seeds) const {
  return Closure(nodes_, seeds, &DepNode::reads);
}

std::vector<char> DepGraph::ForwardReach(const std::vector<int>& seeds) const {
  return Closure(nodes_, seeds, &DepNode::readers);
}

std::vector<int> DepGraph::PropertySeeds(
    const TemporalProperty& property) const {
  std::set<int> seeds;
  for (const FormulaPtr& leaf : property.formula->FoLeaves()) {
    for (const std::string& rel : leaf->RelationNames()) {
      int id = FindRelation(rel);
      if (id >= 0) seeds.insert(id);
    }
    for (const std::string& c : leaf->ConstantSymbols()) {
      int id = FindConstant(c);
      if (id >= 0) seeds.insert(id);
    }
  }
  return std::vector<int>(seeds.begin(), seeds.end());
}

std::vector<int> DepGraph::TargetSeeds() const {
  std::vector<int> seeds;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].rule_kind == DepNode::RuleKind::kTarget) {
      seeds.push_back(static_cast<int>(i));
    }
  }
  return seeds;
}

bool DepGraph::PropertyDomainIndependent(
    const TemporalProperty& property) const {
  for (const FormulaPtr& leaf : property.formula->FoLeaves()) {
    if (!IsDomainIndependent(*leaf)) return false;
  }
  return true;
}

std::string DepGraph::ToDot(const std::vector<char>& in_cone) const {
  std::ostringstream out;
  out << "digraph deps {\n";
  out << "  rankdir=LR;\n";
  out << "  // edge A -> B: A depends on (reads) B\n";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const DepNode& n = nodes_[i];
    const char* shape = "ellipse";
    if (n.kind == DepNodeKind::kConstant) shape = "diamond";
    if (n.kind == DepNodeKind::kRule) shape = "box";
    if (n.kind == DepNodeKind::kRelation && n.symbol_kind == SymbolKind::kPage)
      shape = "house";
    bool cone = i < in_cone.size() && in_cone[i];
    out << "  n" << i << " [label=\"" << n.name << "\", shape=" << shape;
    if (cone) out << ", style=filled, fillcolor=lightgoldenrod";
    out << "];\n";
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (int to : nodes_[i].reads) {
      out << "  n" << i << " -> n" << to << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

std::string DepGraph::ToJson(const std::vector<char>& in_cone) const {
  std::string out;
  out += "{\n  \"service\": \"";
  AppendJsonEscaped(service_->name(), &out);
  out += "\",\n  \"nodes\": [\n";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const DepNode& n = nodes_[i];
    out += "    {\"id\": " + std::to_string(i) + ", \"kind\": \"";
    switch (n.kind) {
      case DepNodeKind::kRelation:
        out += "relation";
        break;
      case DepNodeKind::kConstant:
        out += "constant";
        break;
      case DepNodeKind::kRule:
        out += "rule";
        break;
    }
    out += "\", \"name\": \"";
    AppendJsonEscaped(n.name, &out);
    out += "\"";
    if (n.kind == DepNodeKind::kRelation) {
      out += ", \"symbol_kind\": \"" + SymbolKindTag(n.symbol_kind) + "\"";
    }
    if (n.kind == DepNodeKind::kRule) {
      out += ", \"rule_kind\": \"" + RuleKindTag(n.rule_kind) + "\"";
      out += ", \"page\": \"";
      AppendJsonEscaped(n.page, &out);
      out += "\"";
      out += n.domain_independent ? ", \"domain_independent\": true"
                                  : ", \"domain_independent\": false";
    }
    if (n.span.IsValid()) {
      out += ", \"span\": {\"line\": " + std::to_string(n.span.line) +
             ", \"column\": " + std::to_string(n.span.column) + "}";
    } else {
      out += ", \"span\": null";
    }
    if (!in_cone.empty()) {
      out += (i < in_cone.size() && in_cone[i]) ? ", \"in_cone\": true"
                                                : ", \"in_cone\": false";
    }
    out += "}";
    if (i + 1 < nodes_.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n  \"edges\": [\n";
  bool first = true;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (int to : nodes_[i].reads) {
      if (!first) out += ",\n";
      first = false;
      out += "    {\"from\": " + std::to_string(i) +
             ", \"to\": " + std::to_string(to) + "}";
    }
  }
  out += "\n  ],\n  \"summary\": {\"nodes\": " + std::to_string(nodes_.size()) +
         ", \"edges\": " + std::to_string(num_edges_);
  if (!in_cone.empty()) {
    uint64_t cone = 0;
    for (char c : in_cone) cone += c ? 1 : 0;
    out += ", \"cone_nodes\": " + std::to_string(cone);
  }
  out += "}\n}\n";
  return out;
}

}  // namespace analysis
}  // namespace wsv
