#include "analysis/slice.h"

#include <set>
#include <string>
#include <vector>

#include "analysis/depgraph.h"
#include "obs/metrics.h"

namespace wsv {
namespace analysis {

namespace {

// Input constants a rule body mentions; dropping a rule must not shrink
// the per-page set the stepper's static-error condition (i) scans.
std::set<std::string> BodyInputConstants(const Vocabulary& vocab,
                                         const Formula& body) {
  std::set<std::string> out;
  for (const std::string& c : body.ConstantSymbols()) {
    if (vocab.IsInputConstant(c)) out.insert(c);
  }
  return out;
}

}  // namespace

SliceResult SlicePropertyCone(const WebService& service,
                              const TemporalProperty& property) {
  SliceResult result;
  DepGraph graph = DepGraph::Build(service);

  // A domain-dependent property leaf can observe any relation through
  // the active domain — the cone is the whole spec.
  if (!graph.PropertyDomainIndependent(property)) {
    WSV_COUNT1("slice/domain_bailouts");
    return result;
  }

  std::vector<int> seeds = graph.PropertySeeds(property);
  std::vector<int> targets = graph.TargetSeeds();
  seeds.insert(seeds.end(), targets.begin(), targets.end());
  std::vector<char> cone = graph.BackwardCone(seeds);

  const std::vector<DepNode>& nodes = graph.nodes();
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!cone[i]) continue;
    // An in-cone rule with a domain-dependent body may read dropped
    // relations through the active domain; bail to the identity.
    if (nodes[i].kind == DepNodeKind::kRule && !nodes[i].domain_independent) {
      WSV_COUNT1("slice/domain_bailouts");
      return result;
    }
    if (nodes[i].kind == DepNodeKind::kRelation) ++result.cone_relations;
  }

  // Rule node lookup: (page, rule kind, index) -> in cone?
  auto rule_in_cone = [&](const std::string& page, DepNode::RuleKind kind,
                          int index) {
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].rule_kind == kind && nodes[i].rule_index == index &&
          nodes[i].page == page) {
        return cone[i] != 0;
      }
    }
    return true;  // unknown: keep (conservative)
  };
  auto input_in_cone = [&](const std::string& input) {
    int id = graph.FindRelation(input);
    return id < 0 || cone[id] != 0;
  };

  const Vocabulary& vocab = service.vocab();
  auto sliced = std::make_unique<WebService>();
  sliced->set_name(service.name());
  sliced->mutable_vocab() = vocab;

  for (const PageSchema& page : service.pages()) {
    PageSchema out;
    out.name = page.name;
    out.span = page.span;
    out.input_constants = page.input_constants;
    out.actions = page.actions;
    out.targets = page.targets;
    // All target rules are kept: the page sequence is always observable.
    out.target_rules = page.target_rules;

    for (const std::string& input : page.inputs) {
      if (input_in_cone(input)) {
        out.inputs.push_back(input);
      } else {
        ++result.inputs_dropped;
      }
    }

    // Keep a rule when its head is in the cone; collect the rest as
    // droppable, subject to input-constant coverage below.
    std::vector<const InputRule*> dropped_input_rules;
    std::vector<const StateRule*> dropped_state_rules;
    std::vector<const ActionRule*> dropped_action_rules;
    std::set<std::string> covered;  // input constants used by kept rules
    auto note_kept = [&](const Formula& body) {
      std::set<std::string> used = BodyInputConstants(vocab, body);
      covered.insert(used.begin(), used.end());
    };
    for (size_t i = 0; i < page.input_rules.size(); ++i) {
      const InputRule& r = page.input_rules[i];
      if (rule_in_cone(page.name, DepNode::RuleKind::kOptions,
                       static_cast<int>(i))) {
        out.input_rules.push_back(r);
        note_kept(*r.body);
      } else {
        dropped_input_rules.push_back(&r);
      }
    }
    for (size_t i = 0; i < page.state_rules.size(); ++i) {
      const StateRule& r = page.state_rules[i];
      if (rule_in_cone(page.name, DepNode::RuleKind::kState,
                       static_cast<int>(i))) {
        out.state_rules.push_back(r);
        note_kept(*r.body);
      } else {
        dropped_state_rules.push_back(&r);
      }
    }
    for (size_t i = 0; i < page.action_rules.size(); ++i) {
      const ActionRule& r = page.action_rules[i];
      if (rule_in_cone(page.name, DepNode::RuleKind::kAction,
                       static_cast<int>(i))) {
        out.action_rules.push_back(r);
        note_kept(*r.body);
      } else {
        dropped_action_rules.push_back(&r);
      }
    }
    for (const TargetRule& r : page.target_rules) note_kept(*r.body);

    // Static-error condition (i) scans *every* rule body on the page
    // for input constants used before provision; dropping a rule must
    // not shrink that set. Re-retain dropped rules until the kept set
    // covers the original one. Retained rules stay out of the cone —
    // their head content is unobservable — so this never pulls body
    // relations back in.
    auto needs_retain = [&](const Formula& body) {
      std::set<std::string> used = BodyInputConstants(vocab, body);
      for (const std::string& c : used) {
        if (covered.count(c) == 0) return true;
      }
      return false;
    };
    auto retain_pass = [&]() {
      bool retained = false;
      for (auto it = dropped_input_rules.begin();
           it != dropped_input_rules.end();) {
        if (needs_retain(*(*it)->body)) {
          out.input_rules.push_back(**it);
          note_kept(*(*it)->body);
          it = dropped_input_rules.erase(it);
          retained = true;
        } else {
          ++it;
        }
      }
      for (auto it = dropped_state_rules.begin();
           it != dropped_state_rules.end();) {
        if (needs_retain(*(*it)->body)) {
          out.state_rules.push_back(**it);
          note_kept(*(*it)->body);
          it = dropped_state_rules.erase(it);
          retained = true;
        } else {
          ++it;
        }
      }
      for (auto it = dropped_action_rules.begin();
           it != dropped_action_rules.end();) {
        if (needs_retain(*(*it)->body)) {
          out.action_rules.push_back(**it);
          note_kept(*(*it)->body);
          it = dropped_action_rules.erase(it);
          retained = true;
        } else {
          ++it;
        }
      }
      return retained;
    };
    while (retain_pass()) {
    }

    // A retained options rule for a dropped input feeds an offer that
    // no longer exists; the stepper still evaluates it (harmlessly) via
    // ComputeOptions, so nothing further to fix up.
    result.rules_dropped += dropped_input_rules.size() +
                            dropped_state_rules.size() +
                            dropped_action_rules.size();
    Status st = sliced->AddPage(std::move(out));
    (void)st;  // duplicate pages are impossible: copied from a valid service
  }
  sliced->set_home_page(service.home_page(), service.home_span());
  sliced->set_error_page(service.error_page(), service.error_span());

  for (const RelationSymbol& sym : vocab.relations()) {
    if (sym.kind != SymbolKind::kState && sym.kind != SymbolKind::kInput &&
        sym.kind != SymbolKind::kAction) {
      continue;
    }
    int id = graph.FindRelation(sym.name);
    if (id >= 0 && !cone[id]) ++result.relations_dropped;
  }

  if (result.rules_dropped == 0 && result.inputs_dropped == 0) {
    // Identity slice: hand the caller nothing so it runs the original
    // single-phase check.
    return SliceResult{nullptr, 0, 0, 0, result.cone_relations};
  }

  WSV_COUNT("slice/relations_dropped", result.relations_dropped);
  WSV_COUNT("slice/rules_dropped", result.rules_dropped);
  WSV_COUNT("slice/inputs_dropped", result.inputs_dropped);
  WSV_COUNT("slice/cone_size", result.cone_relations);
  WSV_COUNT1("slice/sliced");
  result.service = std::move(sliced);
  return result;
}

}  // namespace analysis
}  // namespace wsv
