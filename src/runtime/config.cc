#include "runtime/config.h"

namespace wsv {

namespace {

std::string ConstantsToString(const Kappa& consts) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : consts) {
    if (!first) out += ", ";
    first = false;
    out += name + "=" + v.name();
  }
  return out + "}";
}

}  // namespace

Config ConfigView::Materialize() const {
  Config c;
  c.page = *page;
  c.state = *state;
  c.prev_inputs = *prev_inputs;
  c.actions = *actions;
  c.provided_constants = *kappa;
  return c;
}

std::string Config::ToString() const {
  std::string out = "page " + page + "\n";
  out += "state:\n" + state.ToString();
  if (!prev_inputs.relations().empty()) {
    out += "prev:\n" + prev_inputs.ToString();
  }
  if (!actions.relations().empty()) {
    out += "actions:\n" + actions.ToString();
  }
  out += "kappa: " + ConstantsToString(provided_constants) + "\n";
  return out;
}

std::string UserChoice::ToString() const {
  std::string out;
  for (const auto& [name, v] : constant_values) {
    out += name + " := " + v.name() + "; ";
  }
  for (const auto& [rel, pick] : relation_choices) {
    out += rel + " := " + (pick.has_value() ? TupleToString(*pick) : "(none)") +
           "; ";
  }
  for (const auto& [prop, b] : proposition_choices) {
    out += prop + " := " + (b ? "true" : "false") + "; ";
  }
  return out.empty() ? "(no input)" : out;
}

std::string TraceStep::ToString() const {
  std::string out = "[" + page + "] inputs: " + inputs.ToString();
  return out;
}

}  // namespace wsv
