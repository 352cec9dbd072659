#include "ws/service.h"

#include <algorithm>

#include "common/str_util.h"

namespace wsv {

bool PageSchema::HasInputRelation(const std::string& rel) const {
  return std::find(inputs.begin(), inputs.end(), rel) != inputs.end();
}

bool PageSchema::HasInputConstant(const std::string& c) const {
  return std::find(input_constants.begin(), input_constants.end(), c) !=
         input_constants.end();
}

std::string PageSchema::ToString() const {
  std::string out = "page " + name + " {\n";
  if (!inputs.empty()) out += "  input " + Join(inputs, ", ") + ";\n";
  if (!input_constants.empty()) {
    out += "  input " + Join(input_constants, ", ") + ";  // constants\n";
  }
  if (!actions.empty()) out += "  action " + Join(actions, ", ") + ";\n";
  for (const InputRule& r : input_rules) out += "  " + r.ToString() + ";\n";
  for (const StateRule& r : state_rules) out += "  " + r.ToString() + ";\n";
  for (const ActionRule& r : action_rules) out += "  " + r.ToString() + ";\n";
  for (const TargetRule& r : target_rules) out += "  " + r.ToString() + ";\n";
  out += "}\n";
  return out;
}

Status WebService::AddPage(PageSchema page) {
  if (page_index_.count(page.name) > 0) {
    return Status::InvalidArgument("duplicate page name: " + page.name);
  }
  page_index_[page.name] = pages_.size();
  pages_.push_back(std::move(page));
  return Status::OK();
}

const PageSchema* WebService::FindPage(const std::string& name) const {
  auto it = page_index_.find(name);
  if (it == page_index_.end()) return nullptr;
  return &pages_[it->second];
}

std::string WebService::ToString() const {
  // Emits valid .wsv syntax: the output re-parses through
  // ParseServiceSpec (checked by roundtrip_test).
  std::string out = "service " + name_ + ";\n";
  auto decl = [](const RelationSymbol& sym) {
    std::string entry = sym.name;
    if (sym.arity > 0) {
      std::vector<std::string> attrs;
      for (int i = 0; i < sym.arity; ++i) {
        attrs.push_back(StrCat({"a", std::to_string(i)}));
      }
      entry += StrCat({"(", Join(attrs, ", "), ")"});
    }
    return entry;
  };
  auto list_kind = [&](SymbolKind kind, const char* label) {
    std::vector<std::string> items;
    for (const RelationSymbol& sym : vocab_.RelationsOfKind(kind)) {
      items.push_back(decl(sym));
    }
    if (!items.empty()) {
      out += StrCat({label, " ", Join(items, ", "), ";\n"});
    }
  };
  list_kind(SymbolKind::kDatabase, "database");
  list_kind(SymbolKind::kState, "state");
  list_kind(SymbolKind::kInput, "input");
  for (const std::string& c : vocab_.InputConstants()) {
    out += "input " + c + " const;\n";
  }
  list_kind(SymbolKind::kAction, "action");
  for (const std::string& c : vocab_.constants()) {
    if (!vocab_.IsInputConstant(c)) out += "constant " + c + ";\n";
  }
  for (const PageSchema& p : pages_) out += p.ToString();
  out += "home " + home_page_ + ";\n";
  out += "error " + error_page_ + ";\n";
  return out;
}

}  // namespace wsv
