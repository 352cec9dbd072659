#include "relational/schema.h"

#include "common/str_util.h"

namespace wsv {

const char* SymbolKindToString(SymbolKind kind) {
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

Status Vocabulary::AddRelation(const std::string& name, int arity,
                               SymbolKind kind, Span span) {
  if (!IsIdentifier(name)) {
    return Status::InvalidArgument("relation name is not an identifier: '" +
                                   name + "'");
  }
  if (arity < 0) {
    return Status::InvalidArgument("negative arity for relation " + name);
  }
  if (relation_index_.count(name) > 0) {
    return Status::InvalidArgument("duplicate relation symbol: " + name);
  }
  if (constant_is_input_.count(name) > 0) {
    return Status::InvalidArgument("name already used by a constant: " + name);
  }
  relation_index_[name] = relations_.size();
  relations_.push_back(RelationSymbol{name, arity, kind, span,
                                      InternName(name)});
  return Status::OK();
}

Status Vocabulary::AddConstant(const std::string& name,
                               bool is_input_constant, Span span) {
  if (!IsIdentifier(name)) {
    return Status::InvalidArgument("constant name is not an identifier: '" +
                                   name + "'");
  }
  if (relation_index_.count(name) > 0) {
    return Status::InvalidArgument("name already used by a relation: " + name);
  }
  if (constant_is_input_.count(name) > 0) {
    return Status::InvalidArgument("duplicate constant symbol: " + name);
  }
  constant_is_input_[name] = is_input_constant;
  constant_span_[name] = span;
  constants_.push_back(name);
  if (is_input_constant) input_constant_ids_.push_back(InternName(name));
  return Status::OK();
}

Span Vocabulary::ConstantSpan(const std::string& name) const {
  auto it = constant_span_.find(name);
  return it == constant_span_.end() ? Span{} : it->second;
}

const RelationSymbol* Vocabulary::FindRelation(const std::string& name) const {
  auto it = relation_index_.find(name);
  if (it == relation_index_.end()) return nullptr;
  return &relations_[it->second];
}

bool Vocabulary::IsConstant(const std::string& name) const {
  return constant_is_input_.count(name) > 0;
}

bool Vocabulary::IsInputConstant(const std::string& name) const {
  auto it = constant_is_input_.find(name);
  return it != constant_is_input_.end() && it->second;
}

std::vector<RelationSymbol> Vocabulary::RelationsOfKind(
    SymbolKind kind) const {
  std::vector<RelationSymbol> out;
  for (const RelationSymbol& sym : relations_) {
    if (sym.kind == kind) out.push_back(sym);
  }
  return out;
}

std::vector<std::string> Vocabulary::InputConstants() const {
  std::vector<std::string> out;
  for (const std::string& c : constants_) {
    if (IsInputConstant(c)) out.push_back(c);
  }
  return out;
}

}  // namespace wsv
