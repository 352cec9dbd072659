#include "ws/data_parser.h"

#include "common/str_util.h"
#include "fo/lexer.h"

namespace wsv {

namespace {

StatusOr<Value> ParseValue(TokenStream& ts) {
  const Token& t = ts.Peek();
  if (t.kind == TokenKind::kIdent || t.kind == TokenKind::kString ||
      t.kind == TokenKind::kNumber) {
    return Value::Intern(ts.Next().text);
  }
  return ts.ErrorHere("expected a domain value");
}

}  // namespace

StatusOr<Instance> ParseDataFile(std::string_view text,
                                 const Vocabulary* vocab) {
  WSV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  TokenStream ts(std::move(tokens));
  Instance out;
  while (!ts.AtEnd()) {
    if (ts.TryConsumeIdent("const")) {
      WSV_ASSIGN_OR_RETURN(std::string name,
                           ts.ExpectIdentText("a constant name"));
      WSV_RETURN_IF_ERROR(ts.Expect(TokenKind::kEquals, "'='"));
      WSV_ASSIGN_OR_RETURN(Value v, ParseValue(ts));
      WSV_RETURN_IF_ERROR(ts.Expect(TokenKind::kDot, "'.'"));
      if (vocab != nullptr) {
        if (!vocab->IsConstant(name)) {
          return Status::NotFound("undeclared constant: " + name);
        }
        if (vocab->IsInputConstant(name)) {
          return Status::InvalidArgument(
              "constant " + name +
              " is an input constant; its value comes from the user, not "
              "the database");
        }
      }
      out.SetConstant(name, v);
      continue;
    }
    WSV_ASSIGN_OR_RETURN(std::string rel,
                         ts.ExpectIdentText("a relation name"));
    Tuple tuple;
    if (ts.TryConsume(TokenKind::kLParen)) {
      if (!ts.TryConsume(TokenKind::kRParen)) {
        do {
          WSV_ASSIGN_OR_RETURN(Value v, ParseValue(ts));
          tuple.push_back(v);
        } while (ts.TryConsume(TokenKind::kComma));
        WSV_RETURN_IF_ERROR(ts.Expect(TokenKind::kRParen, "')'"));
      }
    }
    WSV_RETURN_IF_ERROR(ts.Expect(TokenKind::kDot, "'.'"));
    if (vocab != nullptr) {
      const RelationSymbol* sym = vocab->FindRelation(rel);
      if (sym == nullptr || sym->kind != SymbolKind::kDatabase) {
        return Status::NotFound("not a database relation: " + rel);
      }
      if (sym->arity != static_cast<int>(tuple.size())) {
        return Status::InvalidArgument(
            "arity mismatch for " + rel + ": declared " +
            std::to_string(sym->arity) + ", fact has " +
            std::to_string(tuple.size()));
      }
    }
    WSV_RETURN_IF_ERROR(out.AddFact(rel, tuple));
  }
  return out;
}

std::string DataFileToString(const Instance& instance) {
  std::string out;
  for (const auto& [name, rel] : instance.relations()) {
    for (Row t : rel.rows()) {
      out += name;
      if (!t.empty()) {
        out += "(";
        for (size_t i = 0; i < t.size(); ++i) {
          if (i > 0) out += ", ";
          // Quote anything that is not a plain identifier.
          const std::string& n = t[i].name();
          out += IsIdentifier(n) ? n : QuoteString(n);
        }
        out += ")";
      }
      out += ".\n";
    }
  }
  for (const auto& [name, v] : instance.constants()) {
    const std::string& n = v.name();
    out += "const " + name + " = " +
           (IsIdentifier(n) ? n : QuoteString(n)) + ".\n";
  }
  return out;
}

}  // namespace wsv
