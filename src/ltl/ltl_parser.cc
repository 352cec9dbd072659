#include "ltl/ltl_parser.h"

#include <optional>

#include "fo/lexer.h"
#include "fo/parser.h"

namespace wsv {

namespace {

// Returns the FO formula if the temporal subtree is pure FO (a single
// coalesced leaf), else nullopt. The smart constructors below coalesce
// on construction, so pure-FO subtrees are always single kFo nodes.
std::optional<FormulaPtr> AsPureFo(const TFormulaPtr& f) {
  if (f->kind() == TFormula::Kind::kFo) return f->fo();
  return std::nullopt;
}

TFormulaPtr SmartNot(TFormulaPtr f) {
  if (auto fo = AsPureFo(f)) return TFormula::Fo(Formula::Not(*fo));
  return TFormula::Not(std::move(f));
}

TFormulaPtr SmartAnd(std::vector<TFormulaPtr> parts) {
  std::vector<FormulaPtr> fo_parts;
  for (const TFormulaPtr& p : parts) {
    auto fo = AsPureFo(p);
    if (!fo.has_value()) return TFormula::And(std::move(parts));
    fo_parts.push_back(*fo);
  }
  return TFormula::Fo(Formula::And(std::move(fo_parts)));
}

TFormulaPtr SmartOr(std::vector<TFormulaPtr> parts) {
  std::vector<FormulaPtr> fo_parts;
  for (const TFormulaPtr& p : parts) {
    auto fo = AsPureFo(p);
    if (!fo.has_value()) return TFormula::Or(std::move(parts));
    fo_parts.push_back(*fo);
  }
  return TFormula::Fo(Formula::Or(std::move(fo_parts)));
}

bool IsOpIdent(const Token& t, const char* op) {
  return t.kind == TokenKind::kIdent && t.text == op;
}

class TemporalParser {
 public:
  TemporalParser(TokenStream& ts, const Vocabulary* vocab)
      : ts_(ts), vocab_(vocab) {}

  StatusOr<TemporalProperty> ParseProperty() {
    TemporalProperty prop;
    // A leading 'forall' is the universal closure.
    if (ts_.Peek().kind == TokenKind::kIdent &&
        ts_.Peek().text == "forall") {
      ts_.Next();
      do {
        WSV_ASSIGN_OR_RETURN(std::string v,
                             ts_.ExpectIdentText("a closure variable"));
        prop.universal_vars.push_back(std::move(v));
      } while (ts_.TryConsume(TokenKind::kComma));
      WSV_RETURN_IF_ERROR(ts_.Expect(TokenKind::kDot, "'.'"));
    }
    WSV_ASSIGN_OR_RETURN(prop.formula, ParseImplies());
    if (!ts_.AtEnd()) return ts_.ErrorHere("trailing input after property");
    return prop;
  }

 private:
  StatusOr<TFormulaPtr> ParseImplies() {
    WSV_ASSIGN_OR_RETURN(TFormulaPtr lhs, ParseOr());
    if (ts_.TryConsume(TokenKind::kArrow)) {
      WSV_ASSIGN_OR_RETURN(TFormulaPtr rhs, ParseImplies());
      return SmartOr({SmartNot(std::move(lhs)), std::move(rhs)});
    }
    return lhs;
  }

  StatusOr<TFormulaPtr> ParseOr() {
    WSV_ASSIGN_OR_RETURN(TFormulaPtr first, ParseAnd());
    std::vector<TFormulaPtr> parts{std::move(first)};
    while (ts_.TryConsume(TokenKind::kOr)) {
      WSV_ASSIGN_OR_RETURN(TFormulaPtr next, ParseAnd());
      parts.push_back(std::move(next));
    }
    return SmartOr(std::move(parts));
  }

  StatusOr<TFormulaPtr> ParseAnd() {
    WSV_ASSIGN_OR_RETURN(TFormulaPtr first, ParseUntil());
    std::vector<TFormulaPtr> parts{std::move(first)};
    while (ts_.TryConsume(TokenKind::kAnd)) {
      WSV_ASSIGN_OR_RETURN(TFormulaPtr next, ParseUntil());
      parts.push_back(std::move(next));
    }
    return SmartAnd(std::move(parts));
  }

  StatusOr<TFormulaPtr> ParseUntil() {
    WSV_ASSIGN_OR_RETURN(TFormulaPtr lhs, ParseUnary());
    if (IsOpIdent(ts_.Peek(), "U")) {
      ts_.Next();
      WSV_ASSIGN_OR_RETURN(TFormulaPtr rhs, ParseUntil());
      return TFormula::U(std::move(lhs), std::move(rhs));
    }
    if (IsOpIdent(ts_.Peek(), "B")) {
      ts_.Next();
      WSV_ASSIGN_OR_RETURN(TFormulaPtr rhs, ParseUntil());
      return TFormula::B(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<TFormulaPtr> ParseUnary() {
    const Token& t = ts_.Peek();
    if (t.kind == TokenKind::kNot) {
      ts_.Next();
      WSV_ASSIGN_OR_RETURN(TFormulaPtr sub, ParseUnary());
      return SmartNot(std::move(sub));
    }
    if (t.kind == TokenKind::kIdent) {
      if (t.text == "X" || t.text == "F" || t.text == "G" ||
          t.text == "E" || t.text == "A") {
        std::string op = ts_.Next().text;
        WSV_ASSIGN_OR_RETURN(TFormulaPtr sub, ParseUnary());
        if (op == "X") return TFormula::X(std::move(sub));
        if (op == "F") return TFormula::F(std::move(sub));
        if (op == "G") return TFormula::G(std::move(sub));
        if (op == "E") return TFormula::E(std::move(sub));
        return TFormula::A(std::move(sub));
      }
      if (t.text == "exists" || t.text == "forall") {
        bool exists = t.text == "exists";
        ts_.Next();
        std::vector<std::string> vars;
        do {
          WSV_ASSIGN_OR_RETURN(std::string v,
                               ts_.ExpectIdentText("a quantified variable"));
          vars.push_back(std::move(v));
        } while (ts_.TryConsume(TokenKind::kComma));
        WSV_RETURN_IF_ERROR(ts_.Expect(TokenKind::kDot, "'.'"));
        WSV_ASSIGN_OR_RETURN(TFormulaPtr body, ParseImplies());
        std::optional<FormulaPtr> fo = AsPureFo(body);
        if (!fo.has_value()) {
          return Status::ParseError(
              "first-order quantifiers cannot span temporal operators "
              "(offending body: " + body->ToString() + ")");
        }
        FormulaPtr closed = exists ? Formula::Exists(std::move(vars), *fo)
                                   : Formula::Forall(std::move(vars), *fo);
        return TFormula::Fo(std::move(closed));
      }
    }
    return ParsePrimary();
  }

  StatusOr<TFormulaPtr> ParsePrimary() {
    const Token& t = ts_.Peek();
    if (t.kind == TokenKind::kLParen) {
      ts_.Next();
      WSV_ASSIGN_OR_RETURN(TFormulaPtr inner, ParseImplies());
      WSV_RETURN_IF_ERROR(ts_.Expect(TokenKind::kRParen, "')'"));
      return inner;
    }
    if (t.kind == TokenKind::kIdent) {
      if (t.text == "true") {
        ts_.Next();
        return TFormula::Fo(Formula::True());
      }
      if (t.text == "false") {
        ts_.Next();
        return TFormula::Fo(Formula::False());
      }
      // Atom, prev-atom, proposition, or equality with term lhs.
      if (ts_.Peek(1).kind == TokenKind::kEquals ||
          ts_.Peek(1).kind == TokenKind::kNotEquals) {
        return ParseEquality();
      }
      WSV_ASSIGN_OR_RETURN(FormulaPtr atom, ParseAtomFrom(ts_, vocab_));
      return TFormula::Fo(std::move(atom));
    }
    if (t.kind == TokenKind::kString || t.kind == TokenKind::kNumber) {
      return ParseEquality();
    }
    return ts_.ErrorHere("expected a temporal or first-order formula");
  }

  StatusOr<TFormulaPtr> ParseEquality() {
    WSV_ASSIGN_OR_RETURN(Term lhs, ParseTermFrom(ts_, vocab_));
    bool negated;
    if (ts_.TryConsume(TokenKind::kEquals)) {
      negated = false;
    } else if (ts_.TryConsume(TokenKind::kNotEquals)) {
      negated = true;
    } else {
      return ts_.ErrorHere("expected '=' or '!='");
    }
    WSV_ASSIGN_OR_RETURN(Term rhs, ParseTermFrom(ts_, vocab_));
    FormulaPtr eq = negated ? Formula::NotEquals(std::move(lhs), std::move(rhs))
                            : Formula::Equals(std::move(lhs), std::move(rhs));
    return TFormula::Fo(std::move(eq));
  }

  TokenStream& ts_;
  const Vocabulary* vocab_;
};

}  // namespace

StatusOr<TemporalProperty> ParseTemporalProperty(std::string_view text,
                                                 const Vocabulary* vocab) {
  WSV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  TokenStream ts(std::move(tokens));
  TemporalParser parser(ts, vocab);
  return parser.ParseProperty();
}

}  // namespace wsv
