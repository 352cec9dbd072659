#include "fo/parser.h"

#include <vector>

namespace wsv {

namespace {

class FoParser {
 public:
  FoParser(TokenStream& ts, const Vocabulary* vocab)
      : ts_(ts), vocab_(vocab) {}

  StatusOr<FormulaPtr> ParseImplies() {
    WSV_ASSIGN_OR_RETURN(FormulaPtr lhs, ParseOr());
    if (ts_.TryConsume(TokenKind::kArrow)) {
      WSV_ASSIGN_OR_RETURN(FormulaPtr rhs, ParseImplies());
      return Formula::Implies(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<Term> ParseTerm() {
    const Token& t = ts_.Peek();
    const Span span = t.span();
    switch (t.kind) {
      case TokenKind::kIdent: {
        std::string name = ts_.Next().text;
        Term term = (vocab_ != nullptr && vocab_->IsConstant(name))
                        ? Term::ConstantSymbol(std::move(name))
                        : Term::Variable(std::move(name));
        term.set_span(span);
        return term;
      }
      case TokenKind::kString:
      case TokenKind::kNumber: {
        Term term = Term::Literal(Value::Intern(ts_.Next().text));
        term.set_span(span);
        return term;
      }
      default:
        return ts_.ErrorHere("expected a term");
    }
  }

  StatusOr<FormulaPtr> ParseAtomTail(std::string relation, bool prev,
                                     Span rel_span) {
    std::vector<Term> terms;
    if (ts_.TryConsume(TokenKind::kLParen)) {
      if (!ts_.TryConsume(TokenKind::kRParen)) {
        do {
          WSV_ASSIGN_OR_RETURN(Term term, ParseTerm());
          terms.push_back(std::move(term));
        } while (ts_.TryConsume(TokenKind::kComma));
        WSV_RETURN_IF_ERROR(ts_.Expect(TokenKind::kRParen, "')'"));
      }
    }
    Atom atom;
    if (vocab_ != nullptr) {
      const RelationSymbol* sym = vocab_->FindRelation(relation);
      if (sym == nullptr) {
        return Status::ParseError("unknown relation symbol: " + relation);
      }
      atom.relation_id = sym->id;
      if (sym->arity != static_cast<int>(terms.size())) {
        return Status::ParseError(
            "arity mismatch for " + relation + ": declared " +
            std::to_string(sym->arity) + ", used with " +
            std::to_string(terms.size()));
      }
      if (prev && sym->kind != SymbolKind::kInput) {
        return Status::ParseError("prev. applied to non-input relation " +
                                  relation);
      }
    }
    atom.relation = std::move(relation);
    atom.prev = prev;
    atom.terms = std::move(terms);
    atom.span = rel_span;
    return Formula::MakeAtom(std::move(atom));
  }

 private:
  StatusOr<FormulaPtr> ParseOr() {
    WSV_ASSIGN_OR_RETURN(FormulaPtr first, ParseAnd());
    std::vector<FormulaPtr> parts{std::move(first)};
    while (ts_.TryConsume(TokenKind::kOr)) {
      WSV_ASSIGN_OR_RETURN(FormulaPtr next, ParseAnd());
      parts.push_back(std::move(next));
    }
    return Formula::Or(std::move(parts));
  }

  StatusOr<FormulaPtr> ParseAnd() {
    WSV_ASSIGN_OR_RETURN(FormulaPtr first, ParseUnary());
    std::vector<FormulaPtr> parts{std::move(first)};
    while (ts_.TryConsume(TokenKind::kAnd)) {
      WSV_ASSIGN_OR_RETURN(FormulaPtr next, ParseUnary());
      parts.push_back(std::move(next));
    }
    return Formula::And(std::move(parts));
  }

  StatusOr<FormulaPtr> ParseUnary() {
    if (ts_.TryConsume(TokenKind::kNot)) {
      WSV_ASSIGN_OR_RETURN(FormulaPtr sub, ParseUnary());
      return Formula::Not(std::move(sub));
    }
    bool exists = false;
    if (ts_.Peek().kind == TokenKind::kIdent &&
        ((exists = (ts_.Peek().text == "exists")) ||
         ts_.Peek().text == "forall")) {
      ts_.Next();
      std::vector<std::string> vars;
      do {
        WSV_ASSIGN_OR_RETURN(std::string v,
                             ts_.ExpectIdentText("a quantified variable"));
        vars.push_back(std::move(v));
      } while (ts_.TryConsume(TokenKind::kComma));
      WSV_RETURN_IF_ERROR(ts_.Expect(TokenKind::kDot, "'.'"));
      WSV_ASSIGN_OR_RETURN(FormulaPtr body, ParseImplies());
      return exists ? Formula::Exists(std::move(vars), std::move(body))
                    : Formula::Forall(std::move(vars), std::move(body));
    }
    return ParsePrimary();
  }

  StatusOr<FormulaPtr> ParsePrimary() {
    const Token& t = ts_.Peek();
    if (t.kind == TokenKind::kLParen) {
      ts_.Next();
      WSV_ASSIGN_OR_RETURN(FormulaPtr inner, ParseImplies());
      WSV_RETURN_IF_ERROR(ts_.Expect(TokenKind::kRParen, "')'"));
      return inner;
    }
    if (t.kind == TokenKind::kIdent) {
      if (t.text == "true") {
        ts_.Next();
        return Formula::True();
      }
      if (t.text == "false") {
        ts_.Next();
        return Formula::False();
      }
      // prev.R(...) atom.
      if (t.text == "prev" && ts_.Peek(1).kind == TokenKind::kDot) {
        ts_.Next();
        ts_.Next();
        const Span rel_span = ts_.Peek().span();
        WSV_ASSIGN_OR_RETURN(std::string rel,
                             ts_.ExpectIdentText("an input relation name"));
        return ParseAtomTail(std::move(rel), /*prev=*/true, rel_span);
      }
      // Atom R(...) vs equality `x = t` vs bare proposition `R`.
      if (ts_.Peek(1).kind == TokenKind::kLParen) {
        const Span rel_span = t.span();
        std::string rel = ts_.Next().text;
        return ParseAtomTail(std::move(rel), /*prev=*/false, rel_span);
      }
      if (ts_.Peek(1).kind == TokenKind::kEquals ||
          ts_.Peek(1).kind == TokenKind::kNotEquals) {
        return ParseEquality();
      }
      // Bare identifier: a proposition atom.
      const Span rel_span = t.span();
      std::string rel = ts_.Next().text;
      return ParseAtomTail(std::move(rel), /*prev=*/false, rel_span);
    }
    if (t.kind == TokenKind::kString || t.kind == TokenKind::kNumber) {
      return ParseEquality();
    }
    return ts_.ErrorHere("expected a formula");
  }

  StatusOr<FormulaPtr> ParseEquality() {
    WSV_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
    bool negated;
    if (ts_.TryConsume(TokenKind::kEquals)) {
      negated = false;
    } else if (ts_.TryConsume(TokenKind::kNotEquals)) {
      negated = true;
    } else {
      return ts_.ErrorHere("expected '=' or '!='");
    }
    WSV_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
    return negated ? Formula::NotEquals(std::move(lhs), std::move(rhs))
                   : Formula::Equals(std::move(lhs), std::move(rhs));
  }

  TokenStream& ts_;
  const Vocabulary* vocab_;
};

}  // namespace

StatusOr<FormulaPtr> ParseFormula(std::string_view text,
                                  const Vocabulary* vocab) {
  WSV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  TokenStream ts(std::move(tokens));
  FoParser parser(ts, vocab);
  WSV_ASSIGN_OR_RETURN(FormulaPtr f, parser.ParseImplies());
  if (!ts.AtEnd()) {
    return ts.ErrorHere("trailing input after formula");
  }
  return f;
}

StatusOr<FormulaPtr> ParseFormulaFrom(TokenStream& ts,
                                      const Vocabulary* vocab) {
  FoParser parser(ts, vocab);
  return parser.ParseImplies();
}

StatusOr<Term> ParseTermFrom(TokenStream& ts, const Vocabulary* vocab) {
  FoParser parser(ts, vocab);
  return parser.ParseTerm();
}

StatusOr<FormulaPtr> ParseAtomFrom(TokenStream& ts, const Vocabulary* vocab) {
  bool prev = false;
  if (ts.Peek().kind == TokenKind::kIdent && ts.Peek().text == "prev" &&
      ts.Peek(1).kind == TokenKind::kDot) {
    ts.Next();
    ts.Next();
    prev = true;
  }
  const Span rel_span = ts.Peek().span();
  WSV_ASSIGN_OR_RETURN(std::string rel,
                       ts.ExpectIdentText("a relation name"));
  FoParser parser(ts, vocab);
  return parser.ParseAtomTail(std::move(rel), prev, rel_span);
}

}  // namespace wsv
