// First-order formulas over a Web service vocabulary (Section 2).
//
// Formulas are immutable trees shared via FormulaPtr. Atoms name relation
// symbols from any of the four schemas; an atom over an input relation may
// be flagged `prev` to refer to the previous step's input (Prev_I). Terms
// are variables, constant symbols (resolved against the vocabulary, e.g.
// input constants like `name`), or literals (quoted strings, which denote
// themselves).
//
// The paper adopts active-domain semantics for quantifiers; see
// fo/evaluator.h.

#ifndef WSV_FO_FORMULA_H_
#define WSV_FO_FORMULA_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/span.h"
#include "relational/name.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace wsv {

/// A term: variable, constant symbol, or literal value.
class Term {
 public:
  enum class Kind { kVariable, kConstantSymbol, kLiteral };

  static Term Variable(std::string name) {
    return Term(Kind::kVariable, std::move(name), Value());
  }
  static Term ConstantSymbol(std::string name) {
    Term t(Kind::kConstantSymbol, std::move(name), Value());
    t.symbol_ = InternName(t.name_);
    return t;
  }
  static Term Literal(Value v) { return Term(Kind::kLiteral, v.name(), v); }

  Kind kind() const { return kind_; }
  bool is_variable() const { return kind_ == Kind::kVariable; }
  bool is_constant_symbol() const { return kind_ == Kind::kConstantSymbol; }
  bool is_literal() const { return kind_ == Kind::kLiteral; }

  /// Source location of this occurrence (invalid for programmatically
  /// built terms). Ignored by comparison operators.
  const Span& span() const { return span_; }
  void set_span(Span span) { span_ = span; }

  /// Variable or constant-symbol name; for literals, the value's name.
  const std::string& name() const { return name_; }
  /// The literal's value; valid only when is_literal().
  Value literal() const { return literal_; }
  /// The constant symbol's interned name; valid only when
  /// is_constant_symbol().
  NameId symbol() const { return symbol_; }

  std::string ToString() const;

  friend bool operator==(const Term& a, const Term& b) {
    return a.kind_ == b.kind_ && a.name_ == b.name_;
  }
  friend bool operator!=(const Term& a, const Term& b) { return !(a == b); }
  friend bool operator<(const Term& a, const Term& b) {
    if (a.kind_ != b.kind_) return a.kind_ < b.kind_;
    return a.name_ < b.name_;
  }

 private:
  Term(Kind kind, std::string name, Value literal)
      : kind_(kind), name_(std::move(name)), literal_(literal) {}

  Kind kind_;
  std::string name_;
  Value literal_;
  NameId symbol_ = kNoName;
  Span span_;
};

class Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

/// A relational atom R(t1, ..., tk); `prev` marks Prev_I atoms.
struct Atom {
  std::string relation;
  bool prev = false;
  std::vector<Term> terms;
  /// Location of the relation-name token (invalid when built in code).
  Span span;
  /// `relation` interned; Formula::MakeAtom sets it, so every atom of a
  /// formula resolves its relation by id.
  NameId relation_id = kNoName;

  std::string ToString() const;
};

/// An immutable first-order formula.
class Formula {
 public:
  enum class Kind {
    kTrue,
    kFalse,
    kAtom,
    kEquals,  // t1 = t2
    kNot,
    kAnd,
    kOr,
    kExists,
    kForall,
  };

  // -- Factories ------------------------------------------------------------

  static FormulaPtr True();
  static FormulaPtr False();
  static FormulaPtr MakeAtom(Atom atom);
  static FormulaPtr MakeAtom(std::string relation, std::vector<Term> terms,
                             bool prev = false);
  static FormulaPtr Equals(Term lhs, Term rhs);
  /// Sugar for Not(Equals(lhs, rhs)).
  static FormulaPtr NotEquals(Term lhs, Term rhs);
  static FormulaPtr Not(FormulaPtr f);
  /// N-ary conjunction; And({}) == True(), And({f}) == f.
  static FormulaPtr And(std::vector<FormulaPtr> fs);
  static FormulaPtr And(FormulaPtr a, FormulaPtr b);
  /// N-ary disjunction; Or({}) == False(), Or({f}) == f.
  static FormulaPtr Or(std::vector<FormulaPtr> fs);
  static FormulaPtr Or(FormulaPtr a, FormulaPtr b);
  /// Sugar for Or(Not(a), b).
  static FormulaPtr Implies(FormulaPtr a, FormulaPtr b);
  static FormulaPtr Exists(std::vector<std::string> vars, FormulaPtr body);
  static FormulaPtr Forall(std::vector<std::string> vars, FormulaPtr body);

  // -- Accessors ------------------------------------------------------------

  Kind kind() const { return kind_; }
  /// Valid only for kAtom.
  const Atom& atom() const { return atom_; }
  /// Valid only for kEquals.
  const Term& lhs() const { return lhs_; }
  const Term& rhs() const { return rhs_; }
  /// Children: kNot has one; kAnd/kOr have n; quantifiers have one (body).
  const std::vector<FormulaPtr>& children() const { return children_; }
  /// Valid only for quantifiers.
  const std::vector<std::string>& variables() const { return vars_; }
  const FormulaPtr& body() const { return children_[0]; }

  // -- Analyses -------------------------------------------------------------

  /// Free variables of the formula.
  std::set<std::string> FreeVariables() const;
  /// All constant symbols appearing anywhere in the formula.
  std::set<std::string> ConstantSymbols() const;
  /// All literal values appearing anywhere in the formula. These act as
  /// schema constants and belong to the active domain of every instance
  /// the formula is evaluated on.
  std::set<Value> Literals() const;
  /// All relation names appearing in atoms (prev atoms report the base
  /// input relation name).
  std::set<std::string> RelationNames() const;
  /// All atoms in the formula, in syntactic order.
  std::vector<Atom> Atoms() const;
  /// True iff the formula contains no quantifier.
  bool IsQuantifierFree() const;

  std::string ToString() const;

 protected:
  // Construction goes through the factories; protected so the factory
  // implementation can derive a local accessor.
  explicit Formula(Kind kind)
      : kind_(kind),
        lhs_(Term::Variable("_")),
        rhs_(Term::Variable("_")) {}

 private:
  Kind kind_;
  Atom atom_;                        // kAtom
  Term lhs_, rhs_;                   // kEquals
  std::vector<FormulaPtr> children_; // kNot/kAnd/kOr/quantifier body
  std::vector<std::string> vars_;    // quantifiers
};

}  // namespace wsv

#endif  // WSV_FO_FORMULA_H_
