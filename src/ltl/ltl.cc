#include "ltl/ltl.h"

#include "common/str_util.h"
#include "fo/input_bounded.h"
#include "fo/rewrite.h"

namespace wsv {

namespace {

TFormulaPtr MakeNode(TFormula::Kind kind) {
  struct Access : TFormula {
    explicit Access(Kind k) : TFormula(k) {}
  };
  return std::make_shared<Access>(kind);
}

TFormula* Mutable(const TFormulaPtr& f) {
  return const_cast<TFormula*>(f.get());
}

}  // namespace

TFormulaPtr TFormula::Fo(FormulaPtr f) {
  TFormulaPtr node = MakeNode(Kind::kFo);
  Mutable(node)->fo_ = std::move(f);
  return node;
}

TFormulaPtr TFormula::Not(TFormulaPtr f) {
  TFormulaPtr node = MakeNode(Kind::kNot);
  Mutable(node)->children_.push_back(std::move(f));
  return node;
}

TFormulaPtr TFormula::And(std::vector<TFormulaPtr> fs) {
  if (fs.size() == 1) return fs[0];
  if (fs.empty()) return Fo(Formula::True());
  TFormulaPtr node = MakeNode(Kind::kAnd);
  Mutable(node)->children_ = std::move(fs);
  return node;
}

TFormulaPtr TFormula::And(TFormulaPtr a, TFormulaPtr b) {
  return And(std::vector<TFormulaPtr>{std::move(a), std::move(b)});
}

TFormulaPtr TFormula::Or(std::vector<TFormulaPtr> fs) {
  if (fs.size() == 1) return fs[0];
  if (fs.empty()) return Fo(Formula::False());
  TFormulaPtr node = MakeNode(Kind::kOr);
  Mutable(node)->children_ = std::move(fs);
  return node;
}

TFormulaPtr TFormula::Or(TFormulaPtr a, TFormulaPtr b) {
  return Or(std::vector<TFormulaPtr>{std::move(a), std::move(b)});
}

TFormulaPtr TFormula::Implies(TFormulaPtr a, TFormulaPtr b) {
  return Or(Not(std::move(a)), std::move(b));
}

TFormulaPtr TFormula::X(TFormulaPtr f) {
  TFormulaPtr node = MakeNode(Kind::kX);
  Mutable(node)->children_.push_back(std::move(f));
  return node;
}

TFormulaPtr TFormula::U(TFormulaPtr lhs, TFormulaPtr rhs) {
  TFormulaPtr node = MakeNode(Kind::kU);
  Mutable(node)->children_.push_back(std::move(lhs));
  Mutable(node)->children_.push_back(std::move(rhs));
  return node;
}

TFormulaPtr TFormula::B(TFormulaPtr lhs, TFormulaPtr rhs) {
  TFormulaPtr node = MakeNode(Kind::kB);
  Mutable(node)->children_.push_back(std::move(lhs));
  Mutable(node)->children_.push_back(std::move(rhs));
  return node;
}

TFormulaPtr TFormula::F(TFormulaPtr f) {
  return U(Fo(Formula::True()), std::move(f));
}

TFormulaPtr TFormula::G(TFormulaPtr f) {
  return B(Fo(Formula::False()), std::move(f));
}

TFormulaPtr TFormula::E(TFormulaPtr f) {
  TFormulaPtr node = MakeNode(Kind::kE);
  Mutable(node)->children_.push_back(std::move(f));
  return node;
}

TFormulaPtr TFormula::A(TFormulaPtr f) {
  TFormulaPtr node = MakeNode(Kind::kA);
  Mutable(node)->children_.push_back(std::move(f));
  return node;
}

namespace {

template <typename Fn>
void Walk(const TFormula& f, const Fn& fn) {
  fn(f);
  for (const TFormulaPtr& c : f.children()) Walk(*c, fn);
}

bool IsTrueLeaf(const TFormula& f) {
  return f.kind() == TFormula::Kind::kFo &&
         f.fo()->kind() == Formula::Kind::kTrue;
}

bool IsFalseLeaf(const TFormula& f) {
  return f.kind() == TFormula::Kind::kFo &&
         f.fo()->kind() == Formula::Kind::kFalse;
}

}  // namespace

std::set<std::string> TFormula::FreeVariables() const {
  std::set<std::string> out;
  Walk(*this, [&](const TFormula& f) {
    if (f.kind() == Kind::kFo) {
      std::set<std::string> sub = f.fo()->FreeVariables();
      out.insert(sub.begin(), sub.end());
    }
  });
  return out;
}

std::vector<FormulaPtr> TFormula::FoLeaves() const {
  std::vector<FormulaPtr> out;
  std::set<const Formula*> seen;
  Walk(*this, [&](const TFormula& f) {
    if (f.kind() == Kind::kFo && seen.insert(f.fo().get()).second) {
      out.push_back(f.fo());
    }
  });
  return out;
}

std::set<Value> TFormula::Literals() const {
  std::set<Value> out;
  Walk(*this, [&](const TFormula& f) {
    if (f.kind() == Kind::kFo) {
      std::set<Value> sub = f.fo()->Literals();
      out.insert(sub.begin(), sub.end());
    }
  });
  return out;
}

bool TFormula::IsLtl() const {
  bool ok = true;
  Walk(*this, [&](const TFormula& f) {
    if (f.kind() == Kind::kE || f.kind() == Kind::kA) ok = false;
  });
  return ok;
}

namespace {

// CTL state formulas: FO leaves, boolean combinations of state formulas,
// and E/A applied to a single temporal operator over state formulas.
bool IsCtlState(const TFormula& f) {
  switch (f.kind()) {
    case TFormula::Kind::kFo:
      return true;
    case TFormula::Kind::kNot:
    case TFormula::Kind::kAnd:
    case TFormula::Kind::kOr: {
      for (const TFormulaPtr& c : f.children()) {
        if (!IsCtlState(*c)) return false;
      }
      return true;
    }
    case TFormula::Kind::kE:
    case TFormula::Kind::kA: {
      const TFormula& path = *f.children()[0];
      switch (path.kind()) {
        case TFormula::Kind::kX:
          return IsCtlState(*path.children()[0]);
        case TFormula::Kind::kU:
        case TFormula::Kind::kB:
          return IsCtlState(*path.lhs()) && IsCtlState(*path.rhs());
        default:
          return false;
      }
    }
    case TFormula::Kind::kX:
    case TFormula::Kind::kU:
    case TFormula::Kind::kB:
      return false;  // bare temporal operator outside a path quantifier
  }
  return false;
}

}  // namespace

bool TFormula::IsCtl() const { return IsCtlState(*this); }

namespace {

// A propositional FO formula: boolean combinations of arity-0 atoms.
bool IsPropositionalFo(const Formula& fo) {
  switch (fo.kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
      return true;
    case Formula::Kind::kAtom:
      // Arity-0 atoms, or ground atoms over literals (treated as
      // propositions named by their printed form, cf. Example 4.3).
      for (const Term& t : fo.atom().terms) {
        if (!t.is_literal()) return false;
      }
      return true;
    case Formula::Kind::kNot:
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
      for (const FormulaPtr& c : fo.children()) {
        if (!IsPropositionalFo(*c)) return false;
      }
      return true;
    case Formula::Kind::kEquals:
    case Formula::Kind::kExists:
    case Formula::Kind::kForall:
      return false;
  }
  return false;
}

}  // namespace

bool TFormula::IsPropositional() const {
  bool ok = true;
  Walk(*this, [&](const TFormula& f) {
    if (f.kind() == Kind::kFo && !IsPropositionalFo(*f.fo())) ok = false;
  });
  return ok;
}

std::string TFormula::ToString() const {
  switch (kind_) {
    case Kind::kFo:
      return fo_->ToString();
    case Kind::kNot:
      return "!(" + children_[0]->ToString() + ")";
    case Kind::kAnd:
    case Kind::kOr: {
      std::string sep = kind_ == Kind::kAnd ? " & " : " | ";
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += sep;
        out += children_[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kX:
      return "X(" + children_[0]->ToString() + ")";
    case Kind::kU:
      if (IsTrueLeaf(*children_[0])) {
        return "F(" + children_[1]->ToString() + ")";
      }
      return StrCat({"(", children_[0]->ToString(), " U ",
                     children_[1]->ToString(), ")"});
    case Kind::kB:
      if (IsFalseLeaf(*children_[0])) {
        return "G(" + children_[1]->ToString() + ")";
      }
      return StrCat({"(", children_[0]->ToString(), " B ",
                     children_[1]->ToString(), ")"});
    case Kind::kE:
      return "E " + children_[0]->ToString();
    case Kind::kA:
      return "A " + children_[0]->ToString();
  }
  return "?";
}

std::string TemporalProperty::ToString() const {
  if (universal_vars.empty()) return formula->ToString();
  return "forall " + Join(universal_vars, ", ") + " . " +
         formula->ToString();
}

namespace {

TFormulaPtr Nnf(const TFormula& f, bool negate) {
  switch (f.kind()) {
    case TFormula::Kind::kFo: {
      FormulaPtr leaf = negate ? ToNNF(*Formula::Not(f.fo())) : f.fo();
      return TFormula::Fo(std::move(leaf));
    }
    case TFormula::Kind::kNot:
      return Nnf(*f.children()[0], !negate);
    case TFormula::Kind::kAnd:
    case TFormula::Kind::kOr: {
      std::vector<TFormulaPtr> parts;
      parts.reserve(f.children().size());
      for (const TFormulaPtr& c : f.children()) {
        parts.push_back(Nnf(*c, negate));
      }
      bool make_and = (f.kind() == TFormula::Kind::kAnd) != negate;
      return make_and ? TFormula::And(std::move(parts))
                      : TFormula::Or(std::move(parts));
    }
    case TFormula::Kind::kX:
      return TFormula::X(Nnf(*f.children()[0], negate));
    case TFormula::Kind::kU: {
      TFormulaPtr l = Nnf(*f.lhs(), negate);
      TFormulaPtr r = Nnf(*f.rhs(), negate);
      return negate ? TFormula::B(std::move(l), std::move(r))
                    : TFormula::U(std::move(l), std::move(r));
    }
    case TFormula::Kind::kB: {
      TFormulaPtr l = Nnf(*f.lhs(), negate);
      TFormulaPtr r = Nnf(*f.rhs(), negate);
      return negate ? TFormula::U(std::move(l), std::move(r))
                    : TFormula::B(std::move(l), std::move(r));
    }
    case TFormula::Kind::kE:
      return negate ? TFormula::A(Nnf(*f.children()[0], true))
                    : TFormula::E(Nnf(*f.children()[0], false));
    case TFormula::Kind::kA:
      return negate ? TFormula::E(Nnf(*f.children()[0], true))
                    : TFormula::A(Nnf(*f.children()[0], false));
  }
  return TFormula::Fo(Formula::True());
}

}  // namespace

TFormulaPtr ToNegationNormalForm(const TFormula& f) {
  return Nnf(f, /*negate=*/false);
}

Status CheckInputBoundedProperty(const TemporalProperty& prop,
                                 const Vocabulary& vocab) {
  for (const FormulaPtr& leaf : prop.formula->FoLeaves()) {
    WSV_RETURN_IF_ERROR(CheckInputBounded(*leaf, vocab));
  }
  return Status::OK();
}

}  // namespace wsv
