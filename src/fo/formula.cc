#include "fo/formula.h"

#include "common/str_util.h"

namespace wsv {

std::string Term::ToString() const {
  switch (kind_) {
    case Kind::kVariable:
    case Kind::kConstantSymbol:
      return name_;
    case Kind::kLiteral:
      return QuoteString(name_);
  }
  return "?";
}

std::string Atom::ToString() const {
  std::string out = prev ? "prev." + relation : relation;
  if (terms.empty()) return out;
  out += "(";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += terms[i].ToString();
  }
  out += ")";
  return out;
}

namespace {

FormulaPtr MakeNode(Formula::Kind kind) {
  struct Access : Formula {
    explicit Access(Kind k) : Formula(k) {}
  };
  // Formula's constructor is private; expose via a local derived helper.
  return std::make_shared<Access>(kind);
}

Formula* Mutable(const FormulaPtr& f) {
  // Only used during construction before the node is shared.
  return const_cast<Formula*>(f.get());
}

}  // namespace

FormulaPtr Formula::True() {
  static const FormulaPtr node = MakeNode(Kind::kTrue);
  return node;
}

FormulaPtr Formula::False() {
  static const FormulaPtr node = MakeNode(Kind::kFalse);
  return node;
}

FormulaPtr Formula::MakeAtom(Atom atom) {
  FormulaPtr f = MakeNode(Kind::kAtom);
  // Rewrites copy atoms whose id is already resolved; NameOf is
  // lock-free, so only a new or renamed atom pays for interning.
  if (atom.relation_id == kNoName ||
      NameOf(atom.relation_id) != atom.relation) {
    atom.relation_id = InternName(atom.relation);
  }
  Mutable(f)->atom_ = std::move(atom);
  return f;
}

FormulaPtr Formula::MakeAtom(std::string relation, std::vector<Term> terms,
                             bool prev) {
  return MakeAtom(Atom{std::move(relation), prev, std::move(terms), Span{}});
}

FormulaPtr Formula::Equals(Term lhs, Term rhs) {
  FormulaPtr f = MakeNode(Kind::kEquals);
  Mutable(f)->lhs_ = std::move(lhs);
  Mutable(f)->rhs_ = std::move(rhs);
  return f;
}

FormulaPtr Formula::NotEquals(Term lhs, Term rhs) {
  return Not(Equals(std::move(lhs), std::move(rhs)));
}

FormulaPtr Formula::Not(FormulaPtr f) {
  FormulaPtr node = MakeNode(Kind::kNot);
  Mutable(node)->children_.push_back(std::move(f));
  return node;
}

FormulaPtr Formula::And(std::vector<FormulaPtr> fs) {
  if (fs.empty()) return True();
  if (fs.size() == 1) return fs[0];
  FormulaPtr node = MakeNode(Kind::kAnd);
  Mutable(node)->children_ = std::move(fs);
  return node;
}

FormulaPtr Formula::And(FormulaPtr a, FormulaPtr b) {
  return And(std::vector<FormulaPtr>{std::move(a), std::move(b)});
}

FormulaPtr Formula::Or(std::vector<FormulaPtr> fs) {
  if (fs.empty()) return False();
  if (fs.size() == 1) return fs[0];
  FormulaPtr node = MakeNode(Kind::kOr);
  Mutable(node)->children_ = std::move(fs);
  return node;
}

FormulaPtr Formula::Or(FormulaPtr a, FormulaPtr b) {
  return Or(std::vector<FormulaPtr>{std::move(a), std::move(b)});
}

FormulaPtr Formula::Implies(FormulaPtr a, FormulaPtr b) {
  return Or(Not(std::move(a)), std::move(b));
}

FormulaPtr Formula::Exists(std::vector<std::string> vars, FormulaPtr body) {
  if (vars.empty()) return body;
  FormulaPtr node = MakeNode(Kind::kExists);
  Mutable(node)->vars_ = std::move(vars);
  Mutable(node)->children_.push_back(std::move(body));
  return node;
}

FormulaPtr Formula::Forall(std::vector<std::string> vars, FormulaPtr body) {
  if (vars.empty()) return body;
  FormulaPtr node = MakeNode(Kind::kForall);
  Mutable(node)->vars_ = std::move(vars);
  Mutable(node)->children_.push_back(std::move(body));
  return node;
}

namespace {

void CollectFree(const Formula& f, std::set<std::string>& bound,
                 std::set<std::string>& free) {
  switch (f.kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
      return;
    case Formula::Kind::kAtom:
      for (const Term& t : f.atom().terms) {
        if (t.is_variable() && bound.count(t.name()) == 0) {
          free.insert(t.name());
        }
      }
      return;
    case Formula::Kind::kEquals:
      for (const Term* t : {&f.lhs(), &f.rhs()}) {
        if (t->is_variable() && bound.count(t->name()) == 0) {
          free.insert(t->name());
        }
      }
      return;
    case Formula::Kind::kNot:
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
      for (const FormulaPtr& c : f.children()) CollectFree(*c, bound, free);
      return;
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      std::vector<std::string> newly_bound;
      for (const std::string& v : f.variables()) {
        if (bound.insert(v).second) newly_bound.push_back(v);
      }
      CollectFree(*f.body(), bound, free);
      for (const std::string& v : newly_bound) bound.erase(v);
      return;
    }
  }
}

template <typename Fn>
void Walk(const Formula& f, const Fn& fn) {
  fn(f);
  for (const FormulaPtr& c : f.children()) Walk(*c, fn);
}

}  // namespace

std::set<std::string> Formula::FreeVariables() const {
  std::set<std::string> bound, free;
  CollectFree(*this, bound, free);
  return free;
}

std::set<std::string> Formula::ConstantSymbols() const {
  std::set<std::string> out;
  Walk(*this, [&](const Formula& f) {
    if (f.kind() == Kind::kAtom) {
      for (const Term& t : f.atom().terms) {
        if (t.is_constant_symbol()) out.insert(t.name());
      }
    } else if (f.kind() == Kind::kEquals) {
      for (const Term* t : {&f.lhs(), &f.rhs()}) {
        if (t->is_constant_symbol()) out.insert(t->name());
      }
    }
  });
  return out;
}

std::set<Value> Formula::Literals() const {
  std::set<Value> out;
  Walk(*this, [&](const Formula& f) {
    if (f.kind() == Kind::kAtom) {
      for (const Term& t : f.atom().terms) {
        if (t.is_literal()) out.insert(t.literal());
      }
    } else if (f.kind() == Kind::kEquals) {
      for (const Term* t : {&f.lhs(), &f.rhs()}) {
        if (t->is_literal()) out.insert(t->literal());
      }
    }
  });
  return out;
}

std::set<std::string> Formula::RelationNames() const {
  std::set<std::string> out;
  Walk(*this, [&](const Formula& f) {
    if (f.kind() == Kind::kAtom) out.insert(f.atom().relation);
  });
  return out;
}

std::vector<Atom> Formula::Atoms() const {
  std::vector<Atom> out;
  Walk(*this, [&](const Formula& f) {
    if (f.kind() == Kind::kAtom) out.push_back(f.atom());
  });
  return out;
}

bool Formula::IsQuantifierFree() const {
  bool qf = true;
  Walk(*this, [&](const Formula& f) {
    if (f.kind() == Kind::kExists || f.kind() == Kind::kForall) qf = false;
  });
  return qf;
}

std::string Formula::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kFalse:
      return "false";
    case Kind::kAtom:
      return atom_.ToString();
    case Kind::kEquals:
      return lhs_.ToString() + " = " + rhs_.ToString();
    case Kind::kNot: {
      const Formula& c = *children_[0];
      if (c.kind() == Kind::kEquals) {
        return c.lhs().ToString() + " != " + c.rhs().ToString();
      }
      return "!(" + c.ToString() + ")";
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::string sep = kind_ == Kind::kAnd ? " & " : " | ";
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += sep;
        // Quantifiers scope maximally to the right; parenthesize them
        // when they appear as operands so printing re-parses faithfully.
        bool quantified =
            children_[i]->kind() == Kind::kExists ||
            children_[i]->kind() == Kind::kForall;
        if (quantified) out += "(";
        out += children_[i]->ToString();
        if (quantified) out += ")";
      }
      return out + ")";
    }
    case Kind::kExists:
    case Kind::kForall: {
      std::string out = kind_ == Kind::kExists ? "exists " : "forall ";
      out += Join(vars_, ", ");
      out += " . (" + children_[0]->ToString() + ")";
      return out;
    }
  }
  return "?";
}

}  // namespace wsv
