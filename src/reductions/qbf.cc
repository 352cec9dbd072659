#include "reductions/qbf.h"

#include <map>
#include <random>

#include "common/str_util.h"
#include "ws/builder.h"

namespace wsv {

namespace {

QbfPtr MakeQbf(Qbf::Kind kind) {
  struct Access : Qbf {
    explicit Access(Kind k) : Qbf(k) {}
  };
  return std::make_shared<Access>(kind);
}

Qbf* Mutable(const QbfPtr& f) { return const_cast<Qbf*>(f.get()); }

}  // namespace

QbfPtr Qbf::Var(std::string name) {
  QbfPtr f = MakeQbf(Kind::kVar);
  Mutable(f)->var_ = std::move(name);
  return f;
}

QbfPtr Qbf::Not(QbfPtr sub) {
  QbfPtr f = MakeQbf(Kind::kNot);
  Mutable(f)->children_.push_back(std::move(sub));
  return f;
}

QbfPtr Qbf::And(QbfPtr a, QbfPtr b) {
  QbfPtr f = MakeQbf(Kind::kAnd);
  Mutable(f)->children_.push_back(std::move(a));
  Mutable(f)->children_.push_back(std::move(b));
  return f;
}

QbfPtr Qbf::Or(QbfPtr a, QbfPtr b) {
  QbfPtr f = MakeQbf(Kind::kOr);
  Mutable(f)->children_.push_back(std::move(a));
  Mutable(f)->children_.push_back(std::move(b));
  return f;
}

QbfPtr Qbf::Exists(std::string var, QbfPtr body) {
  QbfPtr f = MakeQbf(Kind::kExists);
  Mutable(f)->var_ = std::move(var);
  Mutable(f)->children_.push_back(std::move(body));
  return f;
}

QbfPtr Qbf::Forall(std::string var, QbfPtr body) {
  QbfPtr f = MakeQbf(Kind::kForall);
  Mutable(f)->var_ = std::move(var);
  Mutable(f)->children_.push_back(std::move(body));
  return f;
}

std::string Qbf::ToString() const {
  switch (kind_) {
    case Kind::kVar:
      return var_;
    case Kind::kNot:
      return StrCat({"!", children_[0]->ToString()});
    case Kind::kAnd:
      return StrCat({"(", children_[0]->ToString(), " & ",
                     children_[1]->ToString(), ")"});
    case Kind::kOr:
      return StrCat({"(", children_[0]->ToString(), " | ",
                     children_[1]->ToString(), ")"});
    case Kind::kExists:
      return "E" + var_ + "." + children_[0]->ToString();
    case Kind::kForall:
      return "A" + var_ + "." + children_[0]->ToString();
  }
  return "?";
}

namespace {

StatusOr<bool> EvalQbf(const Qbf& f, std::map<std::string, bool>& env) {
  switch (f.kind()) {
    case Qbf::Kind::kVar: {
      auto it = env.find(f.var());
      if (it == env.end()) {
        return Status::InvalidArgument("free QBF variable " + f.var());
      }
      return it->second;
    }
    case Qbf::Kind::kNot: {
      WSV_ASSIGN_OR_RETURN(bool b, EvalQbf(*f.children()[0], env));
      return !b;
    }
    case Qbf::Kind::kAnd:
    case Qbf::Kind::kOr: {
      WSV_ASSIGN_OR_RETURN(bool a, EvalQbf(*f.children()[0], env));
      WSV_ASSIGN_OR_RETURN(bool b, EvalQbf(*f.children()[1], env));
      return f.kind() == Qbf::Kind::kAnd ? (a && b) : (a || b);
    }
    case Qbf::Kind::kExists:
    case Qbf::Kind::kForall: {
      bool exists = f.kind() == Qbf::Kind::kExists;
      auto saved = env.find(f.var());
      std::optional<bool> old;
      if (saved != env.end()) old = saved->second;
      bool result = !exists;
      for (bool v : {false, true}) {
        env[f.var()] = v;
        WSV_ASSIGN_OR_RETURN(bool b, EvalQbf(*f.children()[0], env));
        if (b == exists) {
          result = exists;
          break;
        }
      }
      if (old.has_value()) {
        env[f.var()] = *old;
      } else {
        env.erase(f.var());
      }
      return result;
    }
  }
  return Status::Internal("bad QBF kind");
}

// FO translation phi' as formula text (Lemma A.6): variables become
// x = "1"; quantifiers are guarded by the two input relations.
std::string Translate(const Qbf& f) {
  switch (f.kind()) {
    case Qbf::Kind::kVar:
      return StrCat({"(", f.var(), " = \"1\")"});
    case Qbf::Kind::kNot:
      return StrCat({"!", Translate(*f.children()[0])});
    case Qbf::Kind::kAnd:
      return StrCat({"(", Translate(*f.children()[0]), " & ",
                     Translate(*f.children()[1]), ")"});
    case Qbf::Kind::kOr:
      return StrCat({"(", Translate(*f.children()[0]), " | ",
                     Translate(*f.children()[1]), ")"});
    case Qbf::Kind::kExists: {
      std::string body = Translate(*f.children()[0]);
      return "((exists " + f.var() + " . I0(" + f.var() + ") & " + body +
             ") | (exists " + f.var() + " . I1(" + f.var() + ") & " + body +
             "))";
    }
    case Qbf::Kind::kForall: {
      // forall x phi == !exists x !phi, expressed with guarded foralls:
      // (forall x . I0(x) -> phi) & (forall x . I1(x) -> phi).
      std::string body = Translate(*f.children()[0]);
      return "((forall " + f.var() + " . I0(" + f.var() + ") -> " + body +
             ") & (forall " + f.var() + " . I1(" + f.var() + ") -> " + body +
             "))";
    }
  }
  return "false";
}

}  // namespace

StatusOr<bool> EvaluateQbf(const Qbf& f) {
  std::map<std::string, bool> env;
  return EvalQbf(f, env);
}

StatusOr<WebService> BuildQbfService(const Qbf& f) {
  ServiceBuilder b("Qbf");
  b.Database("R", 1);
  b.Input("I0", 1).Input("I1", 1);
  std::string cond =
      "I0(\"0\") & I1(\"1\") & " + Translate(f);
  b.Page("W0")
      .Options("I0(x)", "R(x)")
      .Options("I1(x)", "R(x)")
      .Target("W1", cond)
      .Target("W2", cond);
  b.Page("W1");
  b.Page("W2");
  b.Home("W0").Error("ERR");
  return b.Build();
}

QbfPtr RandomQbf(int vars, int clauses, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> names;
  for (int i = 0; i < vars; ++i) {
    names.push_back(StrCat({"v", std::to_string(i)}));
  }
  // Random 3-literal clauses over the variables.
  QbfPtr matrix;
  for (int c = 0; c < clauses; ++c) {
    QbfPtr clause;
    for (int l = 0; l < 3; ++l) {
      std::uniform_int_distribution<size_t> pick(0, names.size() - 1);
      QbfPtr lit = Qbf::Var(names[pick(rng)]);
      if (rng() % 2 == 0) lit = Qbf::Not(std::move(lit));
      clause = clause == nullptr ? lit : Qbf::Or(std::move(clause), lit);
    }
    matrix =
        matrix == nullptr ? clause : Qbf::And(std::move(matrix), clause);
  }
  if (matrix == nullptr) matrix = Qbf::Var(names.front());
  // Alternating quantifier prefix, innermost first.
  QbfPtr out = std::move(matrix);
  for (int i = vars - 1; i >= 0; --i) {
    out = (i % 2 == 0) ? Qbf::Exists(names[static_cast<size_t>(i)], out)
                       : Qbf::Forall(names[static_cast<size_t>(i)], out);
  }
  return out;
}

}  // namespace wsv
