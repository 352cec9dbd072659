#include "fo/plan.h"

namespace wsv {

// NOLINTNEXTLINE(misc-no-recursion)
void FlattenAnd(const Formula& f, std::vector<const Formula*>* out) {
  if (f.kind() == Formula::Kind::kAnd) {
    for (const FormulaPtr& c : f.children()) FlattenAnd(*c, out);
  } else {
    out->push_back(&f);
  }
}

const Formula* FindGuard(const std::vector<const Formula*>& conjuncts,
                         const std::set<std::string>& vars) {
  for (const Formula* c : conjuncts) {
    if (c->kind() != Formula::Kind::kAtom) continue;
    for (const Term& t : c->atom().terms) {
      if (t.is_variable() && vars.count(t.name()) > 0) return c;
    }
  }
  return nullptr;
}

Pin FindPin(const std::vector<const Formula*>& conjuncts,
            const std::set<std::string>& vars) {
  auto planned = [&](const Term& t) {
    return t.is_variable() && vars.count(t.name()) > 0;
  };
  for (const Formula* c : conjuncts) {
    if (c->kind() != Formula::Kind::kEquals) continue;
    const Term& lhs = c->lhs();
    const Term& rhs = c->rhs();
    if (planned(lhs) && !planned(rhs)) return Pin{&lhs, &rhs};
    if (planned(rhs) && !planned(lhs)) return Pin{&rhs, &lhs};
  }
  return Pin{};
}

}  // namespace wsv
