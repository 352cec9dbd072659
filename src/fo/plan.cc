#include "fo/plan.h"

#include <algorithm>

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

namespace {

// The query plan without the data: a disjunction costs its costliest
// branch, a guard atom binds its unbound variables and a pin its
// variable for free, and otherwise one variable takes a domain loop.
// NOLINTNEXTLINE(misc-no-recursion)
int DomainLoops(const Formula& body, std::set<std::string> unbound) {
  if (unbound.empty()) return 0;
  if (body.kind() == Formula::Kind::kOr) {
    int worst = 0;
    for (const FormulaPtr& c : body.children()) {
      worst = std::max(worst, DomainLoops(*c, unbound));
    }
    return worst;
  }
  std::vector<const Formula*> conjuncts;
  FlattenAnd(body, &conjuncts);
  if (const Formula* guard = FindGuard(conjuncts, unbound)) {
    for (const Term& t : guard->atom().terms) {
      if (t.is_variable()) unbound.erase(t.name());
    }
    return DomainLoops(body, std::move(unbound));
  }
  const Pin pin = FindPin(conjuncts, unbound);
  if (pin.var != nullptr) {
    unbound.erase(pin.var->name());
    return DomainLoops(body, std::move(unbound));
  }
  unbound.erase(unbound.begin());
  return 1 + DomainLoops(body, std::move(unbound));
}

}  // namespace

int QueryDomainLoops(const Formula& formula,
                     const std::vector<std::string>& vars) {
  return DomainLoops(formula, std::set<std::string>(vars.begin(), vars.end()));
}

}  // namespace wsv
