#include "ltl/run_semantics.h"

#include <memory>
#include <set>

#include "fo/bytecode/cache.h"
#include "fo/bytecode/vm.h"
#include "obs/metrics.h"

namespace wsv {

std::string LassoRun::ToString() const {
  std::string out;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i == loop_start) out += "--- loop ---\n";
    out += "step " + std::to_string(i) + ": " + steps[i].ToString() + "\n";
  }
  return out;
}

PagePropositions::PagePropositions(const WebService& service) {
  const std::vector<RelationSymbol> page_syms =
      service.vocab().RelationsOfKind(SymbolKind::kPage);
  std::vector<NameId> ids;
  for (const RelationSymbol& sym : page_syms) {
    ids.push_back(sym.id);
    (void)none_.EnsureRelation(ids.back(), 0);
  }
  for (NameId id : ids) {
    Instance& pages = pages_.emplace_back(none_);
    pages.MutableRelation(id)->SetBool(true);
    const size_t i = static_cast<size_t>(id);
    if (by_id_.size() <= i) by_id_.resize(i + 1, nullptr);
    by_id_[i] = &pages;
  }
}

StepContext::StepContext(const TraceView& step, const Instance& database,
                         const WebService& service,
                         const PagePropositions& pages)
    : service_(service), kappa_(step.kappa) {
  ctx_.AddLayer(step.inputs);
  ctx_.AddLayer(step.state);
  ctx_.AddLayer(step.actions);
  ctx_.AddLayer(&pages.For(
      step.page_id != kNoName ? step.page_id : InternName(*step.page)));
  ctx_.AddLayer(&database);
  ctx_.SetPrevLayer(step.prev_inputs);
  ctx_.SetConstantLayer(kappa_);
}

namespace {

bool ConstantsProvided(const WebService& service, const Kappa& kappa,
                       const std::vector<NameId>& csyms) {
  for (NameId c : csyms) {
    if (service.vocab().IsInputConstant(c) && !kappa.Contains(c)) {
      return false;
    }
  }
  return true;
}

// The leaf's constant-symbol and literal analyses: from the compiled
// program when there is one (so the hot path re-derives neither), else
// (for the oracle) computed into the fallback buffers.
struct LeafAnalyses {
  const std::vector<NameId>* csyms;
  const std::set<Value>* lits;
  std::vector<NameId> csyms_fallback;
  std::set<Value> lits_fallback;

  LeafAnalyses(const Formula& leaf, const fobc::Program* prog) {
    if (prog != nullptr) {
      csyms = &prog->constant_symbols;
      lits = &prog->literals;
    } else {
      for (const std::string& c : leaf.ConstantSymbols()) {
        csyms_fallback.push_back(InternName(c));
      }
      lits_fallback = leaf.Literals();
      csyms = &csyms_fallback;
      lits = &lits_fallback;
    }
  }
};

// Only domain loops read the active domain, so a compiled program
// without any skips extending it; the oracle (no program) reads it for
// every quantifier.
bool ReadsDomain(const fobc::Program* prog) {
  return prog == nullptr || prog->uses_domain;
}

}  // namespace

bool StepContext::InputConstantsProvided(
    const std::vector<NameId>& csyms) const {
  return ConstantsProvided(service_, *kappa_, csyms);
}

StatusOr<bool> QueryFoAtStep(const fobc::Program& prog,
                             const StepContext& step,
                             const std::vector<Value>& extra_domain,
                             std::vector<Value>* rows) {
  rows->clear();
  if (!step.InputConstantsProvided(prog.constant_symbols)) return false;
  EvalContext ctx = step.context();
  if (prog.uses_domain) {
    for (Value v : prog.literals) ctx.AddDomainValue(v);
    for (Value v : extra_domain) ctx.AddDomainValue(v);
  }
  WSV_RETURN_IF_ERROR(fobc::ExecuteQuery(prog, ctx, rows));
  return true;
}

StatusOr<bool> EvalFoAtStep(const Formula& leaf, const fobc::Program* prog,
                            const TraceView& step, const Instance& database,
                            const WebService& service,
                            const PagePropositions& pages,
                            const Valuation& valuation) {
  const LeafAnalyses an(leaf, prog);
  // Condition (a) first: a leaf naming an unprovided input constant is
  // false without building the structure.
  if (!ConstantsProvided(service, *step.kappa, *an.csyms)) return false;
  StepContext context(step, database, service, pages);
  EvalContext& ctx = context.ctx_;
  if (ReadsDomain(prog)) {
    for (Value v : *an.lits) ctx.AddDomainValue(v);
    for (const auto& [var, v] : valuation) ctx.AddDomainValue(v);
  }
  if (prog != nullptr) return fobc::Execute(*prog, ctx, valuation);
  return OracleEvaluate(leaf, ctx, valuation);
}

namespace {

size_t NextPos(const LassoRun& run, size_t i) {
  return i + 1 < run.steps.size() ? i + 1 : run.loop_start;
}

class LassoEvaluator {
 public:
  LassoEvaluator(const LassoRun& run, const Instance& database,
                 const WebService& service, const PagePropositions& pages,
                 const Valuation& valuation, FoEngine engine)
      : run_(run),
        database_(database),
        service_(service),
        pages_(pages),
        valuation_(valuation),
        engine_(engine) {
    for (const TraceStep& step : run_.steps) {
      page_ids_.push_back(InternName(step.page));
    }
  }

  StatusOr<std::vector<char>> Truth(const TFormula& f) {
    const size_t n = run_.steps.size();
    switch (f.kind()) {
      case TFormula::Kind::kFo: {
        // The leaf's program is compiled once for all steps; the oracle
        // runs without one.
        std::shared_ptr<const fobc::Program> prog;
        if (engine_ == FoEngine::kCompiled) {
          WSV_ASSIGN_OR_RETURN(prog, fobc::GetOrCompileBool(f.fo()));
        }
        std::vector<char> v(n);
        WSV_TIMER("ltl/leaf_eval_ns");  // one batch: the leaf on every step
        for (size_t i = 0; i < n; ++i) {
          const TraceStep& step = run_.steps[i];
          TraceView view;
          view.page = &step.page;
          view.page_id = page_ids_[i];
          view.state = &step.state;
          view.inputs = &step.inputs;
          view.prev_inputs = &step.prev_inputs;
          view.actions = &step.actions;
          view.kappa = &step.kappa;
          WSV_ASSIGN_OR_RETURN(bool b,
                               EvalFoAtStep(*f.fo(), prog.get(), view,
                                            database_, service_, pages_,
                                            valuation_));
          v[i] = b ? 1 : 0;
        }
        return v;
      }
      case TFormula::Kind::kNot: {
        WSV_ASSIGN_OR_RETURN(std::vector<char> sub, Truth(*f.children()[0]));
        for (char& b : sub) b = b ? 0 : 1;
        return sub;
      }
      case TFormula::Kind::kAnd:
      case TFormula::Kind::kOr: {
        bool is_and = f.kind() == TFormula::Kind::kAnd;
        std::vector<char> acc(n, is_and ? 1 : 0);
        for (const TFormulaPtr& c : f.children()) {
          WSV_ASSIGN_OR_RETURN(std::vector<char> sub, Truth(*c));
          for (size_t i = 0; i < n; ++i) {
            acc[i] = is_and ? (acc[i] && sub[i]) : (acc[i] || sub[i]);
          }
        }
        return acc;
      }
      case TFormula::Kind::kX: {
        WSV_ASSIGN_OR_RETURN(std::vector<char> sub, Truth(*f.children()[0]));
        std::vector<char> v(n);
        for (size_t i = 0; i < n; ++i) v[i] = sub[NextPos(run_, i)];
        return v;
      }
      case TFormula::Kind::kU:
      case TFormula::Kind::kB: {
        WSV_ASSIGN_OR_RETURN(std::vector<char> l, Truth(*f.lhs()));
        WSV_ASSIGN_OR_RETURN(std::vector<char> r, Truth(*f.rhs()));
        // U is the least fixpoint of  Z = r | (l & X Z); B ("before",
        // i.e. release) the greatest fixpoint of  Z = r & (l | X Z).
        bool is_until = f.kind() == TFormula::Kind::kU;
        std::vector<char> v(n, is_until ? 0 : 1);
        bool changed = true;
        while (changed) {
          changed = false;
          for (size_t k = n; k-- > 0;) {
            char next = v[NextPos(run_, k)];
            char nv = is_until ? (r[k] || (l[k] && next))
                               : (r[k] && (l[k] || next));
            if (nv != v[k]) {
              v[k] = nv;
              changed = true;
            }
          }
        }
        return v;
      }
      case TFormula::Kind::kE:
      case TFormula::Kind::kA:
        return Status::InvalidArgument(
            "path quantifier in LTL evaluation: " + f.ToString());
    }
    return Status::Internal("bad temporal kind");
  }

 private:
  const LassoRun& run_;
  const Instance& database_;
  const WebService& service_;
  const PagePropositions& pages_;
  const Valuation& valuation_;
  const FoEngine engine_;
  std::vector<NameId> page_ids_;  // per step, its page interned
};

// The run's active domain for closure-variable valuations.
std::vector<Value> RunDomain(const LassoRun& run, const Instance& database,
                             const TFormula& formula) {
  std::set<Value> dom(database.domain().begin(), database.domain().end());
  for (const TraceStep& step : run.steps) {
    for (const Instance* inst :
         {&step.state, &step.inputs, &step.prev_inputs, &step.actions}) {
      dom.insert(inst->domain().begin(), inst->domain().end());
    }
    for (const auto& [name, v] : step.kappa) dom.insert(v);
  }
  std::set<Value> lits = formula.Literals();
  dom.insert(lits.begin(), lits.end());
  return std::vector<Value>(dom.begin(), dom.end());
}

StatusOr<bool> EvaluateOnLasso(const TFormula& formula, const LassoRun& run,
                               const Instance& database,
                               const WebService& service,
                               const PagePropositions& pages,
                               const Valuation& valuation, FoEngine engine) {
  if (run.steps.empty() || run.loop_start >= run.steps.size()) {
    return Status::InvalidArgument("malformed lasso run");
  }
  LassoEvaluator eval(run, database, service, pages, valuation, engine);
  WSV_ASSIGN_OR_RETURN(std::vector<char> v, eval.Truth(formula));
  return v[0] != 0;
}

}  // namespace

StatusOr<bool> EvaluateLtlOnLassoWithValuation(const TFormula& formula,
                                               const LassoRun& run,
                                               const Instance& database,
                                               const WebService& service,
                                               const Valuation& valuation,
                                               FoEngine engine) {
  const PagePropositions pages(service);
  return EvaluateOnLasso(formula, run, database, service, pages, valuation,
                         engine);
}

StatusOr<bool> EvaluateLtlOnLasso(const TemporalProperty& prop,
                                  const LassoRun& run,
                                  const Instance& database,
                                  const WebService& service) {
  if (!prop.formula->IsLtl()) {
    return Status::InvalidArgument(
        "property contains path quantifiers; use the branching-time "
        "checkers");
  }
  std::vector<Value> domain = RunDomain(run, database, *prop.formula);
  const std::vector<std::string>& vars = prop.universal_vars;
  const PagePropositions pages(service);
  if (vars.empty()) {
    return EvaluateOnLasso(*prop.formula, run, database, service, pages, {},
                           FoEngine::kCompiled);
  }
  if (domain.empty()) return true;  // no valuations to check
  std::vector<size_t> idx(vars.size(), 0);
  while (true) {
    Valuation val;
    for (size_t i = 0; i < vars.size(); ++i) val[vars[i]] = domain[idx[i]];
    WSV_ASSIGN_OR_RETURN(
        bool holds, EvaluateOnLasso(*prop.formula, run, database, service,
                                    pages, val, FoEngine::kCompiled));
    if (!holds) return false;
    size_t k = 0;
    while (k < idx.size()) {
      if (++idx[k] < domain.size()) break;
      idx[k] = 0;
      ++k;
    }
    if (k == idx.size()) break;
  }
  return true;
}

}  // namespace wsv
