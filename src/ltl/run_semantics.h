// LTL-FO semantics over concrete runs (Section 3).
//
// Runs are infinite; we represent the ultimately-periodic ones as lassos
// (a finite prefix plus a loop), which is exactly the shape of
// counterexamples produced by the verifier and of runs that reach the
// error page or otherwise cycle.
//
// An FO sentence is satisfied at step i iff (a) every input constant it
// mentions has been provided by step i (kappa_i), and (b) the structure
// combining the database, S_i, I_i, P_i, A_i, kappa_i and the page
// propositions (V_i true, all other pages false) satisfies it.

#ifndef WSV_LTL_RUN_SEMANTICS_H_
#define WSV_LTL_RUN_SEMANTICS_H_

#include <map>
#include <set>
#include <string>
#include <deque>
#include <vector>

#include "common/status.h"
#include "fo/bytecode/program.h"
#include "fo/evaluator.h"
#include "ltl/ltl.h"
#include "runtime/config.h"
#include "ws/service.h"

namespace wsv {

/// An ultimately periodic run: steps[0..n) followed by looping back to
/// steps[loop_start].
struct LassoRun {
  std::vector<TraceStep> steps;
  size_t loop_start = 0;

  std::string ToString() const;
};

/// A non-owning view of one trace element; the verifiers label edges
/// through views to avoid materializing instances per edge.
struct TraceView {
  const std::string* page = nullptr;
  /// `page` interned; kNoName makes the step context intern it.
  NameId page_id = kNoName;
  const Instance* state = nullptr;
  const Instance* inputs = nullptr;
  const Instance* prev_inputs = nullptr;
  const Instance* actions = nullptr;
  const Kappa* kappa = nullptr;
};

/// The page propositions of every page of a service: for page V, the
/// instance with V's proposition true and every other page's false. An
/// FO structure at a step reads its page's instance from here instead of
/// building one per step, indexed by the page's interned name.
/// Immutable after construction, so concurrent sweeps share one table;
/// it must outlive the contexts that read it.
class PagePropositions {
 public:
  explicit PagePropositions(const WebService& service);
  PagePropositions(const PagePropositions&) = delete;
  PagePropositions& operator=(const PagePropositions&) = delete;

  /// The instance for `page`; every proposition false for a name that
  /// is not a page of the service.
  const Instance& For(NameId page) const {
    const size_t i = static_cast<size_t>(page);
    return page >= 0 && i < by_id_.size() && by_id_[i] != nullptr
               ? *by_id_[i]
               : none_;
  }

 private:
  std::deque<Instance> pages_;
  /// Interned page name -> its instance in pages_; null for other names.
  std::vector<const Instance*> by_id_;
  Instance none_;
};

/// The evaluation structure of one trace step, leaf-independent part:
/// the instance layers, the page propositions (V_i true, all other pages
/// false) and the provided input constants kappa_i. Built once per step
/// and shared by every leaf queried there; each query copies the context
/// and adds its own active-domain extension. Keeps pointers into
/// the step's instances and kappa, `database` and `pages`, which must
/// outlive it (configuration-graph views stay valid as the graph grows).
class StepContext {
 public:
  StepContext(const TraceView& step, const Instance& database,
              const WebService& service, const PagePropositions& pages);
  StepContext(const StepContext&) = delete;
  StepContext& operator=(const StepContext&) = delete;

  /// Condition (a): every input constant among `csyms` (interned
  /// constant symbols) is in kappa_i.
  bool InputConstantsProvided(const std::vector<NameId>& csyms) const;

  const EvalContext& context() const { return ctx_; }

 private:
  // The one-shot EvalFoAtStep extends the context in place instead of
  // copying it.
  friend StatusOr<bool> EvalFoAtStep(const Formula& leaf,
                                     const fobc::Program* prog,
                                     const TraceView& step,
                                     const Instance& database,
                                     const WebService& service,
                                     const PagePropositions& pages,
                                     const Valuation& valuation);

  const WebService& service_;
  const Kappa* kappa_;
  EvalContext ctx_;
};

/// Evaluates one FO leaf at one trace step under `valuation` (bindings
/// for the property's universal closure variables). `prog` is the
/// leaf's program as its owner compiled it once
/// (fobc::GetOrCompileBool); nullptr runs the plan-free oracle
/// (fo/evaluator.h) instead, which only witness validation asks for.
/// `pages` is the service's
/// page-proposition table. Not timed itself: callers time a batch of
/// calls under ltl/leaf_eval_ns.
StatusOr<bool> EvalFoAtStep(const Formula& leaf, const fobc::Program* prog,
                            const TraceView& step, const Instance& database,
                            const WebService& service,
                            const PagePropositions& pages,
                            const Valuation& valuation);

/// Set-at-a-time counterpart of EvalFoAtStep: replaces `rows` with the
/// tuples of values for the head variables of `prog` (a leaf's query
/// program, fobc::GetOrCompileQuery) under which the leaf's FO structure
/// satisfies it, flattened prog.head_vars.size() values per tuple; a
/// tuple may repeat. The active domain is the step's plus the leaf's
/// literals plus `extra_domain`; head variables range over it, so a
/// caller reading the answer at a binding must have that binding's
/// values in the domain, and the answer agrees with EvalFoAtStep at a
/// binding only where both evaluations see the same domain (always, for
/// a quantifier-free leaf). Returns false, with `rows` empty, when
/// condition (a) fails — the leaf is then false at every binding,
/// whatever it says. Untimed.
StatusOr<bool> QueryFoAtStep(const fobc::Program& prog,
                             const StepContext& step,
                             const std::vector<Value>& extra_domain,
                             std::vector<Value>* rows);

/// Evaluates an LTL-FO property on a lasso run: true iff the run
/// satisfies the universal closure, with the closure variables ranging
/// over the run's active domain (database, all step instances, provided
/// constants, and the property's literals). The leaves run on
/// FoEngine::kCompiled. Fails with InvalidArgument if the property
/// contains path quantifiers.
StatusOr<bool> EvaluateLtlOnLasso(const TemporalProperty& prop,
                                  const LassoRun& run,
                                  const Instance& database,
                                  const WebService& service);

/// Which FO evaluator a lasso evaluation runs on its leaves.
enum class FoEngine {
  /// The leaves' compiled programs (fobc::GetOrCompileBool), run on the
  /// VM.
  kCompiled,
  /// The plan-free oracle (fo/evaluator.h): the independent check
  /// witness validation re-evaluates verdicts with.
  kOracle,
};

/// Evaluates the (closed) temporal formula on the lasso for one fixed
/// valuation of the closure variables, with `engine` on the FO leaves.
StatusOr<bool> EvaluateLtlOnLassoWithValuation(const TFormula& formula,
                                               const LassoRun& run,
                                               const Instance& database,
                                               const WebService& service,
                                               const Valuation& valuation,
                                               FoEngine engine);

}  // namespace wsv

#endif  // WSV_LTL_RUN_SEMANTICS_H_
