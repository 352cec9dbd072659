// E+TC: existential first-order logic with transitive closure.
//
// Theorem 3.5's upper bound works by reducing verification of
// input-bounded LTL-FO properties to finite satisfiability of E+TC
// sentences (following Spielmann's reduction for ASM transducers; see
// Appendix A.1). This module makes that reduction target a first-class
// object: an AST for E+TC formulas, a model checker over finite
// structures (TC computed as a fixpoint), and a brute-force bounded
// satisfiability search used in tests and to exhibit the pipeline on tiny
// vocabularies. The production verifier (verify/ltl_verifier.h) explores
// configuration graphs directly instead of going through E+TC, which is
// equivalent on bounded instances and far more practical.

#ifndef WSV_FO_ETC_H_
#define WSV_FO_ETC_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "fo/evaluator.h"
#include "fo/formula.h"

namespace wsv {

class EtcFormula;
using EtcPtr = std::shared_ptr<const EtcFormula>;

/// An E+TC formula: positive boolean combinations and existential
/// quantification over FO leaves and transitive-closure applications.
class EtcFormula {
 public:
  enum class Kind {
    kFo,      // an FO formula leaf (must itself be existential)
    kAnd,
    kOr,
    kExists,
    kTc,      // [TC_{x;y} body](source; target)
  };

  static EtcPtr Fo(FormulaPtr f);
  static EtcPtr And(std::vector<EtcPtr> parts);
  static EtcPtr Or(std::vector<EtcPtr> parts);
  static EtcPtr Exists(std::vector<std::string> vars, EtcPtr body);
  /// Transitive closure: `xs` and `ys` are the 2k bound variable vectors
  /// of the closed binary relation on k-tuples defined by `body`;
  /// `source`/`target` are the k-tuples of terms it is applied to.
  static EtcPtr Tc(std::vector<std::string> xs, std::vector<std::string> ys,
                   EtcPtr body, std::vector<Term> source,
                   std::vector<Term> target);

  Kind kind() const { return kind_; }
  const FormulaPtr& fo() const { return fo_; }
  const std::vector<EtcPtr>& children() const { return children_; }
  const std::vector<std::string>& variables() const { return vars_; }
  const std::vector<std::string>& tc_xs() const { return vars_; }
  const std::vector<std::string>& tc_ys() const { return ys_; }
  const std::vector<Term>& tc_source() const { return source_; }
  const std::vector<Term>& tc_target() const { return target_; }

  std::string ToString() const;

 protected:
  // Construction goes through the factories.
  explicit EtcFormula(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
  FormulaPtr fo_;
  std::vector<EtcPtr> children_;
  std::vector<std::string> vars_;  // kExists vars, or TC xs
  std::vector<std::string> ys_;    // TC ys
  std::vector<Term> source_;
  std::vector<Term> target_;
};

/// Model-checks an E+TC formula over the given context. TC is evaluated
/// as a reachability fixpoint over k-tuples of the active domain; FO
/// subformulas run on the plan-free oracle (fo/evaluator.h), so this is
/// a reference evaluator for tests, not an engine.
StatusOr<bool> EvaluateEtc(const EtcFormula& f, const EvalContext& ctx,
                           const Valuation& valuation = {});

/// A relation schema entry for bounded satisfiability search.
struct EtcRelationSpec {
  std::string name;
  int arity;
};

/// Brute-force finite satisfiability: searches for a structure over the
/// given relations with domain size at most `max_domain`, returning a
/// witness instance if one satisfies `f`. Exponential in every parameter;
/// intended for tiny vocabularies (tests, pipeline demonstrations).
StatusOr<std::optional<Instance>> BoundedSatisfiable(
    const EtcFormula& f, const std::vector<EtcRelationSpec>& relations,
    int max_domain);

}  // namespace wsv

#endif  // WSV_FO_ETC_H_
