// Active-domain evaluation of FO formulas (Section 2): the structure a
// formula is evaluated against, and the plan-free oracle.
//
// Rule formulas are evaluated over a layered structure combining the fixed
// database D, the current state S, the current inputs I, the previous
// inputs Prev_I, and the interpretation of the input constants provided so
// far. Quantifiers range over the active domain of the combined structure,
// as is standard in database theory.
//
// The engine is the bytecode VM (fo/bytecode/): every verification path
// compiles its formulas and runs them there. The oracle below follows the
// textbook definition and nothing else, for witness validation and tests.

#ifndef WSV_FO_EVALUATOR_H_
#define WSV_FO_EVALUATOR_H_

#include <array>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/small_vector.h"
#include "common/status.h"
#include "fo/formula.h"
#include "relational/decided.h"
#include "relational/instance.h"

namespace wsv {

/// The structure a formula is evaluated against: an ordered stack of
/// instance layers (earlier layers shadow later ones for relation lookup),
/// a dedicated layer for Prev_I atoms, and constant overrides (used for
/// the run's accumulating input-constant interpretation). Relations and
/// constants resolve by interned name id (relational/name.h); the
/// string-keyed overloads are for tests and count as name lookups. The
/// layers sit in a fixed array, so building or copying a context
/// allocates nothing for them.
class EvalContext {
 public:
  /// The most layers a context holds (a step's structure uses five).
  static constexpr size_t kMaxLayers = 6;
  /// Active-domain values held without allocating.
  static constexpr size_t kInlineDomain = 48;

  EvalContext() = default;

  /// Adds an instance layer. Lookup order is addition order. At most
  /// kMaxLayers layers.
  void AddLayer(const Instance* instance);

  /// Sets the instance used to resolve prev.I atoms (relation names in it
  /// are the plain input relation names).
  void SetPrevLayer(const Instance* instance) {
    prev_layer_ = instance;
    domain_valid_ = false;
  }

  /// Binds a constant symbol, overriding any layer's binding.
  void SetConstant(NameId name, Value v);
  void SetConstant(const std::string& name, Value v);

  /// Binds every constant symbol of `*constants`, read through the
  /// pointer rather than copied: after SetConstant's overrides, before
  /// any layer's binding. The map must outlive the context; the run's
  /// input-constant interpretation kappa is bound this way.
  void SetConstantLayer(const NameMap<Value>* constants) {
    constant_layer_ = constants;
    domain_valid_ = false;
  }

  /// Attaches a log of database probes (relational/decided.h): every
  /// constant this context resolves is reported to it, and the VM
  /// reports each database atom and relation scan before any short cut.
  /// Null (the default) logs nothing.
  void SetProbeLog(ProbeLog* probes) { probes_ = probes; }
  ProbeLog* probes() const { return probes_; }

  /// Adds extra elements to the active domain beyond the layers' domains.
  void AddDomainValue(Value v) {
    extra_domain_.push_back(v);
    domain_valid_ = false;
  }

  /// Resolves a relation; nullptr means the relation is empty/absent.
  const Relation* ResolveRelation(NameId name, bool prev) const {
    if (prev) {
      return prev_layer_ == nullptr ? nullptr
                                    : prev_layer_->FindRelation(name);
    }
    for (size_t i = 0; i < num_layers_; ++i) {
      if (const Relation* rel = layers_[i]->FindRelation(name)) return rel;
    }
    return nullptr;
  }
  const Relation* ResolveRelation(const std::string& name, bool prev) const;

  /// Resolves a constant symbol; nullopt if no layer or override binds it.
  std::optional<Value> ResolveConstant(NameId name) const;
  std::optional<Value> ResolveConstant(const std::string& name) const;

  /// The active domain: union of all layer domains, constant overrides,
  /// the constant layer's values and extra values, in Value order. The
  /// layers' domains are sorted already, so the union is a merge into a
  /// vector the context keeps (inline up to kInlineDomain values).
  /// Built only by evaluations that loop over it (in the VM, a variable
  /// that no guard atom and no equality pin binds; fo/plan.h; the oracle
  /// loops over it for every quantifier). Memoized until the
  /// next mutator call; the lazy const materialization is not
  /// synchronized, so a context must not see its first ActiveDomain()
  /// call from two threads at once (contexts are built per evaluation
  /// everywhere in the repo).
  Row ActiveDomain() const;

  /// Whether `v` is in ActiveDomain(), answered from the layers' sorted
  /// domains, the prev layer, the constant overrides, the constant layer
  /// and the extra values without building the union. An equality pin
  /// x = t binds x only when t's value passes this test.
  bool InActiveDomain(Value v) const;

 private:
  std::array<const Instance*, kMaxLayers> layers_{};
  size_t num_layers_ = 0;
  const Instance* prev_layer_ = nullptr;
  NameMap<Value> constant_overrides_;
  const NameMap<Value>* constant_layer_ = nullptr;
  /// In insertion order, possibly repeated.
  SmallVector<Value, 8> extra_domain_;
  ProbeLog* probes_ = nullptr;
  mutable SmallVector<Value, kInlineDomain> domain_cache_;
  mutable bool domain_valid_ = false;
};

/// A variable assignment.
using Valuation = std::map<std::string, Value>;

/// The plan-free oracle: FO evaluation by the textbook definition.
/// Every quantifier and every query head ranges over ctx.ActiveDomain();
/// there are no guard scans, no equality pins, no NNF rewriting of
/// universals and no probe log. It shares no planning with the bytecode
/// compiler (fo/plan.h), so a planning bug shows as a disagreement with
/// it. It is for witness validation (verify/witness_check.h) and tests,
/// never for a verification path; each call counts fo/interp_evals.
///
/// Whenever both the oracle and the VM return a value, the values agree.
/// The VM's plan skips evaluations, so it may succeed where the oracle
/// fails with Internal on an unbound variable or constant symbol.
StatusOr<bool> OracleEvaluate(const Formula& formula, const EvalContext& ctx,
                              const Valuation& valuation = {});

/// The oracle as a query: every tuple over the active domain (in `vars`
/// order, which must be distinct) under which `formula` holds;
/// `valuation` binds the other free variables.
StatusOr<std::set<Tuple>> OracleEvaluateQuery(
    const Formula& formula, const std::vector<std::string>& vars,
    const EvalContext& ctx, const Valuation& valuation = {});

}  // namespace wsv

#endif  // WSV_FO_EVALUATOR_H_
