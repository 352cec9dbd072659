#include "fo/bytecode/compiler.h"

#include <map>
#include <optional>
#include <set>
#include <utility>

#include "fo/plan.h"
#include "fo/rewrite.h"

namespace wsv {
namespace fobc {
namespace {

class Compiler {
 public:
  StatusOr<std::shared_ptr<const Program>> CompileBoolProgram(
      const FormulaPtr& f) {
    prog_ = std::make_shared<Program>();
    WSV_RETURN_IF_ERROR(CompileEval(*f));
    Emit(Op::kHalt);
    return Finish(f);
  }

  StatusOr<std::shared_ptr<const Program>> CompileQueryProgram(
      const FormulaPtr& f, const std::vector<std::string>& head_vars) {
    prog_ = std::make_shared<Program>();
    prog_->is_query = true;
    prog_->head_vars = head_vars;
    std::set<std::string> unbound(head_vars.begin(), head_vars.end());
    if (unbound.size() != head_vars.size()) {
      return Status::InvalidArgument("repeated query head variable");
    }
    for (const std::string& v : head_vars) {
      uint32_t r = AllocReg(v);
      scope_[v] = r;
      head_regs_.push_back(r);
    }
    head_pool_ = static_cast<uint32_t>(pool_.size());
    for (uint32_t r : head_regs_) pool_.push_back(MakeOperand(kOperandReg, r));
    WSV_RETURN_IF_ERROR(CompileEnumerate(std::move(unbound), *f));
    Emit(Op::kHalt);
    return Finish(f);
  }

 private:
  // -- Emission helpers -----------------------------------------------------

  uint32_t Here() const { return static_cast<uint32_t>(code_.size()); }

  uint32_t Emit(Op op, uint32_t a = 0, uint32_t b = 0, uint32_t c = 0,
                uint16_t count = 0) {
    Instr in;
    in.op = op;
    in.count = count;
    in.a = a;
    in.b = b;
    in.c = c;
    code_.push_back(in);
    return static_cast<uint32_t>(code_.size() - 1);
  }

  void EnterLoop() {
    ++depth_;
    if (depth_ > max_depth_) max_depth_ = depth_;
  }
  void LeaveLoop() { --depth_; }

  // -- Symbol resolution ----------------------------------------------------

  uint32_t AllocReg(const std::string& name) {
    reg_names_.push_back(name);
    static_bound_.push_back(0);
    return static_cast<uint32_t>(reg_names_.size() - 1);
  }

  /// Register for a variable occurrence. Unseen names are free variables
  /// of the program: they get a register loaded from the entry valuation
  /// (invalid when the caller leaves them unbound).
  uint32_t VarReg(const std::string& name) {
    auto it = scope_.find(name);
    if (it != scope_.end()) return it->second;
    uint32_t r = AllocReg(name);
    scope_[name] = r;
    free_vars_.push_back({name, r});
    return r;
  }

  uint32_t ConstSlotFor(const Term& t) {
    if (t.is_literal()) {
      auto it = literal_slots_.find(t.literal().id());
      if (it != literal_slots_.end()) return it->second;
      ConstSlot slot;
      slot.is_symbol = false;
      slot.literal = t.literal();
      consts_.push_back(std::move(slot));
      uint32_t idx = static_cast<uint32_t>(consts_.size() - 1);
      literal_slots_[t.literal().id()] = idx;
      return idx;
    }
    auto it = symbol_slots_.find(t.name());
    if (it != symbol_slots_.end()) return it->second;
    ConstSlot slot;
    slot.is_symbol = true;
    slot.symbol = t.symbol();
    consts_.push_back(std::move(slot));
    uint32_t idx = static_cast<uint32_t>(consts_.size() - 1);
    symbol_slots_[t.name()] = idx;
    return idx;
  }

  uint32_t RelSlotFor(const Atom& atom) {
    auto key = std::make_pair(atom.relation, atom.prev);
    auto it = rel_slots_.find(key);
    if (it != rel_slots_.end()) return it->second;
    RelSlot slot;
    slot.relation = atom.relation_id;
    slot.prev = atom.prev;
    rels_.push_back(std::move(slot));
    uint32_t idx = static_cast<uint32_t>(rels_.size() - 1);
    rel_slots_[key] = idx;
    return idx;
  }

  /// Operand for a term in load position (kAtom tuples, kEq sides).
  uint32_t LoadOperand(const Term& t) {
    if (t.is_variable()) return MakeOperand(kOperandReg, VarReg(t.name()));
    return MakeOperand(kOperandConst, ConstSlotFor(t));
  }

  // -- Boolean evaluation (mirrors Evaluator::Eval) -------------------------

  Status CompileEval(const Formula& f) {
    switch (f.kind()) {
      case Formula::Kind::kTrue:
        Emit(Op::kFlagSet, 1);
        return Status::OK();
      case Formula::Kind::kFalse:
        Emit(Op::kFlagSet, 0);
        return Status::OK();
      case Formula::Kind::kAtom: {
        const Atom& atom = f.atom();
        uint32_t rel = RelSlotFor(atom);
        uint32_t pool_start = static_cast<uint32_t>(pool_.size());
        for (const Term& t : atom.terms) pool_.push_back(LoadOperand(t));
        Emit(Op::kAtom, rel, pool_start, 0,
             static_cast<uint16_t>(atom.terms.size()));
        return Status::OK();
      }
      case Formula::Kind::kEquals: {
        uint32_t lhs = LoadOperand(f.lhs());
        uint32_t rhs = LoadOperand(f.rhs());
        Emit(Op::kEq, lhs, rhs);
        return Status::OK();
      }
      case Formula::Kind::kNot: {
        WSV_RETURN_IF_ERROR(CompileEval(*f.children()[0]));
        Emit(Op::kNot);
        return Status::OK();
      }
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr: {
        const bool is_and = f.kind() == Formula::Kind::kAnd;
        const auto& cs = f.children();
        if (cs.empty()) {
          Emit(Op::kFlagSet, is_and ? 1 : 0);
          return Status::OK();
        }
        std::vector<uint32_t> jumps;
        for (size_t i = 0; i < cs.size(); ++i) {
          WSV_RETURN_IF_ERROR(CompileEval(*cs[i]));
          if (i + 1 < cs.size()) {
            jumps.push_back(Emit(is_and ? Op::kJumpIfFalse : Op::kJumpIfTrue));
          }
        }
        for (uint32_t j : jumps) code_[j].a = Here();
        return Status::OK();
      }
      case Formula::Kind::kExists:
      case Formula::Kind::kForall: {
        // Quantified variables shadow any outer binding: fresh registers.
        std::set<std::string> vars(f.variables().begin(), f.variables().end());
        std::vector<std::pair<std::string, std::optional<uint32_t>>> saved;
        for (const std::string& v : vars) {
          auto it = scope_.find(v);
          saved.emplace_back(v, it == scope_.end()
                                    ? std::nullopt
                                    : std::optional<uint32_t>(it->second));
          scope_[v] = AllocReg(v);
        }
        Status st;
        if (f.kind() == Formula::Kind::kExists) {
          st = CompileExists(vars, *f.body());
        } else {
          // forall x phi == !exists x !phi; NNF re-exposes the guard of
          // the input-bounded pattern forall x (alpha -> phi).
          FormulaPtr negated = ToNNF(*Formula::Not(f.body()));
          st = CompileExists(vars, *negated);
          if (st.ok()) Emit(Op::kNot);
        }
        for (auto& [v, old] : saved) {
          if (old.has_value()) {
            scope_[v] = *old;
          } else {
            scope_.erase(v);
          }
        }
        return st;
      }
    }
    return Status::Internal("bad formula kind");
  }

  /// Conjunction of an already-flattened conjunct list, left to right
  /// with short-circuiting.
  Status CompileConjunction(const std::vector<const Formula*>& conjuncts) {
    if (conjuncts.empty()) {
      Emit(Op::kFlagSet, 1);
      return Status::OK();
    }
    std::vector<uint32_t> jumps;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      WSV_RETURN_IF_ERROR(CompileEval(*conjuncts[i]));
      if (i + 1 < conjuncts.size()) jumps.push_back(Emit(Op::kJumpIfFalse));
    }
    for (uint32_t j : jumps) code_[j].a = Here();
    return Status::OK();
  }

  /// Opens the loop of a planning step without a guard (fo/plan.h): a
  /// kPinBegin for the first equality-pinned variable of `*vars`, else a
  /// kDomBegin for its first variable. Removes the variable from `*vars`
  /// and returns the loop's first instruction (its exit is patched into
  /// `c` by the caller). Both read the active domain.
  uint32_t EmitUnguardedBegin(const std::vector<const Formula*>& conjuncts,
                              std::set<std::string>* vars) {
    const Pin pin = FindPin(conjuncts, *vars);
    const std::string var =
        pin.var != nullptr ? pin.var->name() : *vars->begin();
    vars->erase(var);
    uint32_t reg = scope_.at(var);
    static_bound_[reg] = 1;
    uses_domain_ = true;
    if (pin.var != nullptr) {
      return Emit(Op::kPinBegin, reg, LoadOperand(*pin.value));
    }
    return Emit(Op::kDomBegin, reg);
  }

  // -- Existential evaluation (mirrors Evaluator::EvalExists) ---------------

  Status CompileExists(const std::set<std::string>& vars,
                       const Formula& body) {
    if (vars.empty()) return CompileEval(body);
    std::vector<const Formula*> conjuncts;
    FlattenAnd(body, &conjuncts);
    return CompileExistsStep(vars, conjuncts);
  }

  Status CompileExistsStep(std::set<std::string> vars,
                           std::vector<const Formula*> conjuncts) {
    if (vars.empty()) return CompileConjunction(conjuncts);

    // Guard selection: the first atom conjunct binding a quantified var.
    const Formula* guard = FindGuard(conjuncts, vars);

    if (guard == nullptr) {
      // No guard (nor for any subset, in the recursion): bind a pinned
      // variable to its value, or else one variable over the active
      // domain.
      uint32_t dom = EmitUnguardedBegin(conjuncts, &vars);
      EnterLoop();
      WSV_RETURN_IF_ERROR(CompileExistsStep(std::move(vars),
                                            std::move(conjuncts)));
      uint32_t jf = Emit(Op::kJumpIfFalse);
      uint32_t brk = Emit(Op::kBreak);
      code_[jf].a = Here();
      Emit(Op::kDomNext, dom);
      LeaveLoop();
      code_[dom].c = Here();
      code_[brk].a = Here();
      return Status::OK();
    }

    const Atom& atom = guard->atom();
    uint32_t rel = RelSlotFor(atom);
    uint32_t pool_start = static_cast<uint32_t>(pool_.size());
    for (const Term& t : atom.terms) {
      if (!t.is_variable()) {
        pool_.push_back(MakeOperand(kOperandConst, ConstSlotFor(t)));
        continue;
      }
      const std::string& n = t.name();
      if (vars.count(n) > 0) {
        // First occurrence binds; later positions of the same variable
        // fall through to the check case below.
        uint32_t r = scope_.at(n);
        pool_.push_back(MakeOperand(kOperandBind, r));
        static_bound_[r] = 1;
        vars.erase(n);
      } else {
        // Already-bound quantified var, outer binding, or free variable
        // (an unbound free variable rejects the tuple).
        pool_.push_back(MakeOperand(kOperandCheck, VarReg(n)));
      }
    }
    std::vector<const Formula*> rest;
    rest.reserve(conjuncts.size());
    for (const Formula* c : conjuncts) {
      if (c != guard) rest.push_back(c);
    }
    uint32_t scan = Emit(Op::kScanBegin, rel, pool_start, 0,
                         static_cast<uint16_t>(atom.terms.size()));
    EnterLoop();
    WSV_RETURN_IF_ERROR(CompileExistsStep(std::move(vars), std::move(rest)));
    uint32_t jf = Emit(Op::kJumpIfFalse);
    uint32_t brk = Emit(Op::kBreak);
    code_[jf].a = Here();
    Emit(Op::kScanNext, scan);
    LeaveLoop();
    code_[scan].c = Here();
    code_[brk].a = Here();
    return Status::OK();
  }

  // -- Query enumeration (mirrors QueryEnumerator::Enumerate) ---------------

  Status CompileEnumerate(std::set<std::string> unbound,
                          const Formula& body) {
    if (unbound.empty()) {
      // Emit point: re-evaluate the (branch) body under the current
      // bindings, then append the head tuple.
      WSV_RETURN_IF_ERROR(CompileEval(body));
      uint32_t jf = Emit(Op::kJumpIfFalse);
      Emit(Op::kEmit, head_pool_, 0, 0,
           static_cast<uint16_t>(head_regs_.size()));
      code_[jf].a = Here();
      return Status::OK();
    }

    // Disjunction: enumerate each branch (results are a union); each
    // branch re-binds the head registers from scratch.
    if (body.kind() == Formula::Kind::kOr) {
      for (const FormulaPtr& c : body.children()) {
        std::vector<char> saved;
        saved.reserve(head_regs_.size());
        for (uint32_t r : head_regs_) saved.push_back(static_bound_[r]);
        WSV_RETURN_IF_ERROR(CompileEnumerate(unbound, *c));
        for (size_t i = 0; i < head_regs_.size(); ++i) {
          static_bound_[head_regs_[i]] = saved[i];
        }
      }
      return Status::OK();
    }

    std::vector<const Formula*> conjuncts;
    FlattenAnd(body, &conjuncts);
    const Formula* guard = FindGuard(conjuncts, unbound);

    if (guard == nullptr) {
      // Pin or domain loop, without early exit: every binding enumerates.
      uint32_t dom = EmitUnguardedBegin(conjuncts, &unbound);
      EnterLoop();
      WSV_RETURN_IF_ERROR(CompileEnumerate(std::move(unbound), body));
      Emit(Op::kDomNext, dom);
      LeaveLoop();
      code_[dom].c = Here();
      return Status::OK();
    }

    const Atom& atom = guard->atom();
    uint32_t rel = RelSlotFor(atom);
    uint32_t pool_start = static_cast<uint32_t>(pool_.size());
    std::set<std::string> rest = unbound;
    for (const Term& t : atom.terms) {
      if (!t.is_variable()) {
        pool_.push_back(MakeOperand(kOperandConst, ConstSlotFor(t)));
        continue;
      }
      const std::string& n = t.name();
      if (rest.count(n) > 0) {
        uint32_t r = scope_.at(n);
        pool_.push_back(MakeOperand(kOperandBind, r));
        static_bound_[r] = 1;
        rest.erase(n);
      } else if (unbound.count(n) > 0) {
        // Repeated occurrence within this atom: bound just above.
        pool_.push_back(MakeOperand(kOperandCheck, scope_.at(n)));
      } else {
        // Non-head variable: constrain only if bound (the enumerator's
        // skip-constraint rule), so the check is soft unless the
        // register is statically known to be bound.
        uint32_t r = VarReg(n);
        pool_.push_back(MakeOperand(
            static_bound_[r] ? kOperandCheck : kOperandCheckSoft, r));
      }
    }
    uint32_t scan = Emit(Op::kScanBegin, rel, pool_start, 0,
                         static_cast<uint16_t>(atom.terms.size()));
    EnterLoop();
    // Recurse on the *full* body: the emit point re-checks every
    // conjunct of the branch.
    WSV_RETURN_IF_ERROR(CompileEnumerate(std::move(rest), body));
    Emit(Op::kScanNext, scan);
    LeaveLoop();
    code_[scan].c = Here();
    return Status::OK();
  }

  // -- Finalization ---------------------------------------------------------

  StatusOr<std::shared_ptr<const Program>> Finish(const FormulaPtr& f) {
    prog_->code = std::move(code_);
    prog_->pool = std::move(pool_);
    prog_->consts = std::move(consts_);
    prog_->rels = std::move(rels_);
    prog_->num_regs = static_cast<uint32_t>(reg_names_.size());
    prog_->reg_names = std::move(reg_names_);
    prog_->free_vars = std::move(free_vars_);
    prog_->max_frames = max_depth_;
    prog_->uses_domain = uses_domain_;
    for (const std::string& c : f->ConstantSymbols()) {
      prog_->constant_symbols.push_back(InternName(c));
    }
    prog_->literals = f->Literals();
    return std::shared_ptr<const Program>(std::move(prog_));
  }

  std::shared_ptr<Program> prog_;
  std::vector<Instr> code_;
  std::vector<uint32_t> pool_;
  std::vector<ConstSlot> consts_;
  std::vector<RelSlot> rels_;
  std::vector<std::string> reg_names_;
  std::vector<std::pair<std::string, uint32_t>> free_vars_;
  std::vector<char> static_bound_;  // per register: bound on every path?
  std::map<std::string, uint32_t> scope_;
  std::map<int32_t, uint32_t> literal_slots_;
  std::map<std::string, uint32_t> symbol_slots_;
  std::map<std::pair<std::string, bool>, uint32_t> rel_slots_;
  std::vector<uint32_t> head_regs_;
  uint32_t head_pool_ = 0;
  uint32_t depth_ = 0;
  uint32_t max_depth_ = 0;
  bool uses_domain_ = false;
};

}  // namespace

StatusOr<std::shared_ptr<const Program>> CompileBool(const FormulaPtr& f) {
  if (f == nullptr) return Status::InvalidArgument("null formula");
  Compiler c;
  return c.CompileBoolProgram(f);
}

StatusOr<std::shared_ptr<const Program>> CompileQuery(
    const FormulaPtr& f, const std::vector<std::string>& head_vars) {
  if (f == nullptr) return Status::InvalidArgument("null formula");
  Compiler c;
  return c.CompileQueryProgram(f, head_vars);
}

}  // namespace fobc
}  // namespace wsv
