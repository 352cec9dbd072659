// Register bytecode for FO evaluation: the guard-driven join strategy of
// fo/plan.h compiled into a flat instruction sequence.
//
// A Program is the one-shot compilation of one fo::Formula (either as a
// sentence, yielding a boolean, or as a query with a fixed head-variable
// list, yielding a tuple set). All names are resolved at compile time:
// variables become dense register slots, relation names and constant
// symbols become small integer ids into per-program tables, so the VM's
// inner loop does zero string hashing and zero allocation in steady
// state (see fo/bytecode/vm.h for the execution model and DESIGN.md §8
// for the ISA rationale).
//
// The VM is the one FO engine of every verification path. The plan-free
// oracle (fo/evaluator.h) checks it: the fuzz suite asserts identical
// verdicts and tuple sets wherever both return a value.

#ifndef WSV_FO_BYTECODE_PROGRAM_H_
#define WSV_FO_BYTECODE_PROGRAM_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fo/formula.h"
#include "relational/value.h"

namespace wsv {
namespace fobc {

/// Opcodes. The VM is a flag machine: boolean results accumulate in a
/// single flag register; control flow (short-circuiting, quantifier
/// loops) is explicit jumps.
enum class Op : uint8_t {
  kFlagSet,    // flag = (a != 0)
  kNot,        // flag = !flag
  kJump,       // pc = a
  kJumpIfFalse,  // if (!flag) pc = a
  kJumpIfTrue,   // if (flag) pc = a
  kAtom,       // flag = rels[a] contains the tuple built from pool[b..b+count)
               // (empty/absent relation => false *before* resolving
               // terms, so no unbound-term error)
  kEq,         // flag = (resolve(a) == resolve(b)), left operand first
  kScanBegin,  // iterate rels[a]; operands pool[b..b+count) bind/check
               // positions; on no matching tuple: flag = false, pc = c
  kScanNext,   // advance the scan opened at instruction a; on match fall
               // to a+1, else pop frame, flag = false, pc = code[a].c
  kDomBegin,   // iterate the active domain into register a; empty domain:
               // flag = false, pc = c
  kDomNext,    // advance the domain or pin loop opened at instruction a
  kPinBegin,   // equality pin of register a to the value of operand b
               // (kReg or kConst, read without error): when that value is
               // valid, a one-pass loop binding it if it is in the active
               // domain (else flag = false, pc = c); when it is invalid
               // (unbound), kDomBegin over register a
  kBreak,      // pop the innermost loop frame and jump to a (early exit
               // of an existential with flag preserved)
  kEmit,       // append the head tuple (registers pool[a..a+count)) to
               // the query result set
  kHalt,       // return flag (boolean) / finish enumeration (query)
};

/// One fixed-size instruction. `a`, `b`, `c` are opcode-specific (see
/// Op); `count` is an operand-list length where applicable.
struct Instr {
  Op op = Op::kHalt;
  uint8_t pad = 0;
  uint16_t count = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;
};

/// Operand tags (top 4 bits of a pool entry; the rest is an index).
///
/// In *load* position (kAtom, kEq, kEmit): kReg reads a register (error
/// "unbound variable" when invalid), kConst reads a resolved constant
/// slot (error "unbound constant symbol" when the symbol had no binding).
///
/// In *scan* position (kScanBegin / kScanNext): kBind writes the tuple
/// component into a register; kCheck compares (an invalid register,
/// an unbound free variable, rejects the tuple); kCheckSoft compares
/// only when the register is bound (a query's guard leaves a variable
/// quantified deeper unconstrained);
/// kConst resolves and compares (unbound symbol => error, lazily, only
/// when a tuple actually reaches the position).
enum OperandTag : uint32_t {
  kOperandReg = 0,
  kOperandConst = 1,
  kOperandBind = 2,
  kOperandCheck = 3,
  kOperandCheckSoft = 4,
};

inline constexpr uint32_t kOperandIndexMask = (1u << 28) - 1;

inline constexpr uint32_t MakeOperand(OperandTag tag, uint32_t index) {
  return (tag << 28) | (index & kOperandIndexMask);
}
inline constexpr OperandTag OperandTagOf(uint32_t operand) {
  return static_cast<OperandTag>(operand >> 28);
}
inline constexpr uint32_t OperandIndexOf(uint32_t operand) {
  return operand & kOperandIndexMask;
}

/// A constant-table slot: a literal (resolved at compile time) or a
/// constant symbol (resolved by id against the EvalContext once per
/// Execute).
struct ConstSlot {
  bool is_symbol = false;
  NameId symbol = kNoName;  // valid iff is_symbol
  Value literal;            // valid iff !is_symbol
  /// The symbol's or literal's name, for diagnostics.
  const std::string& name() const {
    return is_symbol ? NameOf(symbol) : literal.name();
  }
};

/// A relation-table slot, resolved by id via EvalContext::ResolveRelation
/// once per Execute.
struct RelSlot {
  NameId relation = kNoName;
  bool prev = false;
};

/// A compiled formula. Immutable after compilation; safe to share across
/// threads and execute concurrently (all mutable execution state lives
/// in the VM's per-thread scratch arena).
struct Program {
  std::vector<Instr> code;
  std::vector<uint32_t> pool;      // tagged operands, referenced by index
  std::vector<ConstSlot> consts;
  std::vector<RelSlot> rels;

  /// Register metadata. reg_names is indexed by register and used only
  /// on cold error paths; free_vars lists the registers loaded from the
  /// entry valuation (name -> register).
  std::vector<std::string> reg_names;
  std::vector<std::pair<std::string, uint32_t>> free_vars;
  uint32_t num_regs = 0;
  uint32_t max_frames = 0;  // loop nesting depth, for scratch sizing
  bool uses_domain = false;

  /// Query programs only: the head-variable list, in emit order.
  bool is_query = false;
  std::vector<std::string> head_vars;

  /// Precomputed analyses of the source formula, so per-step call sites
  /// (ltl/run_semantics) stop re-deriving them on every evaluation.
  std::vector<NameId> constant_symbols;  // interned, in name order
  std::set<Value> literals;
};

}  // namespace fobc
}  // namespace wsv

#endif  // WSV_FO_BYTECODE_PROGRAM_H_
