#include "fo/bytecode/vm.h"

#include <atomic>
#include <vector>

#include "obs/metrics.h"
#include "relational/instance.h"

namespace wsv {
namespace fobc {
namespace {

std::atomic<uint64_t> g_step_budget{kDefaultStepBudget};

/// One open quantifier loop: a relation scan (over the relation's rows
/// by index), an active-domain walk, or the single pass of an equality
/// pin.
struct Frame {
  uint32_t begin_ip = 0;
  const Relation* rel = nullptr;
  size_t row = 0;
  size_t dom_idx = 0;
  bool pinned = false;
};

/// The per-thread arena. Vectors keep their capacity across executions,
/// so after warm-up an Execute performs no heap allocation.
struct Scratch {
  std::vector<Value> regs;
  std::vector<Value> consts;
  std::vector<const Relation*> rels;
  std::vector<Frame> frames;
  Tuple tup;
  Row domain;
  bool domain_set = false;
  // Capacity bytes already published to the mem/vm_arena_bytes gauge.
  // Capacities persist across executions, so the figure only grows until
  // thread exit returns the whole arena.
  uint64_t reported_bytes = 0;

  ~Scratch() { WSV_GAUGE_SUB("mem/vm_arena_bytes", reported_bytes); }
};

uint64_t ArenaBytes(const Scratch& s) {
  return s.regs.capacity() * sizeof(Value) +
         s.consts.capacity() * sizeof(Value) +
         s.rels.capacity() * sizeof(const Relation*) +
         s.frames.capacity() * sizeof(Frame) +
         s.tup.capacity() * sizeof(Value);
}

thread_local Scratch t_scratch;

/// Outcome of advancing a scan to its next matching tuple.
enum class ScanResult { kMatch, kEnd };

/// Where a query program's emitted head tuples go: a relation (sorted,
/// deduplicated), or a flat value buffer (tuples back to back, repeats
/// kept). Boolean programs pass neither.
struct QuerySink {
  Relation* rel = nullptr;
  std::vector<Value>* flat = nullptr;
};

StatusOr<bool> Run(const Program& p, const EvalContext& ctx,
                   const Valuation& valuation, QuerySink sink) {
  // Deferred: a run costs the registry nothing; the counts are published
  // with the enclosing node expansion or sweep (obs/metrics.h). The
  // first deferred add also sets up the thread's metric shards, before
  // the arena below, so the arena's destructor can still return its
  // gauge bytes at thread exit.
  WSV_COUNT1_DEFERRED("fo/bytecode_execs");
  Scratch& s = t_scratch;
  s.regs.assign(p.num_regs, Value());
  s.consts.clear();
  for (const ConstSlot& slot : p.consts) {
    if (slot.is_symbol) {
      // Lazily *checked*: an unbound symbol is an error only when an
      // instruction actually reads the slot, so a short-circuited
      // conjunct never fails.
      s.consts.push_back(ctx.ResolveConstant(slot.symbol).value_or(Value()));
    } else {
      s.consts.push_back(slot.literal);
    }
  }
  s.rels.clear();
  for (const RelSlot& slot : p.rels) {
    s.rels.push_back(ctx.ResolveRelation(slot.relation, slot.prev));
  }
  s.frames.clear();
  s.frames.reserve(p.max_frames);
  s.domain_set = false;
  for (const auto& [name, reg] : p.free_vars) {
    auto it = valuation.find(name);
    if (it != valuation.end()) s.regs[reg] = it->second;
  }

  const uint64_t budget = g_step_budget.load(std::memory_order_relaxed);
  uint64_t steps = 0;
  bool flag = false;
  uint32_t pc = 0;

  // Every return path records the steps actually spent and publishes
  // arena capacity growth (rare after warm-up) to the occupancy gauge.
  struct StepFlush {
    uint64_t& steps;
    Scratch& scratch;
    ~StepFlush() {
      WSV_COUNT_DEFERRED("fo/bytecode_steps", steps);
      const uint64_t bytes = ArenaBytes(scratch);
      if (bytes > scratch.reported_bytes) {
        WSV_GAUGE_ADD("mem/vm_arena_bytes", bytes - scratch.reported_bytes);
        scratch.reported_bytes = bytes;
      }
    }
  } flush{steps, s};

  auto budget_error = [&]() -> Status {
    return Status::ResourceExhausted(
        "fo bytecode step budget exhausted (" + std::to_string(budget) +
        " steps)");
  };

  // Advances `fr` (starting at its current tuple) to the next tuple
  // matching the scan operands of the kScanBegin at `begin`. Tags are
  // documented in program.h.
  auto scan_advance = [&](Frame& fr,
                          const Instr& begin) -> StatusOr<ScanResult> {
    const uint32_t n = begin.count;
    const Relation::Rows rows = fr.rel->rows();
    for (; fr.row < rows.size(); ++fr.row) {
      if (++steps > budget) return budget_error();
      const Row t = rows[fr.row];
      bool match = n <= t.size();
      for (uint32_t i = 0; i < n && match; ++i) {
        const uint32_t operand = p.pool[begin.b + i];
        const uint32_t idx = OperandIndexOf(operand);
        switch (OperandTagOf(operand)) {
          case kOperandBind:
            s.regs[idx] = t[i];
            break;
          case kOperandCheck:
            match = s.regs[idx].valid() && s.regs[idx] == t[i];
            break;
          case kOperandCheckSoft:
            if (s.regs[idx].valid()) match = s.regs[idx] == t[i];
            break;
          case kOperandConst: {
            Value v = s.consts[idx];
            if (!v.valid()) {
              return Status::Internal("unbound constant symbol: " +
                                      p.consts[idx].name());
            }
            match = v == t[i];
            break;
          }
          case kOperandReg:
            match = s.regs[idx].valid() && s.regs[idx] == t[i];
            break;
        }
      }
      if (match) return ScanResult::kMatch;
    }
    return ScanResult::kEnd;
  };

  auto load_operand = [&](uint32_t operand, Value* out) -> Status {
    const uint32_t idx = OperandIndexOf(operand);
    if (OperandTagOf(operand) == kOperandReg) {
      Value v = s.regs[idx];
      if (!v.valid()) {
        return Status::Internal("unbound variable: " + p.reg_names[idx]);
      }
      *out = v;
      return Status::OK();
    }
    Value v = s.consts[idx];
    if (!v.valid()) {
      return Status::Internal("unbound constant symbol: " +
                              p.consts[idx].name());
    }
    *out = v;
    return Status::OK();
  };

  // Reports the fact the kAtom `in` probes, or its whole relation when
  // an operand is unbound.
  auto log_atom = [&](const Instr& in, ProbeLog* probes) {
    Tuple& fact = s.tup;
    fact.clear();
    for (uint32_t i = 0; i < in.count; ++i) {
      const uint32_t operand = p.pool[in.b + i];
      const uint32_t idx = OperandIndexOf(operand);
      const Value v = OperandTagOf(operand) == kOperandReg ? s.regs[idx]
                                                           : s.consts[idx];
      if (!v.valid()) {
        probes->Relation(p.rels[in.a].relation);
        return;
      }
      fact.push_back(v);
    }
    probes->Fact(p.rels[in.a].relation, fact);
  };

  for (;;) {
    if (++steps > budget) return budget_error();
    const Instr& in = p.code[pc];
    uint32_t next = pc + 1;
    switch (in.op) {
      case Op::kFlagSet:
        flag = in.a != 0;
        break;
      case Op::kNot:
        flag = !flag;
        break;
      case Op::kJump:
        next = in.a;
        break;
      case Op::kJumpIfFalse:
        if (!flag) next = in.a;
        break;
      case Op::kJumpIfTrue:
        if (flag) next = in.a;
        break;
      case Op::kAtom: {
        const Relation* rel = s.rels[in.a];
        if (ProbeLog* probes = ctx.probes(); probes != nullptr) {
          log_atom(in, probes);
        }
        if (rel == nullptr || rel->empty()) {
          // Before resolving terms: no unbound-term error.
          flag = false;
          break;
        }
        s.tup.clear();
        for (uint32_t i = 0; i < in.count; ++i) {
          Value v;
          WSV_RETURN_IF_ERROR(load_operand(p.pool[in.b + i], &v));
          s.tup.push_back(v);
        }
        flag = rel->Contains(s.tup);
        break;
      }
      case Op::kEq: {
        Value lhs, rhs;
        WSV_RETURN_IF_ERROR(load_operand(in.a, &lhs));
        WSV_RETURN_IF_ERROR(load_operand(in.b, &rhs));
        flag = lhs == rhs;
        break;
      }
      case Op::kScanBegin: {
        const Relation* rel = s.rels[in.a];
        if (ctx.probes() != nullptr) {
          ctx.probes()->Relation(p.rels[in.a].relation);
        }
        if (rel == nullptr || rel->empty()) {
          flag = false;
          next = in.c;
          break;
        }
        s.frames.push_back(Frame{pc, rel, 0, 0, false});
        WSV_ASSIGN_OR_RETURN(ScanResult r,
                             scan_advance(s.frames.back(), in));
        if (r == ScanResult::kEnd) {
          s.frames.pop_back();
          flag = false;
          next = in.c;
        }
        break;
      }
      case Op::kScanNext: {
        Frame& fr = s.frames.back();
        const Instr& begin = p.code[in.a];
        ++fr.row;
        WSV_ASSIGN_OR_RETURN(ScanResult r, scan_advance(fr, begin));
        if (r == ScanResult::kMatch) {
          next = in.a + 1;
        } else {
          s.frames.pop_back();
          flag = false;
          next = begin.c;
        }
        break;
      }
      case Op::kPinBegin: {
        const uint32_t idx = OperandIndexOf(in.b);
        const Value v = OperandTagOf(in.b) == kOperandReg ? s.regs[idx]
                                                           : s.consts[idx];
        if (v.valid()) {
          if (!ctx.InActiveDomain(v)) {
            flag = false;
            next = in.c;
            break;
          }
          Frame fr;
          fr.begin_ip = pc;
          fr.pinned = true;
          s.frames.push_back(fr);
          s.regs[in.a] = v;
          break;
        }
        // An unresolved pin loops over the active domain.
        [[fallthrough]];
      }
      case Op::kDomBegin: {
        if (!s.domain_set) {
          s.domain = ctx.ActiveDomain();
          s.domain_set = true;
        }
        if (s.domain.empty()) {
          flag = false;
          next = in.c;
          break;
        }
        Frame fr;
        fr.begin_ip = pc;
        s.frames.push_back(fr);
        s.regs[in.a] = s.domain[0];
        break;
      }
      case Op::kDomNext: {
        Frame& fr = s.frames.back();
        const Instr& begin = p.code[in.a];
        if (!fr.pinned && ++fr.dom_idx < s.domain.size()) {
          s.regs[begin.a] = s.domain[fr.dom_idx];
          next = in.a + 1;
        } else {
          s.frames.pop_back();
          flag = false;
          next = begin.c;
        }
        break;
      }
      case Op::kBreak:
        s.frames.pop_back();
        next = in.a;
        break;
      case Op::kEmit: {
        s.tup.clear();
        for (uint32_t i = 0; i < in.count; ++i) {
          const uint32_t idx = OperandIndexOf(p.pool[in.a + i]);
          Value v = s.regs[idx];
          if (!v.valid()) {
            return Status::Internal("query variable unbound at emit: " +
                                    p.reg_names[idx]);
          }
          s.tup.push_back(v);
        }
        if (sink.rel != nullptr) sink.rel->Insert(s.tup);
        if (sink.flat != nullptr) {
          sink.flat->insert(sink.flat->end(), s.tup.begin(), s.tup.end());
        }
        break;
      }
      case Op::kHalt:
        return flag;
    }
    pc = next;
  }
}

}  // namespace

uint64_t GetStepBudget() {
  return g_step_budget.load(std::memory_order_relaxed);
}

void SetStepBudget(uint64_t budget) {
  g_step_budget.store(budget == 0 ? kDefaultStepBudget : budget,
                      std::memory_order_relaxed);
}

StatusOr<bool> Execute(const Program& program, const EvalContext& ctx,
                       const Valuation& valuation) {
  return Run(program, ctx, valuation, QuerySink{});
}

StatusOr<Relation> ExecuteQuery(const Program& program,
                                const EvalContext& ctx,
                                const Valuation& valuation) {
  Relation out(static_cast<int>(program.head_vars.size()));
  WSV_RETURN_IF_ERROR(
      Run(program, ctx, valuation, QuerySink{&out, nullptr}).status());
  return out;
}

Status ExecuteQuery(const Program& program, const EvalContext& ctx,
                    std::vector<Value>* rows) {
  return Run(program, ctx, Valuation(), QuerySink{nullptr, rows}).status();
}

}  // namespace fobc
}  // namespace wsv
