#include "fo/bytecode/cache.h"

#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "common/fingerprint.h"
#include "fo/bytecode/compiler.h"
#include "obs/metrics.h"

namespace wsv {
namespace fobc {
namespace {

std::atomic<bool> g_force_fp_collisions{false};

// One distinct structure: the compiled program, or the compile's error
// (so a bad formula compiles only once), plus the exemplar formula it
// was compiled from, which confirms fingerprint matches by deep
// comparison. Query entries also carry the head list baked into the
// code.
struct Entry {
  StatusOr<std::shared_ptr<const Program>> prog;
  FormulaPtr exemplar;
  std::vector<std::string> head_vars;
};

// Fingerprint (of the formula, and of the head list for queries) ->
// every distinct entry with that fingerprint: more than one only on a
// collision.
using Table = std::unordered_map<Fingerprint, std::vector<Entry>,
                                 FingerprintHash>;

struct Cache {
  std::shared_mutex mu;
  Table bools;
  Table queries;
  // Occupancy (under mu): entries never evict, so these only grow.
  uint64_t entries = 0;
  uint64_t program_bytes = 0;
  uint64_t formula_bytes = 0;
};

Cache& GetCache() {
  static Cache* cache = new Cache();
  return *cache;
}

Fingerprint FormulaFp(const Formula& f) {
  if (g_force_fp_collisions.load(std::memory_order_relaxed)) {
    return Fingerprint{1, 1};
  }
  return FingerprintFormula(f);
}

Fingerprint QueryFp(const Formula& f,
                    const std::vector<std::string>& head_vars) {
  if (g_force_fp_collisions.load(std::memory_order_relaxed)) {
    return Fingerprint{1, 2};
  }
  FingerprintBuilder b;
  b.AbsorbFingerprint(FingerprintFormula(f));
  for (const std::string& v : head_vars) b.AbsorbString(v);
  return b.Finish();
}

// Estimated heap footprint of a compiled program: the flat arrays plus
// per-variable string storage. Deliberately coarse (no allocator rounding).
uint64_t ApproxProgramBytes(const Program& prog) {
  uint64_t bytes = sizeof(Program);
  bytes += prog.code.capacity() * sizeof(Instr);
  bytes += prog.pool.capacity() * sizeof(uint32_t);
  bytes += prog.consts.size() * sizeof(ConstSlot);
  bytes += prog.rels.size() * sizeof(RelSlot);
  for (const std::string& s : prog.reg_names) bytes += sizeof(std::string) + s.capacity();
  for (const auto& [name, reg] : prog.free_vars) {
    bytes += sizeof(std::string) + sizeof(uint32_t) + name.capacity();
  }
  for (const std::string& s : prog.head_vars) bytes += sizeof(std::string) + s.capacity();
  bytes += prog.constant_symbols.capacity() * sizeof(NameId);
  bytes += prog.literals.size() * 48;
  return bytes;
}

// Estimated footprint of an exemplar formula tree: per-node header plus
// term/variable vectors. The cache keeps one per entry alive for the
// process lifetime.
uint64_t ApproxFormulaBytes(const Formula& f) {
  uint64_t bytes = sizeof(Formula);
  bytes += f.atom().relation.capacity();
  bytes += f.atom().terms.capacity() * sizeof(Term);
  for (const std::string& v : f.variables()) {
    bytes += sizeof(std::string) + v.capacity();
  }
  for (const FormulaPtr& child : f.children()) {
    if (child != nullptr) bytes += ApproxFormulaBytes(*child);
  }
  return bytes;
}

// The entry of `bucket` with `f`'s structure and head list, or nullptr.
const Entry* FindLocked(const std::vector<Entry>& bucket, const Formula& f,
                        const std::vector<std::string>& head_vars) {
  for (const Entry& e : bucket) {
    if (e.head_vars == head_vars && StructurallyEqual(f, *e.exemplar)) {
      return &e;
    }
  }
  return nullptr;
}

// The program for `f`'s structure (and head list) in `table`, one of
// the cache's tables, under fingerprint `fp`, compiled by `compile` on first use. The lookup
// confirms the candidate by deep comparison, so like the fingerprint it
// costs time linear in the formula: owners look a formula up once, when
// they are built, never per evaluation.
template <typename CompileFn>
StatusOr<std::shared_ptr<const Program>> GetOrCompile(
    Table& table, const Fingerprint& fp, const FormulaPtr& f,
    const std::vector<std::string>& head_vars, CompileFn compile) {
  Cache& cache = GetCache();
  {
    std::shared_lock<std::shared_mutex> lock(cache.mu);
    auto it = table.find(fp);
    if (it != table.end()) {
      if (const Entry* e = FindLocked(it->second, *f, head_vars)) {
        WSV_COUNT1("fo/bytecode_cache_hits");
        return e->prog;
      }
    }
  }
  WSV_COUNT1("fo/bytecode_compiles");
  StatusOr<std::shared_ptr<const Program>> prog = compile();
  std::unique_lock<std::shared_mutex> lock(cache.mu);
  std::vector<Entry>& bucket = table[fp];
  // Another thread may have compiled the same structure meanwhile; the
  // first insert wins so every owner shares one program.
  if (const Entry* e = FindLocked(bucket, *f, head_vars)) return e->prog;
  // The fingerprint matched a different structure: the guard keeps the
  // two apart.
  if (!bucket.empty()) WSV_COUNT1("fo/bytecode_fp_collisions");
  bucket.push_back(Entry{prog, f, head_vars});
  const uint64_t prog_bytes =
      prog.ok() ? ApproxProgramBytes(**prog) : sizeof(void*);
  const uint64_t formula_bytes = ApproxFormulaBytes(*f);
  cache.entries += 1;
  cache.program_bytes += prog_bytes;
  cache.formula_bytes += formula_bytes;
  WSV_GAUGE_ADD("mem/fo_program_cache_entries", 1);
  WSV_GAUGE_ADD("mem/fo_program_cache_bytes", prog_bytes);
  WSV_GAUGE_ADD("mem/fo_pinned_formula_bytes", formula_bytes);
  return prog;
}

}  // namespace

void ForceFingerprintCollisionsForTest(bool force) {
  g_force_fp_collisions.store(force, std::memory_order_relaxed);
}

StatusOr<std::shared_ptr<const Program>> GetOrCompileBool(
    const FormulaPtr& f) {
  if (f == nullptr) return Status::InvalidArgument("null formula");
  return GetOrCompile(GetCache().bools, FormulaFp(*f), f, {},
                      [&] { return CompileBool(f); });
}

StatusOr<std::shared_ptr<const Program>> GetOrCompileQuery(
    const FormulaPtr& f, const std::vector<std::string>& head_vars) {
  if (f == nullptr) return Status::InvalidArgument("null formula");
  return GetOrCompile(GetCache().queries, QueryFp(*f, head_vars), f,
                      head_vars, [&] { return CompileQuery(f, head_vars); });
}

CacheStats ProgramCacheStats() {
  Cache& cache = GetCache();
  std::shared_lock<std::shared_mutex> lock(cache.mu);
  CacheStats stats;
  stats.entries = cache.entries;
  stats.program_bytes = cache.program_bytes;
  stats.formula_bytes = cache.formula_bytes;
  return stats;
}

}  // namespace fobc
}  // namespace wsv
