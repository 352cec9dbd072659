// Persistence interface for FO-leaf truth columns.
//
// The PR 3 sweep machinery (verify/ltl_verifier) memoizes the truth of
// each FO leaf as a bit column over the configuration graph's edges —
// but the memo is call-local: every fresh verification re-evaluates
// every leaf from scratch. This interface lets a caller plug a
// cross-request store underneath the memo (the verification cache's
// disk tier, src/cache/), so a warm request whose context — spec,
// database, constant pool, tracked prev-relations, property —
// matches an earlier one loads its columns instead of re-running the FO
// evaluator over every edge.
//
// Keys are opaque strings assembled by the verifier:
//   <context>|leaf:<formula-fp>|<binding>
// where <context> is LtlVerifyOptions::leaf_store_context (the caller's
// fingerprint of everything that determines the graph's edge order) and
// <binding> canonically renders the closure-variable values the column
// was evaluated under (by value *name*, so keys are process-portable).
//
// Columns are exchanged as (set-bit indices, upto): the bits are
// meaningful on edge indices [0, upto). Implementations must be
// thread-safe — verifiers on different threads may share one store.

#ifndef WSV_VERIFY_LEAF_STORE_H_
#define WSV_VERIFY_LEAF_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wsv {

class LeafColumnStore {
 public:
  virtual ~LeafColumnStore() = default;

  /// Fetches the column for `key`. Returns true and fills `set_bits`
  /// (ascending edge indices whose bit is 1) and `upto` (the exclusive
  /// evaluated bound) when present.
  virtual bool Lookup(const std::string& key,
                      std::vector<uint64_t>* set_bits, uint64_t* upto) = 0;

  /// Stores/extends the column for `key`. Implementations should keep
  /// the longest column seen (a shorter republish must not truncate).
  virtual void Publish(const std::string& key,
                       const std::vector<uint64_t>& set_bits,
                       uint64_t upto) = 0;
};

}  // namespace wsv

#endif  // WSV_VERIFY_LEAF_STORE_H_
