// The parallel verification engine: a thread-pooled sweep over the
// Theorem 3.5 search space.
//
// The serial verifier's outer loop is embarrassingly parallel: candidate
// databases are independent, and within one database the closure
// valuations are independent. The engine fans out accordingly:
//
//   Verify            — one task per enumerated database; each task runs
//                       the full per-database valuation sweep.
//   VerifyOnDatabase  — one shared LtlDatabaseCheck context, with the
//                       valuation index space [0, N) chunked across
//                       tasks.
//
// Determinism guarantee: the parallel engine reports exactly the verdict
// and witness the serial verifier would. Counterexamples and task errors
// are unified as "events" tagged with their database (resp. valuation)
// index; the lowest index wins. A worker may find an event at a higher
// index first, but every index below the eventual winner is guaranteed to
// have been swept violation-free before the engine commits, because
// cancellation only stops work that can no longer win (index above the
// current best).
//
// Cancellation is three-layered: the enumerator stops producing, the pool
// drops its queued backlog (ThreadPool::CancelPending), and in-flight
// tasks poll the best-event index — both per expanded configuration-graph
// node (ConfigGraphOptions::cancel_check) and per valuation
// (LtlDatabaseCheck::CheckValuations's stop predicate).
//
// Search strategies (LtlVerifyOptions::search): every shard runs the
// selected strategy through its shared LtlDatabaseCheck context.

#ifndef WSV_VERIFY_PARALLEL_H_
#define WSV_VERIFY_PARALLEL_H_

#include "verify/ltl_verifier.h"
#include "ws/service.h"

namespace wsv {

class ParallelLtlVerifier {
 public:
  /// `jobs` <= 0 means one worker per hardware thread; `jobs` == 1 runs
  /// the serial verifier in-process (no pool, byte-identical behavior).
  ParallelLtlVerifier(const WebService* service, LtlVerifyOptions options,
                      int jobs);

  /// Verifies over all databases within the enumeration bounds, one pool
  /// task per candidate database.
  StatusOr<LtlVerifyResult> Verify(const TemporalProperty& property);

  /// Verifies over one fixed database, chunking the closure-valuation
  /// sweep across the pool.
  StatusOr<LtlVerifyResult> VerifyOnDatabase(const TemporalProperty& property,
                                             const Instance& database);

  int jobs() const { return jobs_; }

 private:
  const WebService* service_;
  LtlVerifyOptions options_;
  int jobs_;
};

}  // namespace wsv

#endif  // WSV_VERIFY_PARALLEL_H_
