// Error-freeness checking (Section 2 / Theorem 3.5(i)).
//
// A Web service is error-free iff no run reaches the error page: no rule
// uses an input constant before it is provided (i), no page re-requests a
// provided constant (ii), and the next-page specification is never
// ambiguous (iii). This checker searches one configuration graph for a
// transition into the error page and reports the finite path witnessing
// it. Without a given database the graph's nodes decide the database as
// runs probe it (DESIGN.md §6j), so one graph covers every database.
//
// Lemma A.5 reduces this to LTL-FO verification of G !W' on a transformed
// service; verify/transform.h implements that transformation, and the
// test suite checks both routes agree.

#ifndef WSV_VERIFY_ERROR_FREE_H_
#define WSV_VERIFY_ERROR_FREE_H_

#include <optional>

#include "common/status.h"
#include "verify/config_graph.h"
#include "verify/db_enum.h"

namespace wsv {

struct ErrorFreeOptions {
  DbEnumOptions db;
  /// Budgets bound the whole check, not each database.
  ConfigGraphOptions graph;
};

/// A finite run prefix that steps into the error page.
struct ErrorWitness {
  Instance database;
  std::vector<TraceStep> path;
  std::string reason;

  std::string ToString() const;
};

struct ErrorFreeResult {
  bool error_free = true;
  std::optional<ErrorWitness> witness;
  /// When error-free, the databases covered (CountDatabases; 1 for a
  /// given database); otherwise 1, the witness's.
  uint64_t databases_checked = 0;
  uint64_t total_graph_nodes = 0;
  bool complete_within_bounds = true;
};

/// Checks every database within options.db.
StatusOr<ErrorFreeResult> CheckErrorFree(const WebService& service,
                                         const ErrorFreeOptions& options);

StatusOr<ErrorFreeResult> CheckErrorFreeOnDatabase(
    const WebService& service, const Instance& database,
    const ErrorFreeOptions& options);

}  // namespace wsv

#endif  // WSV_VERIFY_ERROR_FREE_H_
