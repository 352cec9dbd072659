// Database instance enumeration for verification.
//
// The paper's decision procedures quantify over *all* databases; our
// explicit-state verifier covers the instances over the database schema
// up to configurable bounds (domain size, tuples per relation). For
// input-bounded services the paper guarantees a small-model property
// (exponential bounds; Lemma A.11 for the propositional case),
// so bounded enumeration is a genuinely complete procedure once the bound
// is large enough; the default bounds catch the violations in all the
// paper's examples at tiny sizes.
//
// The LTL verifier and CheckErrorFree decide facts as runs probe them
// instead (DatabaseSpace, DESIGN.md §6j); EnumerateDatabases serves the
// CTL input-driven search, whose path quantifiers need one fixed
// database, and the tests' oracles.
//
// The enumeration domain always contains the literal values of the
// service's rules (they are schema constants — e.g. the catalog
// categories "laptop"/"ram" of Example 2.2 — and databases that omit
// them generate degenerate runs only), plus `fresh_values` anonymous
// elements. Non-input constant symbols of the vocabulary (like i0 of
// Definition 4.7) are enumerated over the domain as well.

#ifndef WSV_VERIFY_DB_ENUM_H_
#define WSV_VERIFY_DB_ENUM_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relational/decided.h"
#include "relational/instance.h"
#include "ws/service.h"

namespace wsv {

struct DbEnumOptions {
  /// Values always present in the domain (rule literals are added
  /// automatically; put property literals here).
  std::vector<Value> base_values;
  /// Number of anonymous fresh elements added to the domain.
  int fresh_values = 1;
  /// Maximum number of tuples per database relation (-1: all subsets of
  /// the full cross product — beware, explodes quickly).
  int max_tuples_per_relation = 2;
  /// Safety cap on the number of instances EnumerateDatabases visits;
  /// nothing else reads it.
  uint64_t max_instances = 1u << 22;
};

/// Calls `visit` on each database instance within the bounds; stops early
/// when `visit` returns true (and returns true). Returns false if the
/// enumeration completed without `visit` asking to stop.
StatusOr<bool> EnumerateDatabases(
    const WebService& service, const DbEnumOptions& options,
    const std::function<StatusOr<bool>(const Instance&)>& visit);

/// The literal values appearing in any rule of the service.
std::vector<Value> ServiceRuleLiterals(const WebService& service);

/// The candidate values for input constants: `pinned` when it is not
/// empty, else the active domain of `database`, the service's rule
/// literals, `literals` (a property's) and the values u0..u(k-1) only a
/// user types, for k = `typed_values`, in value order.
std::vector<Value> InputConstantPool(const std::vector<Value>& pinned,
                                     const WebService& service,
                                     const Instance& database,
                                     const std::set<Value>& literals,
                                     int typed_values);

/// The databases a check runs on: `database` fully decided, or if it is
/// null every database within `options`, nothing decided yet (the whole
/// domain, every relation empty, no constant bound). Not copyable:
/// `decided()` points into it.
class DatabaseSpace {
 public:
  DatabaseSpace(const WebService& service, const DbEnumOptions& options,
                const Instance* database);
  DatabaseSpace(const DatabaseSpace&) = delete;
  DatabaseSpace& operator=(const DatabaseSpace&) = delete;

  const DecidedDatabase& decided() const { return decided_; }

 private:
  DatabaseBounds bounds_;
  Instance undecided_;
  DecidedDatabase decided_;
};

/// The number of databases within the bounds, without fresh-value
/// symmetry reduction (EnumerateDatabases visits one per orbit);
/// saturates at UINT64_MAX.
uint64_t CountDatabases(const WebService& service,
                        const DbEnumOptions& options);

/// The one-line summary of a check that found nothing within its
/// bounds: "<verdict> within bounds (N database(s), <counts>)", each
/// count as "<value> <noun>", then " [truncated]" unless `complete`. A
/// database count saturated by CountDatabases (UINT64_MAX) reads
/// "≥ 2^64", not the sentinel's digits.
std::string WithinBoundsLine(
    std::string_view verdict, uint64_t databases,
    std::initializer_list<std::pair<uint64_t, std::string_view>> counts,
    bool complete);

/// Every fact of a relation of `arity` over `domain`, in enumeration
/// order (odometer, first position fastest).
std::vector<Tuple> AllFacts(const std::vector<Value>& domain, int arity);

/// Calls `visit` on each subset of `facts` of at most `cap` elements
/// (every subset when cap < 0), as indices into `facts`, in
/// EnumerateDatabases order: depth-first, each subset before its
/// extensions by a larger index. `fixed[i]` restricts fact i: 0 free, 1
/// in every subset, 2 in none. Stops when `visit` returns true, and
/// returns true then.
StatusOr<bool> ForEachFactSubset(
    const std::vector<Tuple>& facts, int cap, const std::vector<char>& fixed,
    const std::function<StatusOr<bool>(const std::vector<size_t>&)>& visit);

}  // namespace wsv

#endif  // WSV_VERIFY_DB_ENUM_H_
