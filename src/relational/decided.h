// Databases decided during the search (DESIGN.md §6j).
//
// The paper's question is whether a property holds on *every* database.
// Instead of enumerating databases up front, the verifier can decide a
// database's facts when a run first probes them: a configuration then
// carries a DecidedDatabase — the facts decided true, the facts decided
// false, the symbols decided whole and the database constants decided so
// far — and rules are evaluated against its completion, where every open
// fact reads false. An evaluation reports what it probed through a
// ProbeLog attached to its EvalContext (fo/evaluator.h); a step that
// probed an open fact is redone once per decision of that fact, so every
// run sees one fixed database.
//
// A fully decided database (a fixed `.wsd` database) has no bounds:
// nothing is open and no evaluation logs anything.

#ifndef WSV_RELATIONAL_DECIDED_H_
#define WSV_RELATIONAL_DECIDED_H_

#include <optional>
#include <utility>
#include <vector>

#include "relational/instance.h"

namespace wsv {

/// The databases a decided database ranges over: facts over `domain`,
/// at most `max_tuples_per_relation` true facts per relation (no limit
/// when negative), and a value from `domain` for every constant of
/// `constants`. The same bounds as the database enumerator's
/// (verify/db_enum.h).
struct DatabaseBounds {
  /// The enumeration domain, sorted.
  std::vector<Value> domain;
  int max_tuples_per_relation = -1;
  /// The database constant symbols.
  std::vector<NameId> constants;

  bool InDomain(Value v) const;
};

/// A probe of a database: one fact, a whole relation or a constant.
struct DbProbe {
  enum class Kind { kFact, kRelation, kConstant };
  Kind kind = Kind::kFact;
  NameId symbol = kNoName;
  Tuple tuple;  // kFact only
};

/// A database decided in part. `facts()` is its completion: the facts
/// decided true and the constants decided, over the whole domain, with
/// every database relation present. A fact is open when nothing decides
/// it: it is not decided true or false, its relation is not decided
/// whole, its values lie in the domain and its relation is below the
/// tuple bound (an out-of-domain fact, or one of a relation at the
/// bound, is false in every database within the bounds). Values are
/// compared by their parts; the configuration graph interns both the
/// facts instance and the decided database, so equal decided databases
/// have equal addresses there.
class DecidedDatabase {
 public:
  DecidedDatabase() = default;
  /// The fully decided database `facts`; it must outlive every copy.
  explicit DecidedDatabase(const Instance* facts) : facts_(facts) {}
  /// A database decided as far as `facts` says, within `bounds`; both
  /// must outlive every copy. `facts` holds every database relation and
  /// the whole domain.
  DecidedDatabase(const Instance* facts, const DatabaseBounds* bounds)
      : facts_(facts), bounds_(bounds) {}

  const Instance& facts() const { return *facts_; }
  const DatabaseBounds* bounds() const { return bounds_; }
  /// Nothing is open.
  bool complete() const { return bounds_ == nullptr; }

  bool IsOpenFact(NameId rel, Row t) const;
  /// Whether some fact of `rel` is open (conservatively: the relation is
  /// a database relation, not decided whole and below the bound).
  bool IsOpenRelation(NameId rel) const;
  bool IsOpenConstant(NameId c) const;
  /// Whether the part `probe` names is open.
  bool IsOpen(const DbProbe& probe) const;

  /// The decisions. Each returns the refined database; a decision that
  /// changes the facts builds them into `*facts`, which the caller
  /// stores and points the result at (SetFacts).
  DecidedDatabase WithFalse(NameId rel, Row t) const;
  /// `rel` decided whole: `*facts` gets exactly `tuples` for it, a
  /// relation of rel's arity.
  DecidedDatabase WithRelation(NameId rel, Relation tuples,
                               Instance* facts) const;
  DecidedDatabase WithTrue(NameId rel, Row t, Instance* facts) const;
  DecidedDatabase WithConstant(NameId c, Value v, Instance* facts) const;
  void SetFacts(const Instance* facts) { facts_ = facts; }

  /// The completion as a database of its own: the facts, with every
  /// open constant bound to the first domain value. Open facts are false
  /// in it, so it is one database within the bounds.
  Instance Completion() const;

  /// By parts: the facts by address (stored instances are unique), the
  /// false facts, the whole-decided relations and the bounds.
  friend bool operator==(const DecidedDatabase& a, const DecidedDatabase& b) {
    return a.facts_ == b.facts_ && a.bounds_ == b.bounds_ &&
           a.false_facts_ == b.false_facts_ && a.closed_ == b.closed_;
  }
  size_t Hash() const;
  /// Estimated heap bytes beyond the object itself.
  size_t ApproxBytes() const;

 private:
  void EraseFalseFacts(NameId rel);

  const Instance* facts_ = nullptr;
  const DatabaseBounds* bounds_ = nullptr;
  /// Facts decided false, outside relations decided whole: per relation,
  /// sorted by id, a relation of its false facts (never empty).
  std::vector<std::pair<NameId, Relation>> false_facts_;
  /// Relations decided whole, sorted by id.
  std::vector<NameId> closed_;
};

/// Records the first probe an evaluation made of an open part of a
/// decided database: a fact (an atom whose terms resolved), a whole
/// relation (a scan, or an atom whose terms did not resolve) or a
/// database constant. Probes of decided parts and of other symbols are
/// ignored. Logging a probe the evaluation did not need is sound — the
/// step is only redone once more — so the evaluators log before any
/// short cut.
class ProbeLog {
 public:
  explicit ProbeLog(const DecidedDatabase* database) : database_(database) {}

  void Fact(NameId rel, Row t) {
    if (!first_.has_value() && database_->IsOpenFact(rel, t)) {
      first_ = DbProbe{DbProbe::Kind::kFact, rel, Tuple(t.begin(), t.end())};
    }
  }
  void Relation(NameId rel) {
    if (!first_.has_value() && database_->IsOpenRelation(rel)) {
      first_ = DbProbe{DbProbe::Kind::kRelation, rel, {}};
    }
  }
  void Constant(NameId c) {
    if (!first_.has_value() && database_->IsOpenConstant(c)) {
      first_ = DbProbe{DbProbe::Kind::kConstant, c, {}};
    }
  }

  /// The first open probe; nullopt when the evaluation read only decided
  /// parts.
  const std::optional<DbProbe>& first() const { return first_; }

 private:
  const DecidedDatabase* database_;
  std::optional<DbProbe> first_;
};

}  // namespace wsv

#endif  // WSV_RELATIONAL_DECIDED_H_
