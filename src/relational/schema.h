// Relational schemas (Definition 2.1).
//
// A Web service works over four disjoint relational schemas — database D,
// state S, input I, and action A — plus constant symbols, some of which
// are *input constants* (const(I)): their interpretation is supplied by
// the user during the run rather than fixed with the database. For every
// non-constant input relation I there is implicitly a relation prev_I of
// the same arity holding the previous step's input.
//
// A Vocabulary collects all relation symbols of a service with their kind,
// together with the constant symbols.

#ifndef WSV_RELATIONAL_SCHEMA_H_
#define WSV_RELATIONAL_SCHEMA_H_

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "relational/name.h"

namespace wsv {

/// Which of the four schemas (plus page propositions) a symbol belongs to.
enum class SymbolKind {
  kDatabase,
  kState,
  kInput,
  kAction,
  kPage,  // Web page names used as propositions in temporal formulas
};

const char* SymbolKindToString(SymbolKind kind);

/// A relation symbol with its arity and schema membership.
/// Arity 0 symbols are propositions.
struct RelationSymbol {
  std::string name;
  int arity = 0;
  SymbolKind kind = SymbolKind::kDatabase;
  /// Declaration site in the .wsv source (invalid when built in code).
  Span span;
  /// `name` interned; set by Vocabulary::AddRelation.
  NameId id = kNoName;

  bool IsProposition() const { return arity == 0; }
};

/// The full vocabulary of a Web service: relation symbols of every kind
/// and the constant symbols (with the input-constant subset flagged).
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Registers a relation symbol. Fails if the name is already taken by a
  /// relation or a constant, or the arity is negative. `span` records the
  /// declaration site for diagnostics.
  Status AddRelation(const std::string& name, int arity, SymbolKind kind,
                     Span span = {});

  /// Registers a constant symbol. `is_input_constant` marks members of
  /// const(I), whose values arrive from the user during the run.
  Status AddConstant(const std::string& name, bool is_input_constant,
                     Span span = {});

  /// Looks up a relation symbol by name; nullptr if absent.
  const RelationSymbol* FindRelation(const std::string& name) const;

  /// True iff `name` is a registered constant symbol.
  bool IsConstant(const std::string& name) const;

  /// True iff `name` is a registered input constant (member of const(I)).
  bool IsInputConstant(const std::string& name) const;
  /// The same by interned name id, without string work.
  bool IsInputConstant(NameId name) const {
    return std::find(input_constant_ids_.begin(), input_constant_ids_.end(),
                     name) != input_constant_ids_.end();
  }

  /// All relation symbols, in registration order.
  const std::vector<RelationSymbol>& relations() const { return relations_; }

  /// All relation symbols of the given kind, in registration order.
  std::vector<RelationSymbol> RelationsOfKind(SymbolKind kind) const;

  /// All constant symbols, in registration order.
  const std::vector<std::string>& constants() const { return constants_; }

  /// The input constants const(I), in registration order.
  std::vector<std::string> InputConstants() const;

  /// Declaration site of a constant symbol (invalid when unknown).
  Span ConstantSpan(const std::string& name) const;

 private:
  std::vector<RelationSymbol> relations_;
  std::map<std::string, size_t> relation_index_;
  std::vector<std::string> constants_;
  std::map<std::string, bool> constant_is_input_;
  std::map<std::string, Span> constant_span_;
  /// The input constants, interned.
  std::vector<NameId> input_constant_ids_;
};

}  // namespace wsv

#endif  // WSV_RELATIONAL_SCHEMA_H_
