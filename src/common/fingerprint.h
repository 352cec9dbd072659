// Canonical structural fingerprints for verification-cache keys.
//
// The cross-request verification cache (src/cache/) keys entries by
// *content*, not by address or source text: two requests whose parsed
// specs, properties, and databases are structurally identical must map
// to the same key even when they arrive as differently formatted files,
// in different processes, or with different value-interning orders. The
// fingerprints here therefore hash the parsed representations —
// formula trees, rule heads and bodies, page schemas, relation tuples
// by name — and deliberately ignore source spans, comments, whitespace,
// and Value interning ids.
//
// A fingerprint is 128 bits (two independently seeded 64-bit FNV-1a
// lanes over the same canonical byte stream). Collisions are
// negligible for cache keying; the one consumer that shares *code* on
// fingerprint equality (the FO bytecode program cache) additionally
// guards with a deep structural comparison, see StructurallyEqual.

#ifndef WSV_COMMON_FINGERPRINT_H_
#define WSV_COMMON_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wsv {

class Formula;
class TFormula;
class Instance;
class WebService;
struct TemporalProperty;
class Value;

/// A 128-bit content hash. Value-comparable and hashable; renders as 32
/// lowercase hex digits (hi then lo).
struct Fingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  std::string ToHex() const;
  /// Parses 32 hex digits; returns false on malformed input.
  static bool FromHex(std::string_view hex, Fingerprint* out);

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) {
    return !(a == b);
  }
  friend bool operator<(const Fingerprint& a, const Fingerprint& b) {
    if (a.hi != b.hi) return a.hi < b.hi;
    return a.lo < b.lo;
  }
};

struct FingerprintHash {
  size_t operator()(const Fingerprint& f) const {
    return static_cast<size_t>(f.hi ^ (f.lo * 0x9e3779b97f4a7c15ull));
  }
};

/// Incremental fingerprint accumulator. Absorb* calls are
/// order-sensitive; strings are length-prefixed so adjacent fields
/// cannot alias ("ab","c" != "a","bc"), and every composite absorber
/// below frames its pieces with type tags for the same reason.
class FingerprintBuilder {
 public:
  FingerprintBuilder();

  void AbsorbBytes(const void* data, size_t n);
  void AbsorbU64(uint64_t v);
  void AbsorbString(std::string_view s);
  /// Absorbs another fingerprint (e.g. to combine component keys).
  void AbsorbFingerprint(const Fingerprint& f);

  Fingerprint Finish() const;

 private:
  uint64_t hi_;
  uint64_t lo_;
};

/// Structural hash of an FO formula: kinds, atom relation names and prev
/// flags, term kinds and names, quantifier variable lists, child order.
/// Everything the bytecode compiler and the evaluator read — and nothing
/// they do not (spans are ignored).
Fingerprint FingerprintFormula(const Formula& f);

/// Structural hash of a temporal formula (FO leaves included).
Fingerprint FingerprintTFormula(const TFormula& f);

/// Structural hash of a temporal property: universal closure variables
/// plus the formula.
Fingerprint FingerprintProperty(const TemporalProperty& prop);

/// Canonical hash of a relational instance: relations sorted by name
/// with sorted tuples of value *names*, constants, and the domain —
/// independent of interning order.
Fingerprint FingerprintInstance(const Instance& instance);

/// Structural hash of a parsed Web service: vocabulary, pages in
/// declaration order with all rules, home and error page. Whitespace,
/// comments, and source spans do not contribute, so reformatting a spec
/// keeps its fingerprint.
Fingerprint FingerprintService(const WebService& service);

/// Hash of a value list by name, order-sensitive.
Fingerprint FingerprintValues(const std::vector<Value>& values);

/// Deep structural equality of two formulas, consistent with
/// FingerprintFormula (equal formulas have equal fingerprints; this is
/// the collision guard for consumers that alias on fingerprint
/// equality).
bool StructurallyEqual(const Formula& a, const Formula& b);

}  // namespace wsv

#endif  // WSV_COMMON_FINGERPRINT_H_
