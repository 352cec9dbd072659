#include "common/fingerprint.h"

#include <cstdio>
#include <cstring>

#include "fo/formula.h"
#include "ltl/ltl.h"
#include "relational/instance.h"
#include "relational/value.h"
#include "ws/service.h"

namespace wsv {
namespace {

// Two independently seeded FNV-1a lanes; the second lane uses a
// different offset basis and absorbs each byte xored with a lane salt,
// so the lanes decorrelate even on short inputs.
constexpr uint64_t kFnvPrime = 1099511628211ull;
constexpr uint64_t kOffsetHi = 14695981039346656037ull;
constexpr uint64_t kOffsetLo = 0xa19ce6c42735397bull;

// Type tags framing every composite absorber. Values are arbitrary but
// fixed: changing them invalidates all persisted caches, which is what
// the store's version field is for — keep these stable and bump the
// store version instead when the *shape* of what is absorbed changes.
enum Tag : uint64_t {
  kTagTerm = 1,
  kTagAtom,
  kTagFormula,
  kTagTFormula,
  kTagProperty,
  kTagRelation,
  kTagInstance,
  kTagPage,
  kTagService,
  kTagRuleInput,
  kTagRuleState,
  kTagRuleAction,
  kTagRuleTarget,
  kTagValues,
  kTagVocab,
};

void AbsorbTerm(FingerprintBuilder& b, const Term& t) {
  b.AbsorbU64(kTagTerm);
  b.AbsorbU64(static_cast<uint64_t>(t.kind()));
  b.AbsorbString(t.name());
}

void AbsorbAtom(FingerprintBuilder& b, const Atom& a) {
  b.AbsorbU64(kTagAtom);
  b.AbsorbString(a.relation);
  b.AbsorbU64(a.prev ? 1 : 0);
  b.AbsorbU64(a.terms.size());
  for (const Term& t : a.terms) AbsorbTerm(b, t);
}

void AbsorbFormula(FingerprintBuilder& b, const Formula& f) {
  b.AbsorbU64(kTagFormula);
  b.AbsorbU64(static_cast<uint64_t>(f.kind()));
  switch (f.kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
      break;
    case Formula::Kind::kAtom:
      AbsorbAtom(b, f.atom());
      break;
    case Formula::Kind::kEquals:
      AbsorbTerm(b, f.lhs());
      AbsorbTerm(b, f.rhs());
      break;
    case Formula::Kind::kNot:
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
    case Formula::Kind::kExists:
    case Formula::Kind::kForall:
      b.AbsorbU64(f.variables().size());
      for (const std::string& v : f.variables()) b.AbsorbString(v);
      b.AbsorbU64(f.children().size());
      for (const FormulaPtr& child : f.children()) {
        if (child != nullptr) AbsorbFormula(b, *child);
      }
      break;
  }
}

void AbsorbTFormula(FingerprintBuilder& b, const TFormula& f) {
  b.AbsorbU64(kTagTFormula);
  b.AbsorbU64(static_cast<uint64_t>(f.kind()));
  if (f.kind() == TFormula::Kind::kFo) {
    AbsorbFormula(b, *f.fo());
    return;
  }
  b.AbsorbU64(f.children().size());
  for (const TFormulaPtr& child : f.children()) {
    if (child != nullptr) AbsorbTFormula(b, *child);
  }
}

void AbsorbInstance(FingerprintBuilder& b, const Instance& instance) {
  b.AbsorbU64(kTagInstance);
  b.AbsorbU64(instance.relations().size());
  for (const auto& [name, rel] : instance.relations()) {
    b.AbsorbU64(kTagRelation);
    b.AbsorbString(name);
    b.AbsorbU64(static_cast<uint64_t>(rel.arity()));
    // Rows are ordered by Value interning id, which is not stable
    // across processes; canonicalize by sorting the rendered names.
    std::vector<std::string> rows;
    rows.reserve(rel.size());
    for (Row t : rel.rows()) {
      std::string row;
      for (const Value& v : t) {
        row += v.name();
        row += '\x1f';
      }
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    b.AbsorbU64(rows.size());
    for (const std::string& row : rows) b.AbsorbString(row);
  }
  b.AbsorbU64(instance.constants().size());
  for (const auto& [name, v] : instance.constants()) {
    b.AbsorbString(name);
    b.AbsorbString(v.name());
  }
  std::vector<std::string> dom;
  dom.reserve(instance.domain().size());
  for (const Value& v : instance.domain()) dom.push_back(v.name());
  std::sort(dom.begin(), dom.end());
  b.AbsorbU64(dom.size());
  for (const std::string& name : dom) b.AbsorbString(name);
}

void AbsorbRuleBody(FingerprintBuilder& b, const FormulaPtr& body) {
  if (body == nullptr) {
    b.AbsorbU64(0);
  } else {
    b.AbsorbU64(1);
    AbsorbFormula(b, *body);
  }
}

void AbsorbPage(FingerprintBuilder& b, const PageSchema& page) {
  b.AbsorbU64(kTagPage);
  b.AbsorbString(page.name);
  auto absorb_names = [&b](const std::vector<std::string>& names) {
    b.AbsorbU64(names.size());
    for (const std::string& n : names) b.AbsorbString(n);
  };
  absorb_names(page.inputs);
  absorb_names(page.input_constants);
  absorb_names(page.actions);
  absorb_names(page.targets);
  b.AbsorbU64(page.input_rules.size());
  for (const InputRule& r : page.input_rules) {
    b.AbsorbU64(kTagRuleInput);
    b.AbsorbString(r.input);
    absorb_names(r.head_vars);
    AbsorbRuleBody(b, r.body);
  }
  b.AbsorbU64(page.state_rules.size());
  for (const StateRule& r : page.state_rules) {
    b.AbsorbU64(kTagRuleState);
    b.AbsorbString(r.state);
    b.AbsorbU64(r.insert ? 1 : 0);
    absorb_names(r.head_vars);
    AbsorbRuleBody(b, r.body);
  }
  b.AbsorbU64(page.action_rules.size());
  for (const ActionRule& r : page.action_rules) {
    b.AbsorbU64(kTagRuleAction);
    b.AbsorbString(r.action);
    absorb_names(r.head_vars);
    AbsorbRuleBody(b, r.body);
  }
  b.AbsorbU64(page.target_rules.size());
  for (const TargetRule& r : page.target_rules) {
    b.AbsorbU64(kTagRuleTarget);
    b.AbsorbString(r.target);
    AbsorbRuleBody(b, r.body);
  }
}

}  // namespace

FingerprintBuilder::FingerprintBuilder() : hi_(kOffsetHi), lo_(kOffsetLo) {}

void FingerprintBuilder::AbsorbBytes(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t hi = hi_;
  uint64_t lo = lo_;
  for (size_t i = 0; i < n; ++i) {
    hi = (hi ^ p[i]) * kFnvPrime;
    lo = (lo ^ (p[i] ^ 0x5c)) * kFnvPrime;
  }
  hi_ = hi;
  lo_ = lo;
}

void FingerprintBuilder::AbsorbU64(uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = (v >> (8 * i)) & 0xff;
  AbsorbBytes(bytes, 8);
}

void FingerprintBuilder::AbsorbString(std::string_view s) {
  AbsorbU64(s.size());
  AbsorbBytes(s.data(), s.size());
}

void FingerprintBuilder::AbsorbFingerprint(const Fingerprint& f) {
  AbsorbU64(f.hi);
  AbsorbU64(f.lo);
}

Fingerprint FingerprintBuilder::Finish() const { return {hi_, lo_}; }

std::string Fingerprint::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf, 32);
}

bool Fingerprint::FromHex(std::string_view hex, Fingerprint* out) {
  if (hex.size() != 32) return false;
  uint64_t parts[2] = {0, 0};
  for (int half = 0; half < 2; ++half) {
    for (int i = 0; i < 16; ++i) {
      char c = hex[static_cast<size_t>(half * 16 + i)];
      uint64_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint64_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint64_t>(c - 'A' + 10);
      } else {
        return false;
      }
      parts[half] = (parts[half] << 4) | digit;
    }
  }
  out->hi = parts[0];
  out->lo = parts[1];
  return true;
}

Fingerprint FingerprintFormula(const Formula& f) {
  FingerprintBuilder b;
  AbsorbFormula(b, f);
  return b.Finish();
}

Fingerprint FingerprintTFormula(const TFormula& f) {
  FingerprintBuilder b;
  AbsorbTFormula(b, f);
  return b.Finish();
}

Fingerprint FingerprintProperty(const TemporalProperty& prop) {
  FingerprintBuilder b;
  b.AbsorbU64(kTagProperty);
  b.AbsorbU64(prop.universal_vars.size());
  for (const std::string& v : prop.universal_vars) b.AbsorbString(v);
  if (prop.formula != nullptr) AbsorbTFormula(b, *prop.formula);
  return b.Finish();
}

Fingerprint FingerprintInstance(const Instance& instance) {
  FingerprintBuilder b;
  AbsorbInstance(b, instance);
  return b.Finish();
}

Fingerprint FingerprintService(const WebService& service) {
  FingerprintBuilder b;
  b.AbsorbU64(kTagService);
  b.AbsorbString(service.name());
  b.AbsorbU64(kTagVocab);
  const Vocabulary& vocab = service.vocab();
  b.AbsorbU64(vocab.relations().size());
  for (const RelationSymbol& sym : vocab.relations()) {
    b.AbsorbString(sym.name);
    b.AbsorbU64(static_cast<uint64_t>(sym.arity));
    b.AbsorbU64(static_cast<uint64_t>(sym.kind));
  }
  b.AbsorbU64(vocab.constants().size());
  for (const std::string& c : vocab.constants()) {
    b.AbsorbString(c);
    b.AbsorbU64(vocab.IsInputConstant(c) ? 1 : 0);
  }
  b.AbsorbU64(service.pages().size());
  for (const PageSchema& page : service.pages()) AbsorbPage(b, page);
  b.AbsorbString(service.home_page());
  b.AbsorbString(service.error_page());
  return b.Finish();
}

Fingerprint FingerprintValues(const std::vector<Value>& values) {
  FingerprintBuilder b;
  b.AbsorbU64(kTagValues);
  b.AbsorbU64(values.size());
  for (const Value& v : values) {
    b.AbsorbString(v.valid() ? v.name() : std::string());
  }
  return b.Finish();
}

bool StructurallyEqual(const Formula& a, const Formula& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
      return true;
    case Formula::Kind::kAtom: {
      const Atom& x = a.atom();
      const Atom& y = b.atom();
      return x.relation == y.relation && x.prev == y.prev &&
             x.terms == y.terms;
    }
    case Formula::Kind::kEquals:
      return a.lhs() == b.lhs() && a.rhs() == b.rhs();
    case Formula::Kind::kNot:
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      if (a.variables() != b.variables()) return false;
      if (a.children().size() != b.children().size()) return false;
      for (size_t i = 0; i < a.children().size(); ++i) {
        const FormulaPtr& ca = a.children()[i];
        const FormulaPtr& cb = b.children()[i];
        if ((ca == nullptr) != (cb == nullptr)) return false;
        if (ca != nullptr && !StructurallyEqual(*ca, *cb)) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace wsv
