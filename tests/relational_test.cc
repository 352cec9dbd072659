#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/verify_cache.h"
#include "common/fingerprint.h"
#include "common/hash.h"
#include "ltl/ltl_parser.h"
#include "relational/instance.h"
#include "relational/name.h"
#include "relational/schema.h"
#include "relational/value.h"
#include "ws/data_parser.h"
#include "ws/spec_parser.h"

namespace wsv {
namespace {

TEST(ValueTest, InterningIsStable) {
  Value a = Value::Intern("apple");
  Value b = Value::Intern("banana");
  Value a2 = Value::Intern("apple");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.name(), "apple");
}

TEST(ValueTest, InvalidSentinel) {
  Value v;
  EXPECT_FALSE(v.valid());
  EXPECT_TRUE(Value::Intern("x").valid());
}

TEST(ValueTest, FreshAvoidsCollisions) {
  Value named = Value::Intern("fresh7");
  std::set<Value> seen{named};
  for (int i = 0; i < 20; ++i) {
    Value f = Value::Fresh("fresh");
    EXPECT_TRUE(seen.insert(f).second) << f.name();
  }
}

TEST(TupleTest, ToString) {
  Tuple t{Value::Intern("a"), Value::Intern("b")};
  EXPECT_EQ(TupleToString(t), "(a, b)");
}

TEST(RelationTest, InsertEraseContains) {
  Relation r(2);
  Tuple t{Value::Intern("x"), Value::Intern("y")};
  EXPECT_TRUE(r.Insert(t));
  EXPECT_TRUE(r.Contains(t));
  EXPECT_EQ(r.size(), 1u);
  r.Erase(t);
  EXPECT_FALSE(r.Contains(t));
  // Arity mismatch rejected.
  EXPECT_FALSE(r.Insert(Tuple{Value::Intern("x")}));
}

TEST(RelationTest, PropositionHelpers) {
  Relation p(0);
  EXPECT_FALSE(p.AsBool());
  p.SetBool(true);
  EXPECT_TRUE(p.AsBool());
  p.SetBool(false);
  EXPECT_FALSE(p.AsBool());
}

TEST(RelationTest, StructuralEquality) {
  Relation a(1), b(1);
  a.Insert({Value::Intern("v")});
  EXPECT_FALSE(a == b);
  b.Insert({Value::Intern("v")});
  EXPECT_TRUE(a == b);
}

TEST(InstanceTest, AddFactCreatesRelationAndDomain) {
  Instance inst;
  ASSERT_TRUE(inst.AddFact("user", {Value::Intern("ann"),
                                    Value::Intern("pw")}).ok());
  const Relation* rel = inst.FindRelation("user");
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->arity(), 2);
  EXPECT_EQ(rel->size(), 1u);
  EXPECT_TRUE(inst.InDomain(Value::Intern("ann")));
}

TEST(InstanceTest, ArityConflictRejected) {
  Instance inst;
  ASSERT_TRUE(inst.EnsureRelation("r", 2).ok());
  EXPECT_FALSE(inst.EnsureRelation("r", 3).ok());
}

TEST(InstanceTest, ConstantsInterpretted) {
  Instance inst;
  inst.SetConstant("min", Value::Intern("m0"));
  ASSERT_TRUE(inst.FindConstant("min").has_value());
  EXPECT_EQ(inst.FindConstant("min")->name(), "m0");
  EXPECT_FALSE(inst.FindConstant("max").has_value());
}

TEST(InstanceTest, StructuralComparison) {
  Instance a, b;
  ASSERT_TRUE(a.AddFact("r", {Value::Intern("1")}).ok());
  ASSERT_TRUE(b.AddFact("r", {Value::Intern("1")}).ok());
  EXPECT_TRUE(a == b);
  ASSERT_TRUE(b.AddFact("r", {Value::Intern("2")}).ok());
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a < b || b < a);
}

// --- flat storage against the ordered containers it replaced --------------

// Relation::Hash as computed over the std::set<Tuple> layout: the arity
// folded with each tuple's hash in set order.
size_t SetRelationHash(int arity, const std::set<Tuple>& tuples) {
  size_t h = static_cast<size_t>(arity);
  for (const Tuple& t : tuples) h = HashCombine(h, TupleHash()(t));
  return h;
}

// The reference model of an instance: name-keyed ordered containers.
struct SetInstance {
  std::map<std::string, std::pair<int, std::set<Tuple>>> relations;
  std::map<std::string, Value> constants;
  std::set<Value> domain;

  // Instance::Hash over this layout.
  size_t Hash() const {
    size_t h = 0;
    for (const auto& [name, rel] : relations) {
      h = HashCombine(h, std::hash<std::string>()(name));
      h = HashCombine(h, SetRelationHash(rel.first, rel.second));
    }
    for (const auto& [name, v] : constants) {
      h = HashCombine(h, std::hash<std::string>()(name));
      h = HashCombine(h, ValueHash()(v));
    }
    return HashRange(domain.begin(), domain.end(), h);
  }
};

std::set<Tuple> RowsOf(const Relation& rel) {
  std::set<Tuple> out;
  for (Row t : rel.rows()) out.emplace(t.begin(), t.end());
  return out;
}

std::vector<Tuple> RowList(const Relation& rel) {
  std::vector<Tuple> out;
  for (Row t : rel.rows()) out.emplace_back(t.begin(), t.end());
  return out;
}

// Values interned in shuffled order, so id order differs from name
// order and from the order a test draws them in.
std::vector<Value> ShuffledValues(std::mt19937& rng, const std::string& prefix,
                                  int n) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<Value> out;
  for (int i : order) out.push_back(Value::Intern(prefix + std::to_string(i)));
  return out;
}

// Seeded random insert/erase/contains/copy sequences at arity 0-3: the
// rows, their order, Contains, ==, < and Hash agree with std::set<Tuple>
// at every step.
TEST(FlatRelationTest, MatchesOrderedSetReference) {
  std::mt19937 rng(20261019);
  const std::vector<Value> values = ShuffledValues(rng, "flatrel_v", 5);
  auto draw = [&](int arity) {
    Tuple t;
    for (int i = 0; i < arity; ++i) t.push_back(values[rng() % values.size()]);
    return t;
  };
  for (int arity = 0; arity <= 3; ++arity) {
    for (int round = 0; round < 20; ++round) {
      Relation rel(arity);
      std::set<Tuple> ref;
      Relation other(arity);
      std::set<Tuple> other_ref;
      for (int op = 0; op < 60; ++op) {
        const Tuple t = draw(arity);
        switch (rng() % 5) {
          case 0:
          case 1:
            EXPECT_TRUE(rel.Insert(t));
            ref.insert(t);
            break;
          case 2:
            rel.Erase(t);
            ref.erase(t);
            break;
          case 3:
            EXPECT_EQ(rel.Contains(t), ref.count(t) > 0);
            break;
          case 4:
            other.Insert(t);
            other_ref.insert(t);
            break;
        }
        ASSERT_EQ(rel.size(), ref.size());
        ASSERT_EQ(RowList(rel), std::vector<Tuple>(ref.begin(), ref.end()));
        ASSERT_EQ(rel.Hash(), SetRelationHash(arity, ref));
        ASSERT_EQ(rel == other, ref == other_ref);
        ASSERT_EQ(rel < other, ref < other_ref);
        ASSERT_EQ(other < rel, other_ref < ref);
      }
      // Copies and moves keep the rows, inline or on the heap.
      Relation copy = rel;
      EXPECT_EQ(copy, rel);
      Relation moved = std::move(copy);
      EXPECT_EQ(RowsOf(moved), ref);
      copy = other;
      EXPECT_EQ(RowsOf(copy), other_ref);
      // A wrong arity is rejected and changes nothing.
      EXPECT_FALSE(rel.Insert(draw(arity + 1)));
      EXPECT_EQ(rel.size(), ref.size());
    }
  }
}

// Relations of different arity order by arity first, as before.
TEST(FlatRelationTest, ArityDecidesFirst) {
  Relation unary(1);
  unary.Insert({Value::Intern("flatrel_z")});
  Relation binary(2);
  EXPECT_TRUE(unary < binary);
  EXPECT_FALSE(binary < unary);
  Relation empty0(0);
  Relation true0(0);
  true0.SetBool(true);
  EXPECT_TRUE(empty0 < true0);
  EXPECT_EQ(true0.rows().size(), 1u);
  EXPECT_TRUE(true0.row(0).empty());
}

// Seeded random instances: domain order, relation rows, ==, < and Hash
// agree with the name-keyed ordered containers.
TEST(FlatRelationTest, InstanceMatchesOrderedReference) {
  std::mt19937 rng(4242);
  const std::vector<Value> values = ShuffledValues(rng, "flatinst_v", 7);
  const std::vector<std::pair<std::string, int>> relations = {
      {"flatinst_r0", 0}, {"flatinst_r1", 1}, {"flatinst_r2", 2},
      {"flatinst_r3", 3}};
  for (int round = 0; round < 30; ++round) {
    Instance inst;
    SetInstance ref;
    for (int op = 0; op < 40; ++op) {
      const Value v = values[rng() % values.size()];
      switch (rng() % 4) {
        case 0:
          inst.AddDomainValue(v);
          ref.domain.insert(v);
          break;
        case 1: {
          const std::string c = "flatinst_c" + std::to_string(rng() % 3);
          inst.SetConstant(c, v);
          ref.constants[c] = v;
          ref.domain.insert(v);
          break;
        }
        default: {
          const auto& [name, arity] = relations[rng() % relations.size()];
          Tuple t;
          for (int i = 0; i < arity; ++i) {
            t.push_back(values[rng() % values.size()]);
          }
          ASSERT_TRUE(inst.AddFact(name, t).ok());
          auto& [ref_arity, ref_rows] = ref.relations[name];
          ref_arity = arity;
          ref_rows.insert(t);
          ref.domain.insert(t.begin(), t.end());
          break;
        }
      }
      const Row dom = inst.domain();
      ASSERT_EQ(std::vector<Value>(dom.begin(), dom.end()),
                std::vector<Value>(ref.domain.begin(), ref.domain.end()));
      for (Value x : values) {
        ASSERT_EQ(inst.InDomain(x), ref.domain.count(x) > 0);
      }
      ASSERT_EQ(inst.Hash(), ref.Hash());
    }
    for (const auto& [name, rel] : ref.relations) {
      const Relation* flat = inst.FindRelation(name);
      ASSERT_NE(flat, nullptr);
      EXPECT_EQ(RowsOf(*flat), rel.second);
    }
    Instance copy = inst;
    EXPECT_EQ(copy, inst);
    EXPECT_FALSE(copy < inst || inst < copy);
    copy.AddDomainValue(Value::Intern("flatinst_extra"));
    EXPECT_FALSE(copy == inst);
    EXPECT_TRUE(copy < inst || inst < copy);
  }
}

std::string ReadSpecFile(const std::string& name) {
  std::ifstream in(std::string(WSV_SPECS_DIR) + "/" + name);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// The fingerprints and request keys of the shipped databases, recorded
// with the ordered-container data layer: cache directories written by
// earlier builds still hit.
TEST(FlatRelationTest, ShippedKeysMatchEarlierBuilds) {
  const std::map<std::string, std::string> fingerprints = {
      {"catalog.wsd", "78bee1f0b151d3bbe5d6724da32dd635"},
      {"ecommerce.wsd", "770773bb66805bb7a1ef7580637d77e1"},
      {"ecommerce_small.wsd", "08cebf1201697f4d146c9d0bc860120f"},
      {"login.wsd", "c603b822e267ba714c1d919b59f0b81b"},
  };
  for (const auto& [file, hex] : fingerprints) {
    StatusOr<Instance> db = ParseDataFile(ReadSpecFile(file));
    ASSERT_TRUE(db.ok()) << file << ": " << db.status().ToString();
    EXPECT_EQ(FingerprintInstance(*db).ToHex(), hex) << file;
  }
  struct KeyCase {
    const char* spec;
    const char* db;
    const char* property;
    const char* key;
  };
  for (const KeyCase& c :
       {KeyCase{"login.wsv", "login.wsd", "G(!CP | logged_in)",
                "faef44e7b76b825d24e21639f22ec913"},
        KeyCase{"ecommerce.wsv", "ecommerce_small.wsd",
                "G(!PIP) | F(PIP & F(CC))", "4527fe943246450a73c9511aa3461b14"},
        KeyCase{"ecommerce.wsv", "ecommerce.wsd", "G(!PIP) | F(PIP & F(CC))",
                "b7a24ed047f5ef47aafda0c24d5697a5"}}) {
    StatusOr<WebService> service = ParseServiceSpec(ReadSpecFile(c.spec));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    StatusOr<Instance> db = ParseDataFile(ReadSpecFile(c.db), &service->vocab());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto property = ParseTemporalProperty(c.property, &service->vocab());
    ASSERT_TRUE(property.ok()) << property.status().ToString();
    LtlVerifyOptions options;
    options.enable_slice = true;
    EXPECT_EQ(cache::MakeRequestKey(*service, *property, &*db, options,
                                    /*jobs=*/1)
                  .combined.ToHex(),
              c.key)
        << c.spec << " + " << c.db;
  }
}

TEST(NameTest, InternFindAndHash) {
  const NameId a = InternName("name_test_alpha");
  EXPECT_EQ(InternName("name_test_alpha"), a);
  EXPECT_EQ(FindName("name_test_alpha"), a);
  EXPECT_EQ(FindName("name_test_never_interned"), kNoName);
  EXPECT_EQ(NameOf(a), "name_test_alpha");
  EXPECT_EQ(NameHash(a), std::hash<std::string>()("name_test_alpha"));
}

// A NameMap iterates, compares and orders exactly like the name-keyed
// std::map it stands in for, whatever order names were interned in.
TEST(NameTest, NameMapFollowsNameOrder) {
  InternName("name_test_z");  // interned before "name_test_a"
  NameMap<int> m = {{"name_test_z", 1}, {"name_test_a", 2},
                    {"name_test_m", 3}};
  std::map<std::string, int> ref = {
      {"name_test_z", 1}, {"name_test_a", 2}, {"name_test_m", 3}};
  std::vector<std::pair<std::string, int>> got, want(ref.begin(), ref.end());
  for (const auto& [name, v] : m) got.emplace_back(name, v);
  EXPECT_EQ(got, want);

  NameMap<int> n = m;
  n.Set(InternName("name_test_m"), 4);
  std::map<std::string, int> ref_n = ref;
  ref_n["name_test_m"] = 4;
  EXPECT_FALSE(m == n);
  EXPECT_EQ(m < n, ref < ref_n);
  EXPECT_EQ(n < m, ref_n < ref);
  NameMap<int> shorter = {{"name_test_a", 2}};
  std::map<std::string, int> ref_shorter = {{"name_test_a", 2}};
  EXPECT_EQ(shorter < m, ref_shorter < ref);
  EXPECT_EQ(*m.Find(InternName("name_test_a")), 2);
  EXPECT_EQ(m.Find(InternName("name_test_b")), nullptr);
}

// Absent and present-but-empty relations stay distinct.
TEST(InstanceTest, AbsentRelationIsNotEmptyRelation) {
  Instance inst;
  ASSERT_TRUE(inst.EnsureRelation(InternName("r_empty"), 1).ok());
  ASSERT_NE(inst.FindRelation(InternName("r_empty")), nullptr);
  EXPECT_TRUE(inst.FindRelation(InternName("r_empty"))->empty());
  EXPECT_EQ(inst.FindRelation(InternName("r_absent")), nullptr);
  Instance other;
  EXPECT_FALSE(inst == other);
}

// Concurrent sweeps intern and read names from several threads; every
// thread must see one id per name and the name behind every id. Runs
// under `ctest -L tsan`; the names cross a storage chunk boundary.
TEST(NameTest, ConcurrentInterningAgrees) {
  constexpr int kThreads = 4;
  constexpr int kNames = 1500;
  std::vector<std::vector<NameId>> ids(
      kThreads, std::vector<NameId>(kNames, kNoName));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (int i = 0; i < kNames; ++i) {
        // Each thread starts at a different name.
        const int k = (i + t * kNames / kThreads) % kNames;
        const std::string name = "name_test_c" + std::to_string(k);
        const NameId id = InternName(name);
        ids[static_cast<size_t>(t)][static_cast<size_t>(k)] = id;
        if (NameOf(id) != name) ADD_FAILURE() << name;
        if (NameHash(id) != std::hash<std::string>()(name)) {
          ADD_FAILURE() << name;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int k = 0; k < kNames; ++k) {
    const NameId id = FindName("name_test_c" + std::to_string(k));
    ASSERT_NE(id, kNoName);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(ids[static_cast<size_t>(t)][static_cast<size_t>(k)], id);
    }
  }
}

TEST(VocabularyTest, AddAndFind) {
  Vocabulary v;
  ASSERT_TRUE(v.AddRelation("user", 2, SymbolKind::kDatabase).ok());
  ASSERT_TRUE(v.AddRelation("err", 0, SymbolKind::kState).ok());
  ASSERT_TRUE(v.AddConstant("name", true).ok());
  ASSERT_TRUE(v.AddConstant("i0", false).ok());

  const RelationSymbol* user = v.FindRelation("user");
  ASSERT_NE(user, nullptr);
  EXPECT_EQ(user->arity, 2);
  EXPECT_EQ(user->kind, SymbolKind::kDatabase);
  EXPECT_TRUE(v.FindRelation("err")->IsProposition());

  EXPECT_TRUE(v.IsConstant("name"));
  EXPECT_TRUE(v.IsInputConstant("name"));
  EXPECT_TRUE(v.IsConstant("i0"));
  EXPECT_FALSE(v.IsInputConstant("i0"));
  EXPECT_EQ(v.InputConstants(), std::vector<std::string>{"name"});
}

TEST(VocabularyTest, RejectsDuplicatesAndBadNames) {
  Vocabulary v;
  ASSERT_TRUE(v.AddRelation("r", 1, SymbolKind::kInput).ok());
  EXPECT_FALSE(v.AddRelation("r", 1, SymbolKind::kInput).ok());
  EXPECT_FALSE(v.AddConstant("r", false).ok());
  EXPECT_FALSE(v.AddRelation("bad name", 1, SymbolKind::kInput).ok());
  EXPECT_FALSE(v.AddRelation("neg", -1, SymbolKind::kInput).ok());
  ASSERT_TRUE(v.AddConstant("c", false).ok());
  EXPECT_FALSE(v.AddRelation("c", 0, SymbolKind::kState).ok());
}

TEST(VocabularyTest, RelationsOfKind) {
  Vocabulary v;
  ASSERT_TRUE(v.AddRelation("a", 1, SymbolKind::kInput).ok());
  ASSERT_TRUE(v.AddRelation("b", 1, SymbolKind::kState).ok());
  ASSERT_TRUE(v.AddRelation("c", 2, SymbolKind::kInput).ok());
  std::vector<RelationSymbol> inputs = v.RelationsOfKind(SymbolKind::kInput);
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_EQ(inputs[0].name, "a");
  EXPECT_EQ(inputs[1].name, "c");
}

}  // namespace
}  // namespace wsv
