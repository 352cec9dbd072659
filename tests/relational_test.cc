#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "relational/instance.h"
#include "relational/name.h"
#include "relational/schema.h"
#include "relational/value.h"

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
  EXPECT_EQ(inst.domain().count(Value::Intern("ann")), 1u);
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
