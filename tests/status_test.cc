#include "common/status.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/env.h"
#include "common/flat_index.h"
#include "common/str_util.h"

namespace wsv {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::ParseError("bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "bad token");
  EXPECT_EQ(st.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kParseError, StatusCode::kNotInputBounded,
        StatusCode::kUnsupported, StatusCode::kResourceExhausted,
        StatusCode::kNotFound, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

StatusOr<int> Quarter(int x) {
  WSV_ASSIGN_OR_RETURN(int h, Half(x));
  WSV_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  StatusOr<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  StatusOr<int> err = Quarter(6);  // 6/2 = 3, odd
  EXPECT_FALSE(err.ok());
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StrUtilTest, SplitTrims) {
  std::vector<std::string> parts = Split(" a , b ,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StrUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
}

TEST(StrUtilTest, IsIdentifier) {
  EXPECT_TRUE(IsIdentifier("abc"));
  EXPECT_TRUE(IsIdentifier("_a1"));
  EXPECT_FALSE(IsIdentifier(""));
  EXPECT_FALSE(IsIdentifier("1a"));
  EXPECT_FALSE(IsIdentifier("a-b"));
}

TEST(StrUtilTest, QuoteString) {
  EXPECT_EQ(QuoteString("ab"), "\"ab\"");
  EXPECT_EQ(QuoteString("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(QuoteString("a\nb"), "\"a\\nb\"");
}

// The one rule every WSV_DISABLE_* switch follows: set, non-empty and
// not "0".
TEST(EnvTest, FlagSetOnlyForNonEmptyValuesOtherThanZero) {
  constexpr char kName[] = "WSV_TEST_ENV_FLAG";
  ::unsetenv(kName);
  EXPECT_FALSE(EnvFlagSet(kName));
  for (const char* off : {"", "0"}) {
    ::setenv(kName, off, 1);
    EXPECT_FALSE(EnvFlagSet(kName)) << "'" << off << "'";
  }
  for (const char* on : {"1", "yes", "00", "true", " "}) {
    ::setenv(kName, on, 1);
    EXPECT_TRUE(EnvFlagSet(kName)) << "'" << on << "'";
  }
  ::unsetenv(kName);
}

// FlatIdIndex interns keys the caller stores by id. Colliding hashes
// fall back to the caller's equality, growth keeps every entry, and a
// cleared table (O(1): a new generation) finds nothing of the old
// contents while reusing its capacity for new ones.
TEST(FlatIdIndexTest, InternsGrowsAndClears) {
  std::vector<int> keys;
  FlatIdIndex index;
  auto intern = [&](int key, uint64_t hash) {
    bool added = false;
    const int id = index.FindOrInsert(
        hash, static_cast<int>(keys.size()),
        [&](int u) {
          return static_cast<size_t>(u) < keys.size() &&
                 keys[static_cast<size_t>(u)] == key;
        },
        &added);
    if (added) keys.push_back(key);
    return id;
  };
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    keys.clear();
    index.clear();
    EXPECT_EQ(index.size(), 0u);
    // 500 keys, far past the first capacity, every fourth sharing its
    // hash with the key before it.
    for (int k = 0; k < 500; ++k) {
      const uint64_t hash = k % 4 == 3 ? uint64_t(k - 1) : uint64_t(k);
      EXPECT_EQ(intern(k + round, hash), k);
    }
    for (int k = 0; k < 500; ++k) {
      const uint64_t hash = k % 4 == 3 ? uint64_t(k - 1) : uint64_t(k);
      EXPECT_EQ(intern(k + round, hash), k) << "key " << k;
    }
    EXPECT_EQ(index.size(), 500u);
    EXPECT_EQ(keys.size(), 500u);
  }
}

}  // namespace
}  // namespace wsv
