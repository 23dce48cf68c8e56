#include "relational/value.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/error.h"

namespace mview {
namespace {

TEST(ValueTest, DefaultIsIntZero) {
  Value v;
  EXPECT_EQ(v.type(), ValueType::kInt64);
  EXPECT_EQ(v.AsInt64(), 0);
}

TEST(ValueTest, IntRoundTrip) {
  Value v(42);
  EXPECT_EQ(v.type(), ValueType::kInt64);
  EXPECT_EQ(v.AsInt64(), 42);
  EXPECT_EQ(Value(int64_t{-7}).AsInt64(), -7);
}

TEST(ValueTest, StringRoundTrip) {
  Value v("hello");
  EXPECT_EQ(v.type(), ValueType::kString);
  EXPECT_EQ(v.AsString(), "hello");
}

TEST(ValueTest, WrongAccessorThrows) {
  EXPECT_THROW(Value(1).AsString(), Error);
  EXPECT_THROW(Value("x").AsInt64(), Error);
}

TEST(ValueTest, IntComparisons) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_GT(Value(3), Value(2));
  EXPECT_EQ(Value(5), Value(5));
  EXPECT_NE(Value(5), Value(6));
  EXPECT_LE(Value(5), Value(5));
  EXPECT_GE(Value(5), Value(5));
}

TEST(ValueTest, StringComparisonsAreLexicographic) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_LT(Value("ab"), Value("abc"));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, MixedTypeComparisonThrows) {
  EXPECT_THROW((void)Value(1).Compare(Value("1")), Error);
  EXPECT_THROW((void)(Value("a") < Value(2)), Error);
}

TEST(ValueTest, MixedTypeEqualityIsFalseNotThrow) {
  // operator== compares the type tag first (distinct types are unequal).
  EXPECT_FALSE(Value(1) == Value("1"));
  EXPECT_TRUE(Value(1) != Value("1"));
}

TEST(ValueTest, HashDistinguishesTypicalValues) {
  std::unordered_set<Value> set;
  for (int64_t i = 0; i < 1000; ++i) set.insert(Value(i));
  set.insert(Value("a"));
  set.insert(Value("b"));
  EXPECT_EQ(set.size(), 1002u);
  EXPECT_TRUE(set.count(Value(999)));
  EXPECT_TRUE(set.count(Value("a")));
  EXPECT_FALSE(set.count(Value(1000)));
}

TEST(ValueTest, HashEqualForEqualValues) {
  EXPECT_EQ(Value(7).Hash(), Value(7).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
}

TEST(ValueTest, IsSixteenBytes) { EXPECT_EQ(sizeof(Value), 16u); }

// The hash formulas are part of the on-disk and iteration-order contract:
// `StableHash` assigns hash partitions that checkpoints persist, and
// `Hash` fixes unordered-container iteration order.  Any change to the
// value layout must reproduce these constants bit for bit.
TEST(ValueTest, StableHashIsPinned) {
  EXPECT_EQ(Value(0).StableHash(), 0xe604823a249029bfULL);
  EXPECT_EQ(Value(1).StableHash(), 0xc709bb3119a0df9eULL);
  EXPECT_EQ(Value(int64_t{-1}).StableHash(), 0x7a4969ca2d631437ULL);
  EXPECT_EQ(Value(42).StableHash(), 0x8f919d0115208895ULL);
  EXPECT_EQ(Value(int64_t{1} << 40).StableHash(), 0xdd5b073a1fa82b14ULL);
  EXPECT_EQ(Value("").StableHash(), 0xaf63bc4c8601b62cULL);
  EXPECT_EQ(Value("abc").StableHash(), 0xca907677e91e9e04ULL);
  EXPECT_EQ(Value("l_orderkey").StableHash(), 0x1ad42e7d2b7b5aa6ULL);
}

TEST(ValueTest, HashIsPinned) {
  // The integer mix is library-independent.
  EXPECT_EQ(Value(0).Hash(), std::size_t{0});
  EXPECT_EQ(Value(1).Hash(), std::size_t{0xff51afd792fd5b26ULL});
  EXPECT_EQ(Value(int64_t{-1}).Hash(), std::size_t{0x0955399984aa9cccULL});
  EXPECT_EQ(Value(42).Hash(), std::size_t{0xe366d96c81ba7514ULL});
  EXPECT_EQ(Value(int64_t{1} << 40).Hash(),
            std::size_t{0xfe64b8f6d5f43afbULL});
  // Strings defer to the standard library's hash, salted.
  for (const char* s : {"", "abc", "l_orderkey"}) {
    EXPECT_EQ(Value(s).Hash(),
              std::hash<std::string>{}(s) ^ 0x9e3779b97f4a7c15ULL)
        << s;
  }
}

TEST(ValueTest, CopyIsDeepForStrings) {
  Value a(std::string(40, 'x'));  // longer than any small-string buffer
  Value b(a);
  EXPECT_EQ(b, a);
  EXPECT_NE(&a.AsString(), &b.AsString());
  Value c(7);
  c = a;  // int slot becomes a string
  EXPECT_EQ(c.AsString(), std::string(40, 'x'));
  Value d("short");
  d = a;  // string over string
  EXPECT_EQ(d, a);
  d = Value(9);  // string slot becomes an int
  EXPECT_EQ(d.type(), ValueType::kInt64);
  EXPECT_EQ(d.AsInt64(), 9);
  EXPECT_EQ(a.AsString(), std::string(40, 'x'));  // source untouched
}

TEST(ValueTest, SelfAssignmentKeepsTheValue) {
  Value s("self");
  Value& alias = s;
  s = alias;
  EXPECT_EQ(s.AsString(), "self");
  s = std::move(alias);
  EXPECT_EQ(s.AsString(), "self");
  Value i(5);
  Value& ialias = i;
  i = ialias;
  i = std::move(ialias);
  EXPECT_EQ(i.AsInt64(), 5);
}

TEST(ValueTest, MoveTransfersStringAndLeavesIntZero) {
  Value a(std::string(40, 'y'));
  const std::string* payload = &a.AsString();
  Value b(std::move(a));
  EXPECT_EQ(&b.AsString(), payload);  // moved, not copied
  EXPECT_EQ(a.type(), ValueType::kInt64);  // NOLINT: moved-from state
  EXPECT_EQ(a.AsInt64(), 0);
  Value c("old");
  c = std::move(b);
  EXPECT_EQ(&c.AsString(), payload);
  EXPECT_EQ(b, Value(0));  // NOLINT: moved-from state
  // A moved-from value is fully usable again.
  a = Value("again");
  b = c;
  EXPECT_EQ(a.AsString(), "again");
  EXPECT_EQ(b.AsString(), std::string(40, 'y'));
}

TEST(ValueTest, VectorsOfStringsSurviveReallocation) {
  std::vector<Value> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(i % 2 == 0 ? Value(std::to_string(i) + "-long-string")
                                : Value(i));
  }
  std::vector<Value> copy = values;
  values.erase(values.begin(), values.begin() + 100);
  for (int i = 100; i < 200; ++i) {
    EXPECT_EQ(values[i - 100], copy[i]);
  }
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value(-3).ToString(), "-3");
  EXPECT_EQ(Value("hi").ToString(), "\"hi\"");
}

TEST(ValueTest, TypeNames) {
  EXPECT_STREQ(ValueTypeName(ValueType::kInt64), "int64");
  EXPECT_STREQ(ValueTypeName(ValueType::kString), "string");
}

}  // namespace
}  // namespace mview
