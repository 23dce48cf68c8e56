#include "relational/schema.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace mview {
namespace {

TEST(SchemaTest, OfIntsBuildsNamedIntAttributes) {
  Schema s = Schema::OfInts({"A", "B", "C"});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.attribute(0).name, "A");
  EXPECT_EQ(s.attribute(2).type, ValueType::kInt64);
}

TEST(SchemaTest, DuplicateNamesThrow) {
  EXPECT_THROW(Schema::OfInts({"A", "A"}), Error);
}

TEST(SchemaTest, EmptyNameThrows) {
  EXPECT_THROW(Schema({{"", ValueType::kInt64}}), Error);
}

TEST(SchemaTest, IndexLookup) {
  Schema s = Schema::OfInts({"A", "B"});
  EXPECT_EQ(s.IndexOf("B"), std::optional<size_t>(1));
  EXPECT_EQ(s.IndexOf("Z"), std::nullopt);
  EXPECT_EQ(s.MustIndexOf("A"), 0u);
  EXPECT_THROW(s.MustIndexOf("Z"), Error);
  EXPECT_TRUE(s.Contains("A"));
  EXPECT_FALSE(s.Contains("Q"));
}

TEST(SchemaTest, ConcatDisjoint) {
  Schema s = Schema::OfInts({"A"}).Concat(Schema::OfInts({"B", "C"}));
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.attribute(1).name, "B");
}

TEST(SchemaTest, ConcatOverlapThrows) {
  EXPECT_THROW(Schema::OfInts({"A"}).Concat(Schema::OfInts({"A"})), Error);
}

TEST(SchemaTest, ProjectReordersAndReportsIndices) {
  Schema s = Schema::OfInts({"A", "B", "C"});
  std::vector<size_t> indices;
  Schema p = s.Project({"C", "A"}, &indices);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.attribute(0).name, "C");
  EXPECT_EQ(indices, (std::vector<size_t>{2, 0}));
}

TEST(SchemaTest, ProjectUnknownThrows) {
  EXPECT_THROW(Schema::OfInts({"A"}).Project({"B"}), Error);
}

TEST(SchemaTest, WithPrefix) {
  Schema s = Schema::OfInts({"A", "B"}).WithPrefix("r.");
  EXPECT_EQ(s.attribute(0).name, "r.A");
  EXPECT_EQ(s.attribute(1).name, "r.B");
}

TEST(SchemaTest, EqualityAndToString) {
  Schema a = Schema::OfInts({"A", "B"});
  Schema b = Schema::OfInts({"A", "B"});
  Schema c = Schema::OfInts({"B", "A"});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.ToString(), "(A:int64, B:int64)");
}

TEST(SchemaTest, MixedTypes) {
  Schema s({{"id", ValueType::kInt64}, {"name", ValueType::kString}});
  EXPECT_EQ(s.attribute(1).type, ValueType::kString);
  EXPECT_EQ(s.ToString(), "(id:int64, name:string)");
}

TEST(SchemaTest, AttributeIndexOutOfRangeThrows) {
  Schema s = Schema::OfInts({"A"});
  EXPECT_THROW(s.attribute(1), Error);
}


TEST(SchemaTest, CopySharesRepresentation) {
  Schema a({{"id", ValueType::kInt64}, {"name", ValueType::kString}});
  Schema b = a;
  Schema c;
  c = b;
  EXPECT_EQ(&a.attributes(), &b.attributes());
  EXPECT_EQ(&a.attributes(), &c.attributes());
  EXPECT_EQ(a, c);
  EXPECT_EQ(c.IndexOf("name"), std::optional<size_t>(1));
}

TEST(SchemaTest, IndependentlyBuiltEqualSchemasCompareEqual) {
  Schema a({{"id", ValueType::kInt64}, {"name", ValueType::kString}});
  Schema b({{"id", ValueType::kInt64}, {"name", ValueType::kString}});
  EXPECT_NE(&a.attributes(), &b.attributes());
  EXPECT_EQ(a, b);
  Schema retyped({{"id", ValueType::kInt64}, {"name", ValueType::kInt64}});
  EXPECT_NE(a, retyped);
  EXPECT_EQ(Schema::OfInts({"A"}).Concat(Schema::OfInts({"B"})),
            Schema::OfInts({"A", "B"}));
}

TEST(SchemaTest, DefaultSchemaIsEmpty) {
  Schema s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.attributes().empty());
  EXPECT_EQ(s.IndexOf("A"), std::nullopt);
  EXPECT_FALSE(s.Contains("A"));
  EXPECT_EQ(s.ToString(), "()");
  EXPECT_EQ(s, Schema(std::vector<Attribute>{}));
  EXPECT_NE(s, Schema::OfInts({"A"}));
  EXPECT_EQ(s.Concat(Schema::OfInts({"A"})), Schema::OfInts({"A"}));
  EXPECT_EQ(Schema::OfInts({"A"}).Concat(s), Schema::OfInts({"A"}));
}

// The shared representation must not change which errors construction and
// concatenation report.
TEST(SchemaTest, ErrorMessagesAreUnchanged) {
  auto message_of = [](auto&& make) -> std::string {
    try {
      make();
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message_of([] { Schema({{"", ValueType::kInt64}}); })
                .find("empty attribute name"),
            std::string::npos);
  EXPECT_NE(message_of([] { Schema::OfInts({"A", "B", "A"}); })
                .find("duplicate attribute name: A"),
            std::string::npos);
  EXPECT_NE(message_of([] {
              Schema::OfInts({"A", "B"}).Concat(Schema::OfInts({"C", "B"}));
            }).find("schemes share attribute when concatenating: B"),
            std::string::npos);
  EXPECT_NE(message_of([] { Schema::OfInts({"A"}).MustIndexOf("Z"); })
                .find("unknown attribute: Z in scheme (A:int64)"),
            std::string::npos);
}

}  // namespace
}  // namespace mview
