// Tests for relation schemas (Definition 2.2) and tuples (Definition 2.4).

#include <gtest/gtest.h>

#include "mra/core/schema.h"
#include "mra/core/tuple.h"
#include "test_util.h"

namespace mra {
namespace {

RelationSchema Beer() {
  return RelationSchema("beer", {{"name", Type::String()},
                                 {"brewery", Type::String()},
                                 {"alcperc", Type::Real()}});
}

TEST(SchemaTest, BasicAccessors) {
  RelationSchema s = Beer();
  EXPECT_EQ(s.name(), "beer");
  EXPECT_EQ(s.arity(), 3u);
  EXPECT_EQ(s.attribute(0).name, "name");
  EXPECT_EQ(s.TypeOf(2), Type::Real());
}

TEST(SchemaTest, IndexOfByName) {
  RelationSchema s = Beer();
  ASSERT_OK(s.IndexOf("brewery"));
  EXPECT_EQ(*s.IndexOf("brewery"), 1u);
  EXPECT_EQ(s.IndexOf("missing").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, IndexOfAmbiguous) {
  RelationSchema s("t", {{"x", Type::Int()}, {"x", Type::Int()}});
  EXPECT_EQ(s.IndexOf("x").status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, CompatibilityIgnoresNames) {
  // The paper's "same schema" is the domain list; names are notation.
  RelationSchema a("a", {{"x", Type::Int()}, {"y", Type::String()}});
  RelationSchema b("b", {{"p", Type::Int()}, {"q", Type::String()}});
  RelationSchema c("c", {{"x", Type::Int()}, {"y", Type::Int()}});
  EXPECT_TRUE(a.CompatibleWith(b));
  EXPECT_FALSE(a.CompatibleWith(c));
  EXPECT_FALSE(a.CompatibleWith(RelationSchema("d", {{"x", Type::Int()}})));
}

TEST(SchemaTest, ConcatIsSchemaOplus) {
  RelationSchema ab = Beer().Concat(
      RelationSchema("brewery", {{"name", Type::String()},
                                 {"city", Type::String()},
                                 {"country", Type::String()}}));
  EXPECT_EQ(ab.arity(), 6u);
  EXPECT_EQ(ab.attribute(3).name, "name");
  EXPECT_EQ(ab.TypeOf(5), Type::String());
}

TEST(SchemaTest, ProjectKeepsOrderAndAllowsRepeats) {
  auto p = Beer().Project({2, 0, 0});
  ASSERT_OK(p);
  EXPECT_EQ(p->arity(), 3u);
  EXPECT_EQ(p->attribute(0).name, "alcperc");
  EXPECT_EQ(p->attribute(1).name, "name");
  EXPECT_EQ(p->attribute(2).name, "name");
}

TEST(SchemaTest, ProjectRejectsOutOfRange) {
  EXPECT_EQ(Beer().Project({3}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, ToStringForm) {
  EXPECT_EQ(Beer().ToString(),
            "beer(name: string, brewery: string, alcperc: real)");
  EXPECT_EQ(RelationSchema({{"x", Type::Int()}}).ToString(),
            "<anonymous>(x: int)");
}

TEST(TupleTest, ArityAndAccess) {
  Tuple t({Value::Int(1), Value::Str("a")});
  EXPECT_EQ(t.arity(), 2u);  // #r of Definition 2.4
  EXPECT_EQ(t.at(0).int_value(), 1);
  EXPECT_EQ(t.at(1).string_value(), "a");
}

TEST(TupleTest, ConcatIsOplus) {
  Tuple r1({Value::Int(1)});
  Tuple r2({Value::Str("x"), Value::Bool(true)});
  Tuple r = r1.Concat(r2);
  EXPECT_EQ(r.arity(), 3u);
  EXPECT_EQ(r.at(0).int_value(), 1);
  EXPECT_EQ(r.at(2).bool_value(), true);
}

TEST(TupleTest, ProjectionConcatenatesListedAttributes) {
  Tuple t({Value::Int(10), Value::Int(20), Value::Int(30)});
  Tuple p = t.Project({2, 0});
  EXPECT_EQ(p.arity(), 2u);
  EXPECT_EQ(p.at(0).int_value(), 30);
  EXPECT_EQ(p.at(1).int_value(), 10);
}

TEST(TupleTest, ProjectionAllowsRepeatedIndexes) {
  Tuple t({Value::Int(5)});
  Tuple p = t.Project({0, 0, 0});
  EXPECT_EQ(p.arity(), 3u);
  EXPECT_EQ(p.at(2).int_value(), 5);
}

TEST(TupleTest, EqualityAttributeWise) {
  using ::mra::testing::IntTuple;
  EXPECT_TRUE(IntTuple({1, 2}).Equals(IntTuple({1, 2})));
  EXPECT_FALSE(IntTuple({1, 2}).Equals(IntTuple({2, 1})));
}

TEST(TupleTest, EqualityDistinguishesDomains) {
  Tuple a({Value::Int(1)});
  Tuple b({Value::Bool(true)});  // same raw representation, other domain
  EXPECT_FALSE(a.Equals(b));
}

TEST(TupleTest, HashConsistentWithEquality) {
  using ::mra::testing::IntTuple;
  EXPECT_EQ(IntTuple({1, 2, 3}).Hash(), IntTuple({1, 2, 3}).Hash());
  EXPECT_NE(IntTuple({1, 2, 3}).Hash(), IntTuple({3, 2, 1}).Hash());
}

TEST(TupleTest, ConformsToChecksArityAndDomains) {
  RelationSchema s = Beer();
  Tuple good({Value::Str("pils"), Value::Str("Guineken"), Value::Real(5.0)});
  EXPECT_OK(good.ConformsTo(s));
  Tuple short_tuple({Value::Str("pils")});
  EXPECT_EQ(short_tuple.ConformsTo(s).code(), StatusCode::kInvalidArgument);
  Tuple wrong_domain(
      {Value::Str("pils"), Value::Str("Guineken"), Value::Int(5)});
  EXPECT_EQ(wrong_domain.ConformsTo(s).code(), StatusCode::kTypeError);
}

TEST(TupleTest, ToStringForm) {
  Tuple t({Value::Int(1), Value::Str("a")});
  EXPECT_EQ(t.ToString(), "(1, 'a')");
  EXPECT_EQ(Tuple{}.ToString(), "()");
}

TEST(TupleTest, EmptyTupleEquality) {
  EXPECT_TRUE(Tuple{}.Equals(Tuple{}));
  EXPECT_EQ(Tuple{}.Hash(), Tuple{}.Hash());
}

TEST(TupleTest, ProjectionCopiesStringsOnBothSidesOfTheInlineLimit) {
  const std::string s14(Value::kInlineStringMax, 'a');
  const std::string s15 = std::string(7, 'b') + '\0' + std::string(7, 'c');
  ASSERT_EQ(s15.size(), Value::kInlineStringMax + 1);
  const Tuple t({Value::Str(s14), Value::Int(3), Value::Str(s15)});

  const Tuple p = t.Project({2, 0, 2});
  ASSERT_EQ(p.arity(), 3u);
  EXPECT_EQ(p.at(0).string_view(), s15);
  EXPECT_EQ(p.at(1).string_view(), s14);
  EXPECT_EQ(p.at(2).string_view(), s15);
  EXPECT_NE(p.at(0).string_view().data(), t.at(2).string_view().data());

  // Into recycled storage that held a long string of its own.
  Tuple scratch({Value::Str(std::string(40, 'z')), Value::Int(1)});
  scratch.AssignProjection(t, {2, 0});
  EXPECT_TRUE(scratch.Equals(Tuple({Value::Str(s15), Value::Str(s14)})));
  scratch.AssignConcat(t, p);
  EXPECT_EQ(scratch.arity(), 6u);
  EXPECT_EQ(scratch.at(5).string_view(), s15);

  Tuple copy = t;
  Tuple moved = std::move(copy);
  EXPECT_TRUE(moved.Equals(t));
  EXPECT_EQ(moved.Hash(), t.Hash());
  EXPECT_EQ(t.at(2).string_view(), s15);
}

TEST(TupleTest, HeapBytesCountsOnlyLongStringBlocks) {
  const Tuple short_only({Value::Int(1),
                          Value::Str(std::string(Value::kInlineStringMax, 's')),
                          Value::Real(2.5), Value::Str("")});
  EXPECT_EQ(short_only.HeapBytes(), 4 * sizeof(Value));

  const Value s15 = Value::Str(std::string(Value::kInlineStringMax + 1, 'l'));
  const Value s100 = Value::Str(std::string(100, 'm'));
  EXPECT_GE(s15.heap_bytes(), Value::kInlineStringMax + 1);
  EXPECT_GE(s100.heap_bytes(), 100u);
  const Tuple with_long({Value::Int(1), s15, s100});
  EXPECT_EQ(with_long.HeapBytes(),
            3 * sizeof(Value) + s15.heap_bytes() + s100.heap_bytes());
}

}  // namespace
}  // namespace mra
