// Tests for multi-set relations: R : dom(ℛ) → ℕ (Definition 2.2) and the
// comparison operators = and ⊑ (Definition 2.3).

#include "mra/core/relation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "test_util.h"

namespace mra {
namespace {

using ::mra::testing::IntRel;
using ::mra::testing::IntTuple;

TEST(RelationTest, InsertAccumulatesMultiplicity) {
  Relation r(RelationSchema("r", {{"x", Type::Int()}}));
  ASSERT_OK(r.Insert(IntTuple({1})));
  ASSERT_OK(r.Insert(IntTuple({1}), 2));
  EXPECT_EQ(r.Multiplicity(IntTuple({1})), 3u);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.distinct_size(), 1u);
}

TEST(RelationTest, MultiplicityZeroForAbsentTuple) {
  Relation r(RelationSchema("r", {{"x", Type::Int()}}));
  EXPECT_EQ(r.Multiplicity(IntTuple({9})), 0u);
  EXPECT_FALSE(r.Contains(IntTuple({9})));
}

TEST(RelationTest, MembershipIsPositiveMultiplicity) {
  // r ∈ R ⇔ R(r) > 0 (Definition 2.4).
  Relation r = IntRel("r", {{1}, {1}}, 1);
  EXPECT_TRUE(r.Contains(IntTuple({1})));
  EXPECT_FALSE(r.Contains(IntTuple({2})));
}

TEST(RelationTest, InsertValidatesSchema) {
  Relation r(RelationSchema("r", {{"x", Type::Int()}}));
  EXPECT_EQ(r.Insert(Tuple({Value::Str("a")})).code(),
            StatusCode::kTypeError);
  EXPECT_EQ(r.Insert(IntTuple({1, 2})).code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, InsertZeroCountIsNoop) {
  Relation r(RelationSchema("r", {{"x", Type::Int()}}));
  ASSERT_OK(r.Insert(IntTuple({1}), 0));
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.distinct_size(), 0u);
}

TEST(RelationTest, RemoveClampsAtZero) {
  Relation r = IntRel("r", {{1}, {1}, {1}}, 1);
  EXPECT_EQ(r.Remove(IntTuple({1}), 2), 2u);
  EXPECT_EQ(r.Multiplicity(IntTuple({1})), 1u);
  EXPECT_EQ(r.Remove(IntTuple({1}), 10), 1u);
  EXPECT_EQ(r.Multiplicity(IntTuple({1})), 0u);
  EXPECT_EQ(r.Remove(IntTuple({1})), 0u);
  EXPECT_TRUE(r.empty());
}

TEST(RelationTest, EqualityIsPointwise) {
  Relation a = IntRel("a", {{1}, {1}, {2}}, 1);
  Relation b = IntRel("b", {{2}, {1}, {1}}, 1);
  Relation c = IntRel("c", {{1}, {2}}, 1);  // multiplicity of 1 differs
  EXPECT_REL_EQ(a, b);
  EXPECT_FALSE(a.Equals(c));
}

TEST(RelationTest, EqualityRequiresCompatibleSchemas) {
  Relation a = IntRel("a", {}, 1);
  Relation b(RelationSchema("b", {{"x", Type::String()}}));
  EXPECT_FALSE(a.Equals(b));
}

TEST(RelationTest, MultiSubset) {
  Relation a = IntRel("a", {{1}, {2}}, 1);
  Relation b = IntRel("b", {{1}, {1}, {2}, {3}}, 1);
  EXPECT_TRUE(a.MultiSubsetOf(b));
  EXPECT_FALSE(b.MultiSubsetOf(a));
  // ⊑ is reflexive.
  EXPECT_TRUE(a.MultiSubsetOf(a));
}

TEST(RelationTest, MultiSubsetCountsMultiplicity) {
  // {1:2} is NOT a multi-subset of {1:1} — this distinguishes ⊑ from ⊆.
  Relation two = IntRel("a", {{1}, {1}}, 1);
  Relation one = IntRel("b", {{1}}, 1);
  EXPECT_FALSE(two.MultiSubsetOf(one));
  EXPECT_TRUE(one.MultiSubsetOf(two));
}

TEST(RelationTest, EmptyIsMultiSubsetOfEverything) {
  Relation empty = IntRel("e", {}, 1);
  Relation any = IntRel("a", {{5}}, 1);
  EXPECT_TRUE(empty.MultiSubsetOf(any));
  EXPECT_TRUE(empty.MultiSubsetOf(empty));
}

TEST(RelationTest, ExpandedTuplesMaterialisesDuplicates) {
  Relation r = IntRel("r", {{1}, {1}, {2}}, 1);
  std::vector<Tuple> tuples = r.ExpandedTuples();
  ASSERT_EQ(tuples.size(), 3u);
  EXPECT_EQ(tuples[0].at(0).int_value(), 1);
  EXPECT_EQ(tuples[1].at(0).int_value(), 1);
  EXPECT_EQ(tuples[2].at(0).int_value(), 2);
}

TEST(RelationTest, SortedEntriesDeterministic) {
  Relation r = IntRel("r", {{3}, {1}, {2}, {1}}, 1);
  auto entries = r.SortedEntries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first.at(0).int_value(), 1);
  EXPECT_EQ(entries[0].second, 2u);
}

TEST(RelationTest, ToStringPairNotation) {
  Relation r = IntRel("r", {{1}, {1}, {2}}, 1);
  EXPECT_EQ(r.ToString(), "{(1) : 2, (2) : 1}");
  Relation empty = IntRel("e", {}, 1);
  EXPECT_EQ(empty.ToString(), "{}");
}

TEST(RelationTest, ClearResetsEverything) {
  Relation r = IntRel("r", {{1}, {2}}, 1);
  r.Clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.distinct_size(), 0u);
  EXPECT_EQ(r.schema().arity(), 1u);  // schema survives
}

TEST(RelationTest, LargeMultiplicityIsCompact) {
  // A million duplicates occupy one map entry — the representational
  // advantage the paper's introduction claims for bag semantics.
  Relation r(RelationSchema("r", {{"x", Type::Int()}}));
  ASSERT_OK(r.Insert(IntTuple({1}), 1000000));
  EXPECT_EQ(r.size(), 1000000u);
  EXPECT_EQ(r.distinct_size(), 1u);
}

TEST(RelationTest, SortedEntriesUseTheTypedCanonicalOrder) {
  // Typed, column-wise: 9 < 10 (display-form order would put "10" first),
  // and the first column decides before the second.
  Relation r = IntRel("r", {{10, 1}, {9, 5}, {9, -3}, {-2, 7}}, 2);
  auto entries = r.SortedEntries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_TRUE(entries[0].first.Equals(IntTuple({-2, 7})));
  EXPECT_TRUE(entries[1].first.Equals(IntTuple({9, -3})));
  EXPECT_TRUE(entries[2].first.Equals(IntTuple({9, 5})));
  EXPECT_TRUE(entries[3].first.Equals(IntTuple({10, 1})));
  EXPECT_EQ(r.ToString(), "{(-2, 7) : 1, (9, -3) : 1, (9, 5) : 1, (10, 1) : 1}");

  // The view points into the relation's own map, in the same order.
  std::set<const Relation::Entry*> in_map;
  for (const Relation::Entry& entry : r) in_map.insert(&entry);
  auto view = r.SortedView();
  ASSERT_EQ(view.size(), entries.size());
  for (size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(in_map.count(view[i]), 1u);
    EXPECT_TRUE(view[i]->first.Equals(entries[i].first));
  }
}

TEST(RelationTest, SortedEntriesPutNaNLastAndMergeSignedZero) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Relation r(RelationSchema("f", {{"x", Type::Real()}}));
  for (double v : {nan, inf, -0.0, -inf, 0.0, nan, 1.0}) {
    ASSERT_OK(r.Insert(Tuple({Value::Real(v)})));
  }
  auto entries = r.SortedEntries();
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries[0].first.at(0).real_value(), -inf);
  EXPECT_EQ(entries[1].first.at(0).real_value(), 0.0);
  EXPECT_EQ(entries[1].second, 2u);  // -0.0 and 0.0 are one tuple
  EXPECT_EQ(entries[2].first.at(0).real_value(), 1.0);
  EXPECT_EQ(entries[3].first.at(0).real_value(), inf);
  EXPECT_TRUE(std::isnan(entries[4].first.at(0).real_value()));
  EXPECT_EQ(entries[4].second, 2u);  // NaN = NaN, as a bag element
  EXPECT_EQ(r.Remove(Tuple({Value::Real(nan)}), 5), 2u);
}

TEST(RelationTest, SetMultiplicityIsAbsolute) {
  Relation r = IntRel("r", {{1}, {1}, {2}}, 1);
  r.SetMultiplicity(IntTuple({1}), 5);
  r.SetMultiplicity(IntTuple({3}), 1);
  r.SetMultiplicity(IntTuple({2}), 0);
  r.SetMultiplicity(IntTuple({4}), 0);
  EXPECT_EQ(r.Multiplicity(IntTuple({1})), 5u);
  EXPECT_EQ(r.Multiplicity(IntTuple({3})), 1u);
  EXPECT_FALSE(r.Contains(IntTuple({2})));
  EXPECT_EQ(r.distinct_size(), 2u);
  EXPECT_EQ(r.size(), 6u);
  // Applying the same absolute count again changes nothing.
  r.SetMultiplicity(IntTuple({1}), 5);
  EXPECT_EQ(r.size(), 6u);
}

}  // namespace
}  // namespace mra
