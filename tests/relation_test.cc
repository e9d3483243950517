// Tests for multi-set relations: R : dom(ℛ) → ℕ (Definition 2.2) and the
// comparison operators = and ⊑ (Definition 2.3).

#include "mra/core/relation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

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
  // The dense storage keeps its room, which the memory charge counts.
  EXPECT_GE(r.entry_capacity(), 2u);
}

TEST(RelationTest, LargeMultiplicityIsCompact) {
  // A million duplicates occupy one entry — the representational
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

  // The view points into the relation's own entries, in the same order.
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


// --- Differential tests against a std::map model of R : dom(ℛ) → ℕ. ---

struct CanonicalLess {
  bool operator()(const Tuple& a, const Tuple& b) const {
    return a.Compare(b) < 0;
  }
};
using Model = std::map<Tuple, uint64_t, CanonicalLess>;

// Every observer of `r` agrees with the model: R(x) on the support and off
// it, Σ R(x), |supp R|, the canonical walk, a range-for walk, and = / ⊑
// against a relation rebuilt from the model in another insertion order.
void ExpectMatchesModel(const Relation& r, const Model& model,
                        const std::vector<Tuple>& absent) {
  uint64_t total = 0;
  for (const auto& [tuple, count] : model) total += count;
  ASSERT_EQ(r.size(), total);
  ASSERT_EQ(r.distinct_size(), model.size());
  EXPECT_EQ(r.empty(), model.empty());
  for (const auto& [tuple, count] : model) {
    ASSERT_EQ(r.Multiplicity(tuple), count) << tuple.ToString();
  }
  for (const Tuple& tuple : absent) {
    if (model.count(tuple) == 0) {
      ASSERT_EQ(r.Multiplicity(tuple), 0u);
    }
  }
  auto sorted = r.SortedEntries();
  ASSERT_EQ(sorted.size(), model.size());
  size_t i = 0;
  for (const auto& [tuple, count] : model) {
    ASSERT_TRUE(sorted[i].first.Equals(tuple));
    ASSERT_EQ(sorted[i].second, count);
    ++i;
  }
  size_t walked = 0;
  for (const auto& [tuple, count] : r) {
    auto it = model.find(tuple);
    ASSERT_TRUE(it != model.end()) << tuple.ToString();
    ASSERT_EQ(it->second, count);
    ++walked;
  }
  ASSERT_EQ(walked, model.size());
  Relation rebuilt(r.schema());
  for (auto it = model.rbegin(); it != model.rend(); ++it) {
    rebuilt.InsertUnchecked(it->first, it->second);
  }
  EXPECT_TRUE(r.Equals(rebuilt));
  EXPECT_TRUE(rebuilt.Equals(r));
  EXPECT_TRUE(r.MultiSubsetOf(rebuilt));
  if (!model.empty()) {
    rebuilt.InsertUnchecked(model.begin()->first, 1);
    EXPECT_FALSE(r.Equals(rebuilt));
    EXPECT_TRUE(r.MultiSubsetOf(rebuilt));
    EXPECT_FALSE(rebuilt.MultiSubsetOf(r));
  }
}

Tuple KeyTuple(int64_t i) {
  return Tuple({Value::Int(i % 97), Value::Str(std::to_string(i) + "-key")});
}

TEST(RelationDifferential, RandomOperationsMatchAMapModel) {
  const RelationSchema schema("d", {{"k", Type::Int()}, {"s", Type::String()}});
  std::vector<Tuple> domain;
  for (int64_t i = 0; i < 300; ++i) domain.push_back(KeyTuple(i));
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    // Seeds differ in how much of the domain is live, so the support
    // swings between near-empty and several index growths.
    std::uniform_int_distribution<size_t> pick(0, 40 + 60 * seed);
    std::uniform_int_distribution<uint64_t> count(1, 3);
    std::uniform_int_distribution<int> op(0, 99);
    Relation r(schema);
    Model model;
    for (int round = 0; round < 4000; ++round) {
      const Tuple& t = domain[pick(rng)];
      const int o = op(rng);
      if (o < 40) {
        const uint64_t c = count(rng);
        if (o < 20) {
          ASSERT_OK(r.Insert(t, c));
        } else {
          r.InsertUnchecked(Tuple(t), c);  // The move overload.
        }
        model[t] += c;
      } else if (o < 70) {
        // Partial, or (UINT64_MAX) full removal; absent tuples remove 0.
        const uint64_t c = o < 60 ? count(rng) : UINT64_MAX;
        const uint64_t have = model.count(t) ? model[t] : 0;
        const uint64_t removed = std::min(c, have);
        ASSERT_EQ(r.Remove(t, c), removed);
        if (have == removed) {
          model.erase(t);
        } else {
          model[t] = have - removed;
        }
      } else if (o < 90) {
        const uint64_t c = count(rng) - 1;  // Includes 0, a removal.
        r.SetMultiplicity(t, c);
        if (c == 0) {
          model.erase(t);
        } else {
          model[t] = c;
        }
      } else if (o < 94) {
        Relation copy = r;  // A copy carries its own index.
        ExpectMatchesModel(copy, model, {t});
        r = std::move(copy);
      } else if (o < 98) {
        Relation moved(std::move(r));
        r = Relation(schema);
        r = std::move(moved);
      } else if (o == 98 && round % 5 == 0) {
        r.Clear();
        model.clear();
      }
      ASSERT_EQ(r.Multiplicity(t), model.count(t) ? model[t] : 0u);
      if (round % 97 == 0) ExpectMatchesModel(r, model, domain);
    }
    ExpectMatchesModel(r, model, domain);
  }
}

TEST(RelationDifferential, RemovalsWrapAroundTheIndexEnd) {
  // Tuples whose home buckets are the index's last two: their probe run
  // wraps to bucket 0 and on, so backward-shift deletion has to carry
  // words across the wrap.
  const RelationSchema schema("w", {{"x", Type::Int()}});
  Relation probe(schema);
  for (int64_t i = 0; i < 16; ++i) probe.InsertUnchecked(IntTuple({-1 - i}));
  const size_t buckets = probe.index_capacity();
  ASSERT_GE(buckets, 32u);
  std::vector<Tuple> tail;  // Home bucket = buckets − 1 or buckets − 2.
  std::vector<Tuple> head;  // Home bucket = 0 or 1.
  for (int64_t i = 0; tail.size() < 6 || head.size() < 4; ++i) {
    Tuple t = IntTuple({i});
    const size_t home = t.Hash() & (buckets - 1);
    if (home + 2 >= buckets && tail.size() < 6) tail.push_back(t);
    if (home < 2 && head.size() < 4) head.push_back(t);
  }
  std::vector<Tuple> keys = tail;
  keys.insert(keys.end(), head.begin(), head.end());
  // Remove in several orders, each from a fresh relation whose index
  // keeps the same capacity (16 + 10 entries stay under 7/8 load).
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    Relation r = probe;
    Model model;
    for (const auto& [tuple, count] : probe) model[tuple] = count;
    for (const Tuple& t : keys) {
      r.InsertUnchecked(t, 2);
      model[t] = 2;
    }
    ASSERT_EQ(r.index_capacity(), buckets);
    std::vector<Tuple> order = keys;
    std::shuffle(order.begin(), order.end(), rng);
    for (const Tuple& t : order) {
      ASSERT_EQ(r.Remove(t, trial % 2 == 0 ? 2 : UINT64_MAX), 2u);
      model.erase(t);
      ExpectMatchesModel(r, model, keys);
    }
    ASSERT_EQ(r.index_capacity(), buckets);
  }
}

TEST(RelationDifferential, WindowChurnKeepsTheIndexBounded) {
  // ingest's shape: a fixed window of 2,000 rows, each round inserting 20
  // new rows and deleting the 20 oldest.  Backward-shift deletion leaves
  // no tombstones, so the index never grows past the window's size.
  const RelationSchema schema("win", {{"id", Type::Int()},
                                      {"tag", Type::String()}});
  auto row = [](int64_t id) {
    return Tuple({Value::Int(id), Value::Str(std::to_string(id % 13) + "-row")});
  };
  Relation r(schema);
  std::deque<int64_t> window;
  int64_t next = 0;
  for (; next < 2000; ++next) {
    r.InsertUnchecked(row(next));
    window.push_back(next);
  }
  const size_t buckets = r.index_capacity();
  for (int round = 0; round < 10000; ++round) {
    for (int i = 0; i < 20; ++i, ++next) {
      r.InsertUnchecked(row(next));
      window.push_back(next);
    }
    for (int i = 0; i < 20; ++i) {
      ASSERT_EQ(r.Remove(row(window.front())), 1u);
      window.pop_front();
    }
    ASSERT_EQ(r.distinct_size(), 2000u);
    if (round % 1000 == 999) {
      Model model;
      for (int64_t id : window) model[row(id)] = 1;
      ExpectMatchesModel(r, model, {row(window.front() - 1), row(next)});
    }
  }
  EXPECT_EQ(r.index_capacity(), buckets);
}

TEST(RelationDifferential, ReserveFillsWithoutGrowing) {
  const RelationSchema schema("d", {{"k", Type::Int()}, {"s", Type::String()}});
  Relation r(schema);
  r.Reserve(0);
  EXPECT_EQ(r.index_capacity(), 0u);
  EXPECT_EQ(r.entry_capacity(), 0u);
  r.Reserve(500);
  const size_t buckets = r.index_capacity();
  const size_t entries = r.entry_capacity();
  EXPECT_EQ(buckets, TagIndex::CapacityFor(500));
  EXPECT_GE(entries, 500u);
  Model model;
  for (int64_t i = 0; i < 500; ++i) {
    r.InsertUnchecked(KeyTuple(i), 2);
    model[KeyTuple(i)] = 2;
  }
  EXPECT_EQ(r.index_capacity(), buckets);
  EXPECT_EQ(r.entry_capacity(), entries);
  // Below distinct_size(), and Reserve(0): no-ops.
  r.Reserve(100);
  r.Reserve(0);
  EXPECT_EQ(r.index_capacity(), buckets);
  EXPECT_EQ(r.entry_capacity(), entries);
  ExpectMatchesModel(r, model, {KeyTuple(500)});
  // After inserts: the room grows, every tuple keeps its count.
  r.Reserve(2000);
  EXPECT_EQ(r.index_capacity(), TagIndex::CapacityFor(2000));
  EXPECT_GE(r.entry_capacity(), 2000u);
  ExpectMatchesModel(r, model, {KeyTuple(500)});
}

TEST(RelationDifferential, ReservedRandomOperationsMatchAMapModel) {
  // The random operations of RandomOperationsMatchAMapModel, each seed on
  // a relation reserved before its first insert, with reserves — below,
  // at and past the support — among the operations.
  const RelationSchema schema("d", {{"k", Type::Int()}, {"s", Type::String()}});
  std::vector<Tuple> domain;
  for (int64_t i = 0; i < 300; ++i) domain.push_back(KeyTuple(i));
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<size_t> pick(0, 40 + 60 * seed);
    std::uniform_int_distribution<uint64_t> count(1, 3);
    std::uniform_int_distribution<int> op(0, 99);
    Relation r(schema);
    r.Reserve(20 * seed);
    Model model;
    for (int round = 0; round < 4000; ++round) {
      const Tuple& t = domain[pick(rng)];
      const int o = op(rng);
      if (o < 40) {
        const uint64_t c = count(rng);
        r.InsertUnchecked(Tuple(t), c);
        model[t] += c;
      } else if (o < 70) {
        const uint64_t c = o < 60 ? count(rng) : UINT64_MAX;
        const uint64_t have = model.count(t) ? model[t] : 0;
        const uint64_t removed = std::min(c, have);
        ASSERT_EQ(r.Remove(t, c), removed);
        if (have == removed) {
          model.erase(t);
        } else {
          model[t] = have - removed;
        }
      } else if (o < 85) {
        const uint64_t c = count(rng) - 1;
        r.SetMultiplicity(t, c);
        if (c == 0) {
          model.erase(t);
        } else {
          model[t] = c;
        }
      } else if (o < 97) {
        const size_t buckets = r.index_capacity();
        const size_t entries = r.entry_capacity();
        const size_t n = std::uniform_int_distribution<size_t>(
            0, 2 * r.distinct_size() + 1)(rng);
        r.Reserve(n);
        if (n <= r.distinct_size()) {
          ASSERT_EQ(r.index_capacity(), buckets);
          ASSERT_EQ(r.entry_capacity(), entries);
        }
        ASSERT_GE(r.index_capacity(), TagIndex::CapacityFor(n));
        ASSERT_GE(r.entry_capacity(), n);
      } else if (o == 98 && round % 5 == 0) {
        r.Clear();
        model.clear();
      }
      ASSERT_EQ(r.Multiplicity(t), model.count(t) ? model[t] : 0u);
      if (round % 97 == 0) ExpectMatchesModel(r, model, domain);
    }
    ExpectMatchesModel(r, model, domain);
  }
}

}  // namespace
}  // namespace mra
