// Tests for the cardinality/selectivity estimator.

#include "mra/opt/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "mra/catalog/catalog.h"
#include "test_util.h"

namespace mra {
namespace opt {
namespace {

using ::mra::testing::IntRel;

class StatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Relation r = IntRel("r", {{1, 1}, {2, 2}, {3, 3}, {4, 4}}, 2);
    Relation s = IntRel("s", {{1, 1}, {2, 2}}, 2);
    ASSERT_OK(catalog_.CreateRelation(r.schema()));
    ASSERT_OK(catalog_.SetRelation("r", r));
    ASSERT_OK(catalog_.CreateRelation(s.schema()));
    ASSERT_OK(catalog_.SetRelation("s", s));
    scan_r_ = Plan::Scan("r", r.schema());
    scan_s_ = Plan::Scan("s", s.schema());
  }

  Catalog catalog_;
  PlanPtr scan_r_;
  PlanPtr scan_s_;
};

TEST_F(StatsTest, ScanUsesExactCounts) {
  EXPECT_DOUBLE_EQ(EstimateCardinality(*scan_r_, catalog_), 4.0);
  EXPECT_DOUBLE_EQ(EstimateCardinality(*scan_s_, catalog_), 2.0);
}

TEST_F(StatsTest, UnknownScanHasNoEstimate) {
  // A subtree over an unresolvable relation yields the kNoEstimate
  // sentinel, not a fabricated default (EXPLAIN renders `est=-`).
  PlanPtr ghost = Plan::Scan(
      "ghost", RelationSchema("g", {{"c1", Type::Int()}, {"c2", Type::Int()}}));
  EXPECT_LT(EstimateCardinality(*ghost, catalog_), 0.0);
  EXPECT_DOUBLE_EQ(EstimateCardinality(*ghost, catalog_), kNoEstimate);
  // The sentinel propagates through operators above the unknown scan.
  auto u = Plan::Union(scan_r_, ghost);
  ASSERT_OK(u);
  EXPECT_DOUBLE_EQ(EstimateCardinality(**u, catalog_), kNoEstimate);
}

TEST_F(StatsTest, UnionAddsProductMultiplies) {
  auto u = Plan::Union(scan_r_, scan_s_);
  ASSERT_OK(u);
  EXPECT_DOUBLE_EQ(EstimateCardinality(**u, catalog_), 6.0);
  auto p = Plan::Product(scan_r_, scan_s_);
  ASSERT_OK(p);
  EXPECT_DOUBLE_EQ(EstimateCardinality(**p, catalog_), 8.0);
}

TEST_F(StatsTest, SelectScalesBySelectivity) {
  auto eq = Plan::Select(Eq(Attr(0), Lit(int64_t{1})), scan_r_);
  ASSERT_OK(eq);
  EXPECT_DOUBLE_EQ(EstimateCardinality(**eq, catalog_),
                   4.0 * kEqSelectivity);
  auto range = Plan::Select(Lt(Attr(0), Lit(int64_t{3})), scan_r_);
  ASSERT_OK(range);
  EXPECT_DOUBLE_EQ(EstimateCardinality(**range, catalog_),
                   4.0 * kRangeSelectivity);
}

TEST_F(StatsTest, ConjunctsMultiply) {
  ExprPtr cond = And(Eq(Attr(0), Lit(int64_t{1})),
                     Lt(Attr(1), Lit(int64_t{5})));
  EXPECT_DOUBLE_EQ(EstimateSelectivity(cond),
                   kEqSelectivity * kRangeSelectivity);
}

TEST_F(StatsTest, DisjunctionUsesInclusionExclusion) {
  ExprPtr cond = Or(Eq(Attr(0), Lit(int64_t{1})),
                    Eq(Attr(0), Lit(int64_t{2})));
  double s = EstimateSelectivity(cond);
  EXPECT_GT(s, kEqSelectivity);
  EXPECT_LT(s, 2 * kEqSelectivity);
}

TEST_F(StatsTest, NotInverts) {
  ExprPtr cond = Not(Eq(Attr(0), Lit(int64_t{1})));
  EXPECT_DOUBLE_EQ(EstimateSelectivity(cond), 1.0 - kEqSelectivity);
}

TEST_F(StatsTest, BooleanLiteralSelectivity) {
  EXPECT_DOUBLE_EQ(EstimateSelectivity(Lit(true)), 1.0);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(Lit(false)), 0.0);
}

TEST_F(StatsTest, ProjectionPreservesCardinality) {
  // π is additive in the bag algebra — the estimator must NOT shrink it.
  auto p = Plan::ProjectIndexes({0}, scan_r_);
  ASSERT_OK(p);
  EXPECT_DOUBLE_EQ(EstimateCardinality(**p, catalog_), 4.0);
}

TEST_F(StatsTest, UniqueAndGroupByShrink) {
  auto u = Plan::Unique(scan_r_);
  ASSERT_OK(u);
  EXPECT_LE(EstimateCardinality(**u, catalog_), 4.0);
  auto g = Plan::GroupBy({0}, {{AggKind::kCnt, 0, ""}}, scan_r_);
  ASSERT_OK(g);
  EXPECT_LE(EstimateCardinality(**g, catalog_), 4.0);
  auto global = Plan::GroupBy({}, {{AggKind::kCnt, 0, ""}}, scan_r_);
  ASSERT_OK(global);
  EXPECT_DOUBLE_EQ(EstimateCardinality(**global, catalog_), 1.0);
}

// --- Live column statistics. ---

class ColumnStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Key uniform in [0, 20), value = key * 10 (range [0, 190]), string
    // column with 5 distinct values; (k, v, s) has 20 distinct tuples
    // (s is determined by k mod 5) carried with multiplicities.
    Relation r(RelationSchema("m", {{"k", Type::Int()},
                                    {"v", Type::Int()},
                                    {"s", Type::String()}}));
    for (int64_t i = 0; i < 100; ++i) {
      r.InsertUnchecked(Tuple({Value::Int(i % 20), Value::Int((i % 20) * 10),
                               Value::Str("s" + std::to_string(i % 5))}),
                        1 + i % 3);
    }
    // Histograms off: these tests pin the pure distinct-count and range
    // interpolation math (histogram refinement is covered by the stats
    // subsystem tests).
    stats::AnalyzeOptions options;
    options.histograms = false;
    stats_ = stats::Analyze(r, /*logical_time=*/0, options);
    ASSERT_OK(catalog_.CreateRelation(r.schema()));
    ASSERT_OK(catalog_.SetRelation("m", std::move(r)));
    scan_ = Plan::Scan("m", catalog_.GetRelation("m").value()->schema());
  }

  Catalog catalog_;
  stats::TableStatistics stats_;
  PlanPtr scan_;
};

TEST_F(ColumnStatsTest, ComputesDistinctAndRanges) {
  EXPECT_EQ(stats_.distinct_count, 20u);
  ASSERT_EQ(stats_.columns.size(), 3u);
  EXPECT_EQ(stats_.columns[0].distinct, 20u);
  EXPECT_EQ(stats_.columns[1].distinct, 20u);
  EXPECT_EQ(stats_.columns[2].distinct, 5u);
  EXPECT_TRUE(stats_.columns[0].has_range);
  EXPECT_DOUBLE_EQ(stats_.columns[0].min, 0.0);
  EXPECT_DOUBLE_EQ(stats_.columns[0].max, 19.0);
  EXPECT_FALSE(stats_.columns[2].has_range);  // strings have no range
}

TEST_F(ColumnStatsTest, EqualitySelectivityUsesDistinct) {
  const RelationSchema& schema = scan_->schema();
  // k = 3: one of 20 distinct values.
  EXPECT_DOUBLE_EQ(EstimateSelectivityWithStats(
                       Eq(Attr(0), Lit(int64_t{3})), schema, stats_),
                   1.0 / 20);
  // literal = attr orientation works too.
  EXPECT_DOUBLE_EQ(EstimateSelectivityWithStats(
                       Eq(Lit(int64_t{3}), Attr(0)), schema, stats_),
                   1.0 / 20);
  // s = 'x': one of 5.
  EXPECT_DOUBLE_EQ(EstimateSelectivityWithStats(Eq(Attr(2), Lit("x")),
                                                schema, stats_),
                   1.0 / 5);
}

TEST_F(ColumnStatsTest, RangeSelectivityInterpolates) {
  const RelationSchema& schema = scan_->schema();
  // v < 95 with range [0, 190] → 0.5.
  EXPECT_NEAR(EstimateSelectivityWithStats(
                  Lt(Attr(1), Lit(int64_t{95})), schema, stats_),
              0.5, 1e-9);
  // v > 95 → 0.5; v > 190 → 0; 95 > v (flipped) → 0.5 on the < side.
  EXPECT_NEAR(EstimateSelectivityWithStats(
                  Gt(Attr(1), Lit(int64_t{95})), schema, stats_),
              0.5, 1e-9);
  EXPECT_NEAR(EstimateSelectivityWithStats(
                  Gt(Attr(1), Lit(int64_t{190})), schema, stats_),
              0.0, 1e-9);
  EXPECT_NEAR(EstimateSelectivityWithStats(
                  Gt(Lit(int64_t{95}), Attr(1)), schema, stats_),
              0.5, 1e-9);
}

TEST_F(ColumnStatsTest, ConjunctsMultiplyAndFallBack) {
  const RelationSchema& schema = scan_->schema();
  ExprPtr cond = And(Eq(Attr(0), Lit(int64_t{1})),
                     Lt(Attr(1), Lit(int64_t{95})));
  EXPECT_NEAR(EstimateSelectivityWithStats(cond, schema, stats_),
              (1.0 / 20) * 0.5, 1e-9);
  // Attr-vs-attr comparisons fall back to the heuristic constants.
  EXPECT_DOUBLE_EQ(EstimateSelectivityWithStats(Eq(Attr(0), Attr(1)),
                                                schema, stats_),
                   kEqSelectivity);
}

TEST_F(ColumnStatsTest, CardinalityUsesStatsThroughCache) {
  StatsCache cache(&catalog_);
  auto sel = Plan::Select(Eq(Attr(0), Lit(int64_t{3})), scan_);
  ASSERT_OK(sel);
  double total = EstimateCardinality(*scan_, catalog_);
  // Without stats: fixed 0.1; with stats: 1/20.
  EXPECT_DOUBLE_EQ(EstimateCardinality(**sel, catalog_), total * 0.1);
  EXPECT_DOUBLE_EQ(EstimateCardinality(**sel, catalog_, &cache),
                   total / 20.0);
  // δ over a scan knows the exact distinct count with stats.
  auto uniq = Plan::Unique(scan_);
  ASSERT_OK(uniq);
  EXPECT_DOUBLE_EQ(EstimateCardinality(**uniq, catalog_, &cache), 20.0);
  // Γ by the key column estimates the number of groups from distinct(k).
  auto grouped = Plan::GroupBy({0}, {{AggKind::kCnt, 0, ""}}, scan_);
  ASSERT_OK(grouped);
  EXPECT_DOUBLE_EQ(EstimateCardinality(**grouped, catalog_, &cache), 20.0);
}

TEST_F(ColumnStatsTest, GroupByManyKeysUsesDistinctProduct) {
  // Q1's shape: two low-cardinality flags (3 x 2 values) over 1,000 rows.
  Relation q(RelationSchema("q", {{"flag", Type::Int()},
                                  {"status", Type::Int()},
                                  {"id", Type::Int()}}));
  for (int64_t i = 0; i < 1000; ++i) {
    q.InsertUnchecked(Tuple({Value::Int(i % 3), Value::Int(i % 2),
                             Value::Int(i)}));
  }
  ASSERT_OK(catalog_.CreateRelation(q.schema()));
  ASSERT_OK(catalog_.SetRelation("q", std::move(q)));
  PlanPtr scan_q =
      Plan::Scan("q", catalog_.GetRelation("q").value()->schema());
  StatsCache cache(&catalog_);
  const double guess = std::pow(1000.0, 0.75) + 1.0;
  // Γ by (flag, status): at most 3 x 2 groups.
  auto flags = Plan::GroupBy({0, 1}, {{AggKind::kCnt, 2, ""}}, scan_q);
  ASSERT_OK(flags);
  EXPECT_DOUBLE_EQ(EstimateCardinality(**flags, catalog_, &cache), 6.0);
  // Without statistics it keeps the sub-linear guess.
  EXPECT_DOUBLE_EQ(EstimateCardinality(**flags, catalog_), guess);
  // Γ by (flag, id): the product 3,000 exceeds the guess, which wins.
  auto wide = Plan::GroupBy({0, 2}, {{AggKind::kCnt, 1, ""}}, scan_q);
  ASSERT_OK(wide);
  EXPECT_DOUBLE_EQ(EstimateCardinality(**wide, catalog_, &cache), guess);
  // One key keeps its exact distinct count, above the guess.
  auto ids = Plan::GroupBy({2}, {{AggKind::kCnt, 0, ""}}, scan_q);
  ASSERT_OK(ids);
  EXPECT_DOUBLE_EQ(EstimateCardinality(**ids, catalog_, &cache), 1000.0);
}

TEST_F(ColumnStatsTest, EquiJoinEstimateUsesKeyDistincts) {
  // A second relation with 10 distinct keys.
  Relation s(RelationSchema("n", {{"k", Type::Int()}}));
  for (int64_t i = 0; i < 10; ++i) {
    s.InsertUnchecked(Tuple({Value::Int(i)}), 2);
  }
  ASSERT_OK(catalog_.CreateRelation(s.schema()));
  ASSERT_OK(catalog_.SetRelation("n", std::move(s)));
  PlanPtr scan_n = Plan::Scan("n", catalog_.GetRelation("n").value()->schema());
  auto join = Plan::Join(Eq(Attr(0), Attr(3)), scan_, scan_n);
  ASSERT_OK(join);
  StatsCache cache(&catalog_);
  double l = EstimateCardinality(*scan_, catalog_);
  double r = EstimateCardinality(*scan_n, catalog_);
  // |L|·|R| / max(d=20, d=10) = l·r/20.
  EXPECT_DOUBLE_EQ(EstimateCardinality(**join, catalog_, &cache),
                   l * r / 20.0);
}

TEST(StatsCacheTest, ComputesOncePerRelation) {
  Catalog catalog;
  Relation r = IntRel("r", {{1}, {2}}, 1);
  RelationSchema schema = r.schema();
  schema.set_name("r");
  ASSERT_OK(catalog.CreateRelation(schema));
  ASSERT_OK(catalog.SetRelation("r", std::move(r)));
  StatsCache cache(&catalog);
  const stats::TableStatistics* first = cache.StatsFor("r");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->row_count, 2u);
  // Same pointer on repeat lookups; unknown names yield nullptr.
  EXPECT_EQ(cache.StatsFor("r"), first);
  EXPECT_EQ(cache.StatsFor("ghost"), nullptr);
}

TEST(AnalyzeTest, DistinctCapExtrapolates) {
  Relation r(RelationSchema("big", {{"x", Type::Int()}}));
  for (int64_t i = 0; i < 1000; ++i) {
    r.InsertUnchecked(Tuple({Value::Int(i)}), 1);
  }
  stats::AnalyzeOptions capped_opts;
  capped_opts.max_tracked_distinct = 100;
  stats::TableStatistics capped = stats::Analyze(r, 0, capped_opts);
  EXPECT_EQ(capped.columns[0].distinct, 1000u);  // falls back to |distinct|
  stats::TableStatistics exact = stats::Analyze(r, 0);
  EXPECT_EQ(exact.columns[0].distinct, 1000u);
}

}  // namespace
}  // namespace opt
}  // namespace mra
