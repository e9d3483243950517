// Differential multiset-correctness suite for the hash kernels (HashJoinOp,
// HashGroupByOp, BagCountOp), each on one lane and on four.
//
// Each operator is checked against its *definitional* implementation in
// mra/algebra/ops.h — direct transcriptions of Definitions 3.1/3.2/3.4 —
// over randomized multisets, demanding exact multiset equality (Def 2.3:
// the same tuples with the same multiplicities).  The set-semantics algebra
// (mra/setalg) serves as the degeneration oracle: hash δ must coincide with
// the set interpretation, and an Example-3.2-style case pins down that hash
// group-by follows the bag semantics where set semantics silently differs.
//
// The suite also pins the non-algebraic surface: Def 3.3 partiality of
// AVG/MIN/MAX over an empty input through both the XRA and SQL front ends,
// the planner's hash-vs-nested-loop choice as shown by EXPLAIN (ANALYZE),
// and the process-wide hash.* metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <random>

#include "mra/algebra/ops.h"
#include "mra/exec/exec_context.h"
#include "mra/exec/hash_ops.h"
#include "mra/exec/operator.h"
#include "mra/exec/physical_planner.h"
#include "mra/lang/interpreter.h"
#include "mra/obs/metrics.h"
#include "mra/setalg/set_ops.h"
#include "mra/sql/translator.h"
#include "test_util.h"

namespace mra {
namespace exec {
namespace {

using ::mra::testing::IntRel;
using ::mra::testing::IntTuple;
using ::mra::testing::PaperBeerDb;
using ::mra::testing::RandomIntRelation;

// Input profiles: multiplicity 1 degenerates to set behaviour on δ-free
// plans, 5 exercises ordinary bags, the huge profile guards the count
// arithmetic (products reach ~10^12, far past uint32).
struct Profile {
  uint64_t max_multiplicity;
  size_t max_distinct;
  int64_t value_range;
};
constexpr Profile kProfiles[] = {
    {1, 200, 25}, {5, 200, 25}, {1'000'000, 40, 8}};

/// Executes the operator `make(workers)` builds on one lane and on four,
/// with single-row and default batches, and checks each run against
/// `expected`.
void ExpectOperatorResult(const std::function<PhysOpPtr(size_t)>& make,
                          const Relation& expected, const char* what) {
  for (size_t workers : {size_t{1}, size_t{4}}) {
    for (size_t batch_size : {size_t{1}, kDefaultBatchSize}) {
      PhysOpPtr op = make(workers);
      auto got = ExecuteToRelation(*op, batch_size);
      ASSERT_OK(got);
      EXPECT_REL_EQ(*got, expected) << what << " (workers=" << workers
                                    << ", batch_size=" << batch_size << ")";
    }
  }
}

class HashOpsDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashOpsDifferentialTest, HashJoinMatchesDefinitionalJoin) {
  std::mt19937_64 rng(GetParam());
  for (const Profile& p : kProfiles) {
    Relation r = RandomIntRelation(rng, 2, p.max_distinct, p.value_range,
                                   p.max_multiplicity);
    Relation s = RandomIntRelation(rng, 2, p.max_distinct, p.value_range,
                                   p.max_multiplicity);
    ExprPtr condition = Eq(Attr(0), Attr(2));
    auto oracle = ops::Join(condition, r, s);
    ASSERT_OK(oracle);
    ExpectOperatorResult(
        [&](size_t workers) {
          return std::make_unique<HashJoinOp>(
              std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
              std::make_unique<ScanOp>(&r), std::make_unique<ScanOp>(&s),
              workers);
        },
        *oracle, "hash join vs Def 3.2 join");
  }
}

// σ/π chains under every kernel: with more than one lane the Scan, Filter
// and Compute nodes run on the kernel's lanes (the scan claims disjoint
// ranges of the relation), and a kernel over a multi-lane join probes on
// its own lanes.  Every lane count and morsel size must give the oracle's
// bag exactly.
TEST_P(HashOpsDifferentialTest, ScanChainsUnderEachKernelMatchOracle) {
  std::mt19937_64 rng(GetParam());
  const Profile& p = kProfiles[GetParam() % 3];
  Relation r = RandomIntRelation(rng, 2, p.max_distinct, p.value_range,
                                 p.max_multiplicity);
  Relation s = RandomIntRelation(rng, 2, p.max_distinct, p.value_range,
                                 p.max_multiplicity);
  const ExprPtr keep = Gt(Attr(1), Lit(p.value_range / 3));
  // π with a computed column (the ProjectTuple path) and an attribute-only
  // one (the in-place swap path).
  const std::vector<ExprPtr> computed = {Attr(0),
                                         Add(Attr(1), Lit(int64_t{1}))};
  const std::vector<ExprPtr> swapped = {Attr(1), Attr(0)};
  auto filtered = ops::Select(keep, r);
  ASSERT_OK(filtered);
  auto chain_r = ops::Project(computed, *filtered);
  auto chain_s = ops::Project(swapped, s);
  ASSERT_OK(chain_r);
  ASSERT_OK(chain_s);
  const RelationSchema chain_r_schema = chain_r->schema();
  const RelationSchema chain_s_schema = chain_s->schema();
  auto make_r = [&] {
    return std::make_unique<ComputeOp>(
        computed, chain_r_schema,
        std::make_unique<FilterOp>(keep, std::make_unique<ScanOp>(&r)));
  };
  auto make_s = [&] {
    return std::make_unique<ComputeOp>(swapped, chain_s_schema,
                                       std::make_unique<ScanOp>(&s));
  };
  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "sum"},
                               {AggKind::kCnt, 0, "cnt"}};
  auto joined = ops::Join(Eq(Attr(0), Attr(3)), *chain_r, *chain_s);
  ASSERT_OK(joined);
  auto group_oracle = ops::GroupBy({0}, aggs, *chain_r);
  auto dedup_oracle = ops::Unique(*chain_r);
  auto pipeline_oracle = ops::GroupBy({0}, aggs, *joined);
  ASSERT_OK(group_oracle);
  ASSERT_OK(dedup_oracle);
  ASSERT_OK(pipeline_oracle);
  const RelationSchema group_schema = group_oracle->schema();
  const RelationSchema pipeline_schema = pipeline_oracle->schema();
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    for (size_t morsel : {size_t{1}, size_t{7}, kDefaultBatchSize}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " morsel=" + std::to_string(morsel));
      auto join = [&] {
        return std::make_unique<HashJoinOp>(
            std::vector<size_t>{0}, std::vector<size_t>{1}, nullptr, make_r(),
            make_s(), workers, morsel);
      };
      auto got = ExecuteToRelation(*join(), morsel);
      ASSERT_OK(got);
      EXPECT_REL_EQ(*got, *joined);
      got = ExecuteToRelation(
          *std::make_unique<HashGroupByOp>(std::vector<size_t>{0}, aggs,
                                           group_schema, make_r(), workers,
                                           morsel),
          morsel);
      ASSERT_OK(got);
      EXPECT_REL_EQ(*got, *group_oracle);
      got = ExecuteToRelation(
          *std::make_unique<BagCountOp>(BagFn::kUnique, make_r(), nullptr,
                                        workers, morsel),
          morsel);
      ASSERT_OK(got);
      EXPECT_REL_EQ(*got, *dedup_oracle);
      // Γ over ⋈: the join is drained by lanes and probes on Γ's lanes.
      got = ExecuteToRelation(
          *std::make_unique<HashGroupByOp>(std::vector<size_t>{0}, aggs,
                                           pipeline_schema, join(), workers,
                                           morsel),
          morsel);
      ASSERT_OK(got);
      EXPECT_REL_EQ(*got, *pipeline_oracle);
    }
  }
}

TEST_P(HashOpsDifferentialTest, HashJoinMultiKeyAndResidual) {
  std::mt19937_64 rng(GetParam());
  Relation r = RandomIntRelation(rng, 3, 300, 10, 5);
  Relation s = RandomIntRelation(rng, 3, 300, 10, 5);
  // %0=%3 ∧ %1=%4 as keys, %2 < %5 as residual.
  ExprPtr condition =
      And(And(Eq(Attr(0), Attr(3)), Eq(Attr(1), Attr(4))),
          Lt(Attr(2), Attr(5)));
  auto oracle = ops::Join(condition, r, s);
  ASSERT_OK(oracle);
  ExpectOperatorResult(
      [&](size_t workers) {
        return std::make_unique<HashJoinOp>(
            std::vector<size_t>{0, 1}, std::vector<size_t>{0, 1},
            Lt(Attr(2), Attr(5)), std::make_unique<ScanOp>(&r),
            std::make_unique<ScanOp>(&s), workers);
      },
      *oracle, "multi-key hash join with residual");
}

TEST_P(HashOpsDifferentialTest, HashJoinAllDuplicateInputs) {
  // Every row identical on both sides: one hash bucket, maximal chaining,
  // and the output multiplicity is exactly the product of the input sizes
  // (Def 3.1: (E1 × E3)(x1 ⊕ x3) = E1(x1) · E3(x3)).
  uint64_t m = 2 + GetParam(), n = 5 + GetParam();
  Relation r = IntRel("r", {{7, 1}}, 2);
  Relation s = IntRel("s", {{7, 2}}, 2);
  Relation rm(r.schema()), sn(s.schema());
  ASSERT_OK(rm.Insert(IntTuple({7, 1}), m));
  ASSERT_OK(sn.Insert(IntTuple({7, 2}), n));
  auto oracle = ops::Join(Eq(Attr(0), Attr(2)), rm, sn);
  ASSERT_OK(oracle);
  EXPECT_EQ(oracle->Multiplicity(IntTuple({7, 1, 7, 2})), m * n);
  ExpectOperatorResult(
      [&](size_t workers) {
        return std::make_unique<HashJoinOp>(
            std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
            std::make_unique<ScanOp>(&rm), std::make_unique<ScanOp>(&sn),
            workers);
      },
      *oracle, "all-duplicate hash join");
}

TEST_P(HashOpsDifferentialTest, HashJoinEmptySides) {
  std::mt19937_64 rng(GetParam());
  Relation r = RandomIntRelation(rng, 2, 100, 20, 5);
  Relation empty(r.schema());
  for (auto [left, right] : {std::pair<const Relation*, const Relation*>{
                                 &r, &empty},
                             {&empty, &r},
                             {&empty, &empty}}) {
    auto oracle = ops::Join(Eq(Attr(0), Attr(2)), *left, *right);
    ASSERT_OK(oracle);
    ExpectOperatorResult(
        [&, left = left, right = right](size_t workers) {
          return std::make_unique<HashJoinOp>(
              std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
              std::make_unique<ScanOp>(left), std::make_unique<ScanOp>(right),
              workers);
        },
        *oracle, "hash join with empty side(s)");
  }
}

TEST(HashOpsTest, HashJoinMixedTypeKeys) {
  // String key (beer.brewery = brewery.name) over the paper's database:
  // hash-key equality must agree with = on strings, and "pils" carries
  // multiplicity 2 through the join.
  PaperBeerDb db;
  ExprPtr condition = Eq(Attr(1), Attr(3));
  auto oracle = ops::Join(condition, db.beer, db.brewery);
  ASSERT_OK(oracle);
  ExpectOperatorResult(
      [&](size_t workers) {
        return std::make_unique<HashJoinOp>(
            std::vector<size_t>{1}, std::vector<size_t>{0}, nullptr,
            std::make_unique<ScanOp>(&db.beer),
            std::make_unique<ScanOp>(&db.brewery), workers);
      },
      *oracle, "string-keyed hash join");
  EXPECT_EQ(oracle->Multiplicity(
                Tuple({Value::Str("pils"), Value::Str("Guineken"),
                       Value::Real(5.0), Value::Str("Guineken"),
                       Value::Str("Amsterdam"), Value::Str("NL")})),
            2u);
}

TEST_P(HashOpsDifferentialTest, DedupMatchesDefinitionalUnique) {
  std::mt19937_64 rng(GetParam());
  for (const Profile& p : kProfiles) {
    Relation r = RandomIntRelation(rng, 2, p.max_distinct, p.value_range,
                                   p.max_multiplicity);
    auto oracle = ops::Unique(r);
    ASSERT_OK(oracle);
    // δ is also exactly the set interpretation (Def 3.4 degenerates to
    // setalg::ToSet).
    auto as_set = setalg::ToSet(r);
    ASSERT_OK(as_set);
    EXPECT_REL_EQ(*oracle, *as_set);
    ExpectOperatorResult(
        [&](size_t workers) {
          return std::make_unique<BagCountOp>(
              BagFn::kUnique, std::make_unique<ScanOp>(&r), nullptr, workers);
        },
        *oracle, "hash dedup vs Def 3.4 unique");
  }
}

TEST_P(HashOpsDifferentialTest, DedupEdgeInputs) {
  // Empty input and an all-duplicate input (single distinct tuple with a
  // large multiplicity collapsing to 1).
  Relation empty = IntRel("e", {}, 2);
  Relation dup(empty.schema());
  ASSERT_OK(dup.Insert(IntTuple({3, 4}), 1'000'000 + GetParam()));
  for (const Relation* input : {&empty, &dup}) {
    auto oracle = ops::Unique(*input);
    ASSERT_OK(oracle);
    ExpectOperatorResult(
        [&, input = input](size_t workers) {
          return std::make_unique<BagCountOp>(
              BagFn::kUnique, std::make_unique<ScanOp>(input), nullptr,
              workers);
        },
        *oracle, "hash dedup edge input");
  }
}

TEST_P(HashOpsDifferentialTest, GroupByMatchesDefinitionalGroupBy) {
  std::mt19937_64 rng(GetParam());
  for (const Profile& p : kProfiles) {
    Relation r = RandomIntRelation(rng, 3, p.max_distinct, p.value_range,
                                   p.max_multiplicity);
    // All five aggregate kinds at once; every group that exists is
    // non-empty, so AVG/MIN/MAX are defined (partiality is tested below).
    std::vector<AggSpec> aggs = {{AggKind::kCnt, 0, "n"},
                                 {AggKind::kSum, 1, "s"},
                                 {AggKind::kAvg, 1, "a"},
                                 {AggKind::kMin, 2, "lo"},
                                 {AggKind::kMax, 2, "hi"}};
    for (const std::vector<size_t>& keys :
         {std::vector<size_t>{0}, std::vector<size_t>{0, 1},
          std::vector<size_t>{}}) {
      if (keys.empty() && r.size() == 0) continue;  // Partial, tested below.
      auto oracle = ops::GroupBy(keys, aggs, r);
      ASSERT_OK(oracle);
      auto schema = ops::GroupBySchema(keys, aggs, r.schema());
      ASSERT_OK(schema);
      ExpectOperatorResult(
          [&](size_t workers) {
            return std::make_unique<HashGroupByOp>(
                keys, aggs, *schema, std::make_unique<ScanOp>(&r), workers);
          },
          *oracle, "hash group-by vs Def 3.4 Γ");
    }
  }
}

TEST(HashOpsTest, GroupByFollowsBagSemanticsNotSetSemantics) {
  // Example 3.2 in miniature: a duplicated row must be aggregated once per
  // occurrence.  The bag oracle and the hash operator agree; the
  // set-semantics Γ sees the distinct tuple once and differs.
  Relation r(IntRel("r", {{1, 10}}, 2).schema());
  ASSERT_OK(r.Insert(IntTuple({1, 10}), 2));
  ASSERT_OK(r.Insert(IntTuple({2, 5}), 1));
  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "s"}};
  auto bag = ops::GroupBy({0}, aggs, r);
  ASSERT_OK(bag);
  auto set = setalg::GroupBy({0}, aggs, r);
  ASSERT_OK(set);
  EXPECT_EQ(bag->Multiplicity(IntTuple({1, 20})), 1u);  // 10 counted twice.
  EXPECT_EQ(set->Multiplicity(IntTuple({1, 10})), 1u);  // …or once, set-wise.
  EXPECT_FALSE(bag->Equals(*set));
  auto schema = ops::GroupBySchema({0}, aggs, r.schema());
  ASSERT_OK(schema);
  ExpectOperatorResult(
      [&](size_t workers) {
        return std::make_unique<HashGroupByOp>(
            std::vector<size_t>{0}, aggs, *schema,
            std::make_unique<ScanOp>(&r), workers);
      },
      *bag, "hash group-by must follow the bag oracle");
}

TEST_P(HashOpsDifferentialTest, JoinDegeneratesToSetJoinOnSupports) {
  // δ(E1 ⋈ E2) = δ(E1) ⋈_set δ(E2): deduping the hash join's bag output
  // yields exactly the set-semantics join of the supports.
  std::mt19937_64 rng(GetParam());
  Relation r = RandomIntRelation(rng, 2, 150, 20, 5);
  Relation s = RandomIntRelation(rng, 2, 150, 20, 5);
  auto set_join = setalg::Join(Eq(Attr(0), Attr(2)), r, s);
  ASSERT_OK(set_join);
  auto op = std::make_unique<BagCountOp>(
      BagFn::kUnique,
      std::make_unique<HashJoinOp>(
          std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
          std::make_unique<ScanOp>(&r), std::make_unique<ScanOp>(&s)),
      nullptr);
  auto got = ExecuteToRelation(*op);
  ASSERT_OK(got);
  EXPECT_REL_EQ(*got, *set_join);
}

TEST(HashOpsTest, OperatorReopenRecyclesArena) {
  // Executing the same operator instance twice must give identical results:
  // the second Open rebuilds the hash state the first Close released.
  std::mt19937_64 rng(99);
  Relation r = RandomIntRelation(rng, 2, 200, 25, 5);
  Relation s = RandomIntRelation(rng, 2, 200, 25, 5);
  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "s"}};
  auto schema = ops::GroupBySchema({0}, aggs, r.schema());
  ASSERT_OK(schema);
  for (size_t workers : {size_t{1}, size_t{4}}) {
    HashJoinOp join(std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
                    std::make_unique<ScanOp>(&r), std::make_unique<ScanOp>(&s),
                    workers);
    BagCountOp dedup(BagFn::kUnique, std::make_unique<ScanOp>(&r), nullptr,
                     workers);
    HashGroupByOp gb(std::vector<size_t>{0}, aggs, *schema,
                     std::make_unique<ScanOp>(&r), workers);
    for (PhysicalOperator* op :
         {static_cast<PhysicalOperator*>(&join),
          static_cast<PhysicalOperator*>(&dedup),
          static_cast<PhysicalOperator*>(&gb)}) {
      auto first = ExecuteToRelation(*op);
      ASSERT_OK(first);
      auto second = ExecuteToRelation(*op);
      ASSERT_OK(second);
      EXPECT_REL_EQ(*first, *second) << op->name() << " workers=" << workers;
    }
  }
}

TEST(HashOpsTest, HashMetricsSurfaceInRegistryAndOperator) {
  std::mt19937_64 rng(7);
  Relation r = RandomIntRelation(rng, 2, 200, 25, 5);
  Relation s = RandomIntRelation(rng, 2, 200, 25, 5);
  // Guarantee a joinable row on each side, whatever the seed produced.
  ASSERT_OK(r.Insert(IntTuple({1, 1}), 1));
  ASSERT_OK(s.Insert(IntTuple({1, 2}), 1));
  obs::Counter* build =
      obs::MetricsRegistry::Global().GetCounter("hash.build_rows");
  obs::Counter* probe =
      obs::MetricsRegistry::Global().GetCounter("hash.probe_rows");
  obs::Gauge* peak = obs::MetricsRegistry::Global().GetGauge("hash.peak_bytes");
  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "s"}};
  auto schema = ops::GroupBySchema({0}, aggs, r.schema());
  ASSERT_OK(schema);

  for (size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    uint64_t build_before = build->value();
    uint64_t probe_before = probe->value();
    HashJoinOp join(std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
                    std::make_unique<ScanOp>(&r), std::make_unique<ScanOp>(&s),
                    workers);
    ASSERT_OK(ExecuteToRelation(join).status());
    EXPECT_EQ(join.metrics().build_rows, s.distinct_size());
    EXPECT_EQ(join.metrics().probe_rows, r.distinct_size());
    EXPECT_GT(join.metrics().hash_bytes, 0u);
    EXPECT_EQ(build->value() - build_before, join.metrics().build_rows);
    EXPECT_EQ(probe->value() - probe_before, join.metrics().probe_rows);
    EXPECT_GE(static_cast<uint64_t>(peak->value()), join.metrics().hash_bytes);

    // Γ and δ count their input rows as build rows and probe nothing.
    build_before = build->value();
    probe_before = probe->value();
    HashGroupByOp gb(std::vector<size_t>{0}, aggs, *schema,
                     std::make_unique<ScanOp>(&r), workers);
    ASSERT_OK(ExecuteToRelation(gb).status());
    BagCountOp dedup(BagFn::kUnique, std::make_unique<ScanOp>(&r), nullptr,
                     workers);
    ASSERT_OK(ExecuteToRelation(dedup).status());
    EXPECT_EQ(gb.metrics().build_rows, r.distinct_size());
    EXPECT_EQ(dedup.metrics().build_rows, r.distinct_size());
    EXPECT_EQ(build->value() - build_before, 2 * r.distinct_size());
    EXPECT_EQ(probe->value(), probe_before);
    EXPECT_GE(static_cast<uint64_t>(peak->value()), gb.metrics().hash_bytes);
    EXPECT_GE(static_cast<uint64_t>(peak->value()),
              dedup.metrics().hash_bytes);
  }
}

// --- The bag-count kernel: δ, − and ∩ (Defs 3.4, 3.1, 3.2). ---

PhysOpPtr Scan(const Relation& rel) { return std::make_unique<ScanOp>(&rel); }

PhysOpPtr BagCount(BagFn fn, PhysOpPtr lhs, PhysOpPtr rhs, size_t workers,
                   size_t morsel) {
  return std::make_unique<BagCountOp>(fn, std::move(lhs), std::move(rhs),
                                      workers, morsel);
}

/// Executes `make(workers, morsel)` at workers {1, 2, 4} x morsel (and
/// batch) {1, 7, 1024} and checks each run against `expected`.
void ExpectAtEveryLaneCount(
    const std::function<PhysOpPtr(size_t, size_t)>& make,
    const Relation& expected, const char* what) {
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t morsel : {size_t{1}, size_t{7}, kDefaultBatchSize}) {
      auto got = ExecuteToRelation(*make(workers, morsel), morsel);
      ASSERT_OK(got);
      EXPECT_REL_EQ(*got, expected)
          << what << " (workers=" << workers << ", morsel=" << morsel << ")";
    }
  }
}

TEST_P(HashOpsDifferentialTest, BagCountMatchesDefinitionalOps) {
  std::mt19937_64 rng(GetParam());
  for (const Profile& p : kProfiles) {
    Relation r = RandomIntRelation(rng, 2, p.max_distinct, p.value_range,
                                   p.max_multiplicity);
    Relation s = RandomIntRelation(rng, 2, p.max_distinct, p.value_range,
                                   p.max_multiplicity);
    // A key only in the lhs and one only in the rhs, whatever the seed
    // drew (the random values stay below value_range).
    ASSERT_OK(r.Insert(IntTuple({p.value_range, 0}), p.max_multiplicity));
    ASSERT_OK(s.Insert(IntTuple({p.value_range + 1, 0}), 1));
    Relation empty(r.schema());
    for (auto [lhs, rhs] :
         {std::pair<const Relation*, const Relation*>{&r, &s},
          {&s, &r},
          {&r, &empty},
          {&empty, &s}}) {
      auto difference = ops::Difference(*lhs, *rhs);
      auto intersect = ops::Intersect(*lhs, *rhs);
      auto unique = ops::Unique(*lhs);
      ASSERT_OK(difference);
      ASSERT_OK(intersect);
      ASSERT_OK(unique);
      ExpectAtEveryLaneCount(
          [&, lhs = lhs, rhs = rhs](size_t workers, size_t morsel) {
            return BagCount(BagFn::kDifference, Scan(*lhs), Scan(*rhs),
                            workers, morsel);
          },
          *difference, "bag-count − vs Def 3.1");
      ExpectAtEveryLaneCount(
          [&, lhs = lhs, rhs = rhs](size_t workers, size_t morsel) {
            return BagCount(BagFn::kIntersect, Scan(*lhs), Scan(*rhs),
                            workers, morsel);
          },
          *intersect, "bag-count ∩ vs Def 3.2");
      ExpectAtEveryLaneCount(
          [&, lhs = lhs](size_t workers, size_t morsel) {
            return BagCount(BagFn::kUnique, Scan(*lhs), nullptr, workers,
                            morsel);
          },
          *unique, "bag-count δ vs Def 3.4");
    }
  }
}

TEST_P(HashOpsDifferentialTest, BagCountIntersectIsDifferenceOfDifference) {
  // Thm 3.1: E1 ∩ E2 = E1 − (E1 − E2).  The inner − is drained through
  // NextBatch by the outer one's lanes.
  std::mt19937_64 rng(GetParam());
  const Profile& p = kProfiles[GetParam() % 3];
  Relation r = RandomIntRelation(rng, 2, p.max_distinct, p.value_range,
                                 p.max_multiplicity);
  Relation s = RandomIntRelation(rng, 2, p.max_distinct, p.value_range,
                                 p.max_multiplicity);
  auto oracle = ops::Intersect(r, s);
  ASSERT_OK(oracle);
  ExpectAtEveryLaneCount(
      [&](size_t workers, size_t morsel) {
        return BagCount(BagFn::kIntersect, Scan(r), Scan(s), workers, morsel);
      },
      *oracle, "E1 ∩ E2");
  ExpectAtEveryLaneCount(
      [&](size_t workers, size_t morsel) {
        return BagCount(BagFn::kDifference, Scan(r),
                        BagCount(BagFn::kDifference, Scan(r), Scan(s),
                                 workers, morsel),
                        workers, morsel);
      },
      *oracle, "E1 − (E1 − E2)");
}

TEST(HashOpsTest, BagCountKeysRealsAsTheRelationDoes) {
  // −0.0 = 0.0 and NaN = NaN whatever its sign or payload (Value::Equals),
  // so the key set must meet the rhs's 0.0 with the lhs's −0.0 and any
  // NaN with any other.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RelationSchema schema("x", {{"x", Type::Real()}, {"y", Type::Int()}});
  auto row = [](double x, int64_t y) {
    return Tuple({Value::Real(x), Value::Int(y)});
  };
  Relation r(schema), s(schema);
  ASSERT_OK(r.Insert(row(nan, 1), 5));
  ASSERT_OK(r.Insert(row(-0.0, 1), 1'000'000));
  ASSERT_OK(r.Insert(row(2.5, 2), 1));
  ASSERT_OK(s.Insert(row(-std::nan("7"), 1), 2));
  ASSERT_OK(s.Insert(row(0.0, 1), 999'999));
  ASSERT_OK(s.Insert(row(-0.0, 2), 4));
  for (BagFn fn : {BagFn::kDifference, BagFn::kIntersect}) {
    auto oracle = fn == BagFn::kDifference ? ops::Difference(r, s)
                                           : ops::Intersect(r, s);
    ASSERT_OK(oracle);
    ExpectAtEveryLaneCount(
        [&](size_t workers, size_t morsel) {
          return BagCount(fn, Scan(r), Scan(s), workers, morsel);
        },
        *oracle, "bag-count over NaN and -0.0");
  }
  EXPECT_EQ(ops::Difference(r, s)->Multiplicity(row(nan, 1)), 3u);
  auto unique = ops::Unique(s);
  ASSERT_OK(unique);
  ExpectAtEveryLaneCount(
      [&](size_t workers, size_t morsel) {
        return BagCount(BagFn::kUnique, Scan(s), nullptr, workers, morsel);
      },
      *unique, "bag-count δ over NaN and -0.0");
}

TEST(HashOpsTest, HashJoinComparesKeysAgainstTheStoredBuildRows) {
  // The join keeps no key copies: a probe row's left keys are compared
  // with a chain's stored build row at the right keys, which here sit at
  // other positions than on the left.  Build rows share their key but
  // differ in a non-key attribute, and the real keys include NaN (any
  // sign or payload) and −0.0, which Value::Equals and the oracle's =
  // both identify with any other NaN and with 0.0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double reals[] = {nan, -std::nan("7"), -0.0, 0.0, 1.5, -2.25};
  const char* strings[] = {"", "a", "brewery", "Guineken"};
  Relation left(RelationSchema(
      "l", {{"a", Type::Int()}, {"s", Type::String()}, {"x", Type::Real()}}));
  Relation right(RelationSchema(
      "r", {{"y", Type::Real()}, {"b", Type::Int()}, {"t", Type::String()}}));
  std::mt19937_64 rng(3);
  for (int64_t i = 0; i < 300; ++i) {
    left.InsertUnchecked(Tuple({Value::Int(i % 17),
                                Value::Str(strings[rng() % 4]),
                                Value::Real(reals[rng() % 6])}),
                         1 + rng() % 3);
    right.InsertUnchecked(Tuple({Value::Real(reals[rng() % 6]),
                                 Value::Int(i),
                                 Value::Str(strings[rng() % 4])}),
                          1 + rng() % 3);
  }
  // x = y ∧ s = t over l ⊕ r = (a, s, x, y, b, t).
  auto oracle = ops::Join(And(Eq(Attr(2), Attr(3)), Eq(Attr(1), Attr(5))),
                          left, right);
  ASSERT_OK(oracle);
  size_t nan_pairs = 0, signed_zero_pairs = 0;
  for (const auto& [t, count] : *oracle) {
    const double x = t.at(2).real_value(), y = t.at(3).real_value();
    if (std::isnan(x)) ++nan_pairs;
    if (x == 0.0 && std::signbit(x) != std::signbit(y)) ++signed_zero_pairs;
  }
  EXPECT_GT(nan_pairs, 0u);
  EXPECT_GT(signed_zero_pairs, 0u);
  ExpectAtEveryLaneCount(
      [&](size_t workers, size_t morsel) {
        return std::make_unique<HashJoinOp>(
            std::vector<size_t>{2, 1}, std::vector<size_t>{0, 2}, nullptr,
            Scan(left), Scan(right), workers, morsel);
      },
      *oracle, "hash join keyed at other positions on each side");
}

TEST(HashOpsTest, BagCountSaturatesRhsSums) {
  // One rhs key arrives in two rows whose counts sum past 2^64 - 1.  The
  // budget saturates, which keeps min(a, b) = a and max(0, a − b) = 0
  // exact for every lhs count a that fits in 64 bits.
  Relation lhs = IntRel("l", {}, 1);
  ASSERT_OK(lhs.Insert(IntTuple({1}), 1'000'000));
  ASSERT_OK(lhs.Insert(IntTuple({2}), 5));
  Relation half(lhs.schema());
  ASSERT_OK(half.Insert(IntTuple({1}), UINT64_MAX / 2 + 1));
  Relation saturated(lhs.schema());
  ASSERT_OK(saturated.Insert(IntTuple({1}), UINT64_MAX));
  auto rhs = [&] {
    return std::make_unique<UnionAllOp>(Scan(half), Scan(half));
  };
  auto difference = ops::Difference(lhs, saturated);
  auto intersect = ops::Intersect(lhs, saturated);
  ASSERT_OK(difference);
  ASSERT_OK(intersect);
  EXPECT_EQ(intersect->Multiplicity(IntTuple({1})), 1'000'000u);
  ExpectAtEveryLaneCount(
      [&](size_t workers, size_t morsel) {
        return BagCount(BagFn::kDifference, Scan(lhs), rhs(), workers, morsel);
      },
      *difference, "− over a saturated rhs");
  ExpectAtEveryLaneCount(
      [&](size_t workers, size_t morsel) {
        return BagCount(BagFn::kIntersect, Scan(lhs), rhs(), workers, morsel);
      },
      *intersect, "∩ over a saturated rhs");
}

TEST(HashOpsTest, BagCountFailsTypedWhenAnLhsSumOverflows) {
  // The lhs rows of a key that meets a budget are summed as they spend
  // it.  Five rows of 2^63 for one key overflow that sum on every lane
  // count: the query fails naming the operator instead of wrapping, and
  // hands back every byte it charged.
  Relation big = IntRel("b", {}, 1);
  ASSERT_OK(big.Insert(IntTuple({1}), uint64_t{1} << 63));
  Relation rhs = IntRel("r", {{1}}, 1);
  auto five = [&] {
    PhysOpPtr op = Scan(big);
    for (int i = 0; i < 4; ++i) {
      op = std::make_unique<UnionAllOp>(std::move(op), Scan(big));
    }
    return op;
  };
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    for (BagFn fn : {BagFn::kDifference, BagFn::kIntersect}) {
      ExecContext ctx;
      PhysOpPtr op = BagCount(fn, five(), Scan(rhs), workers, 1);
      op->SetExecContext(&ctx);
      auto got = ExecuteToRelation(*op, 1);
      ASSERT_FALSE(got.ok()) << op->name() << " workers=" << workers;
      EXPECT_EQ(got.status().code(), StatusCode::kEvalError);
      EXPECT_NE(got.status().message().find(op->name()), std::string::npos)
          << got.status().ToString();
      EXPECT_EQ(ctx.mem_used(), 0u);
    }
  }
}

TEST(HashOpsTest, BagCountHoldsEachKeyOnceOnEveryLaneCount) {
  // The lanes insert a partition's rows under its lock, so a key that
  // every lane meets still sits in one key set: the held keys are the
  // rhs's distinct keys for − and ∩ (here four copies of `a`), and the
  // result's for δ, whatever the lane count.
  Relation a = IntRel("a", {}, 1);
  for (int64_t i = 0; i < 3000; ++i) {
    ASSERT_OK(a.Insert(IntTuple({i % 500}), 1 + i % 3));
  }
  // Four copies of `a` in one stream: every key reaches several lanes.
  auto four = [&] {
    PhysOpPtr op = Scan(a);
    for (int i = 0; i < 3; ++i) {
      op = std::make_unique<UnionAllOp>(std::move(op), Scan(a));
    }
    return op;
  };
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    for (BagFn fn : {BagFn::kDifference, BagFn::kIntersect}) {
      PhysOpPtr op = BagCount(fn, four(), four(), workers, 64);
      ASSERT_OK(ExecuteToRelation(*op).status());
      EXPECT_EQ(op->metrics().peak_hash_entries, a.distinct_size())
          << op->name() << " workers=" << workers;
    }
    PhysOpPtr dedup = BagCount(BagFn::kUnique, four(), nullptr, workers, 64);
    auto got = ExecuteToRelation(*dedup);
    ASSERT_OK(got);
    EXPECT_EQ(got->distinct_size(), a.distinct_size());
    EXPECT_EQ(dedup->metrics().peak_hash_entries, a.distinct_size())
        << "workers=" << workers;
    EXPECT_EQ(dedup->metrics().distinct_rows, a.distinct_size())
        << "workers=" << workers;
  }
}

TEST(HashOpsTest, BagCountExplainShowsBuildAndProbe) {
  // − and ∩ report their rhs rows as build rows and their lhs rows as
  // probe rows, beside the key set's entries and footprint.
  Relation a = IntRel("a", {{1}, {1}, {2}, {3}}, 1);
  Relation b = IntRel("b", {{1}, {3}, {4}}, 1);
  for (size_t workers : {size_t{1}, size_t{4}}) {
    for (BagFn fn : {BagFn::kDifference, BagFn::kIntersect}) {
      PhysOpPtr op = BagCount(fn, Scan(a), Scan(b), workers, 1024);
      ASSERT_OK(ExecuteToRelation(*op).status());
      EXPECT_EQ(op->metrics().build_rows, b.distinct_size());
      EXPECT_EQ(op->metrics().probe_rows, a.distinct_size());
      const std::string rendered = RenderPlanWithMetrics(*op);
      for (const char* field : {"build=", "probe=", "hash=", "hashKB="}) {
        EXPECT_NE(rendered.find(field), std::string::npos)
            << field << " missing: " << rendered;
      }
    }
  }
}

// --- Planned sizes: each kernel reserves from its nodes' estimates. ---

/// Sets `rows` as the estimate of every node of `op`'s tree.
void SetEstimates(PhysicalOperator& op, double rows) {
  op.set_estimated_rows(rows);
  for (const PhysicalOperator* child : op.children()) {
    SetEstimates(const_cast<PhysicalOperator&>(*child), rows);
  }
}

TEST(HashOpsTest, PlannedSizesFromAnyEstimateKeepResults) {
  // No estimate, far under (every table grows past its reservation), and
  // far over (the reservation is clamped at kMaxPlannedRows): each kernel
  // still gives the definitional bag at every lane count.
  std::mt19937_64 rng(21);
  Relation r = RandomIntRelation(rng, 2, 400, 60, 5);
  Relation s = RandomIntRelation(rng, 2, 400, 60, 5);
  const std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "s"},
                                     {AggKind::kCnt, 0, "n"}};
  auto gb_schema = ops::GroupBySchema({0}, aggs, r.schema());
  ASSERT_OK(gb_schema);
  auto join = ops::Join(Eq(Attr(0), Attr(2)), r, s);
  auto group = ops::GroupBy({0}, aggs, r);
  auto unique = ops::Unique(r);
  auto difference = ops::Difference(r, s);
  ASSERT_OK(join);
  ASSERT_OK(group);
  ASSERT_OK(unique);
  ASSERT_OK(difference);
  const std::vector<std::pair<std::function<PhysOpPtr(size_t, size_t)>,
                              const Relation*>>
      kernels = {
          {[&](size_t workers, size_t morsel) -> PhysOpPtr {
             return std::make_unique<HashJoinOp>(
                 std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
                 Scan(r), Scan(s), workers, morsel);
           },
           &*join},
          {[&](size_t workers, size_t morsel) -> PhysOpPtr {
             return std::make_unique<HashGroupByOp>(
                 std::vector<size_t>{0}, aggs, *gb_schema, Scan(r), workers,
                 morsel);
           },
           &*group},
          {[&](size_t workers, size_t morsel) {
             return BagCount(BagFn::kUnique, Scan(r), nullptr, workers,
                             morsel);
           },
           &*unique},
          {[&](size_t workers, size_t morsel) {
             return BagCount(BagFn::kDifference, Scan(r), Scan(s), workers,
                             morsel);
           },
           &*difference}};
  for (double estimate : {-1.0, 1.0, 3.0, 1e9}) {
    for (const auto& [make, expected] : kernels) {
      ExpectAtEveryLaneCount(
          [&, make = make](size_t workers, size_t morsel) {
            PhysOpPtr op = make(workers, morsel);
            SetEstimates(*op, estimate);
            return op;
          },
          *expected, ("estimate " + std::to_string(estimate)).c_str());
    }
  }
}

TEST(HashKeyIndexTest, ReserveFillsWithoutGrowing) {
  HashKeyIndex index;
  index.Reserve(0);
  EXPECT_EQ(index.index_capacity(), 0u);
  index.Reserve(300);
  const size_t buckets = index.index_capacity();
  const size_t slots = index.key_capacity();
  EXPECT_EQ(buckets, TagIndex::CapacityFor(300));
  EXPECT_GE(slots, 300u);
  const std::vector<size_t> attrs = {0};
  auto fill = [&] {
    for (int64_t i = 0; i < 300; ++i) {
      const Tuple row = IntTuple({i, i % 7});
      bool inserted = false;
      ASSERT_EQ(index.InsertKey(row, attrs, row.HashKey(attrs), &inserted),
                static_cast<size_t>(i));
      ASSERT_TRUE(inserted);
    }
    EXPECT_EQ(index.index_capacity(), buckets);
    EXPECT_EQ(index.key_capacity(), slots);
  };
  fill();
  // Below the size, or within the room: no-ops.
  index.Reserve(10);
  index.Reserve(300);
  EXPECT_EQ(index.index_capacity(), buckets);
  // A recycled index refills in the same room.
  index.Reset();
  fill();
  // Past the room (7/8 of the buckets): every key keeps its id.
  index.Reserve(buckets * 7 / 8 + 1);
  EXPECT_EQ(index.index_capacity(), 2 * buckets);
  for (int64_t i = 0; i < 300; ++i) {
    const Tuple row = IntTuple({i, 0});
    EXPECT_EQ(index.FindKey(row, attrs, row.HashKey(attrs)),
              static_cast<size_t>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashOpsDifferentialTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// --- Aggregate partiality (Def 3.3) through the front ends. ---

class HashOpsFrontEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open();
    ASSERT_OK(db);
    db_ = std::move(*db);
    interp_ = std::make_unique<lang::Interpreter>(db_.get());
    ASSERT_OK(interp_->ExecuteScript(
        "create t(a: int, b: int);"
        "create u(a: int, b: int);"
        "insert(u, {(1, 10), (1, 20), (2, 5)});",
        nullptr));
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<lang::Interpreter> interp_;
};

TEST_F(HashOpsFrontEndTest, XraAvgMinMaxOverEmptyInputAreUndefined) {
  // t is empty: the global group exists (Def 3.4's single-attribute-tuple
  // case) but AVG/MIN/MAX of zero tuples are partial — they must error
  // with kUndefined, not return 0.
  for (const char* agg : {"avg", "min", "max"}) {
    auto result =
        interp_->Query(std::string("groupby([], ") + agg + "(%1), t)");
    ASSERT_FALSE(result.ok()) << agg << " over empty input must be undefined";
    EXPECT_EQ(result.status().code(), StatusCode::kUndefined) << agg;
  }
  // CNT and SUM are total: one global row with 0.
  auto cnt = interp_->Query("groupby([], cnt(%1), t)");
  ASSERT_OK(cnt);
  EXPECT_EQ(cnt->Multiplicity(IntTuple({0})), 1u);
  auto sum = interp_->Query("groupby([], sum(%1), t)");
  ASSERT_OK(sum);
  EXPECT_EQ(sum->Multiplicity(IntTuple({0})), 1u);
}

TEST_F(HashOpsFrontEndTest, SqlAvgOverEmptyTableIsUndefined) {
  sql::SqlSession session(db_.get());
  for (const char* agg : {"AVG(b)", "MIN(b)", "MAX(b)"}) {
    auto result = session.ExecuteCollect(std::string("SELECT ") + agg +
                                         " FROM t");
    ASSERT_FALSE(result.ok()) << agg << " over empty table must be undefined";
    EXPECT_EQ(result.status().code(), StatusCode::kUndefined) << agg;
  }
  auto cnt = session.ExecuteCollect("SELECT COUNT(*) FROM t");
  ASSERT_OK(cnt);
  ASSERT_EQ(cnt->size(), 1u);
  EXPECT_EQ((*cnt)[0].Multiplicity(IntTuple({0})), 1u);
}

TEST_F(HashOpsFrontEndTest, NonEmptyGroupsKeepAvgDefined) {
  // Groups only exist where rows exist, so a keyed AVG never hits the
  // partial case — even though some *other* key value is absent.
  auto result = interp_->Query("groupby([%1], avg(%2), u)");
  ASSERT_OK(result);
  EXPECT_EQ(
      result->Multiplicity(Tuple({Value::Int(1), Value::Real(15.0)})), 1u);
  EXPECT_EQ(result->Multiplicity(Tuple({Value::Int(2), Value::Real(5.0)})),
            1u);
}

// --- Planner choice, visible through EXPLAIN (ANALYZE). ---

TEST_F(HashOpsFrontEndTest, ExplainShowsHashJoinKeysAndBuildProbeCounts) {
  auto plan = interp_->Explain("join(%1 = %3, u, u)");
  ASSERT_OK(plan);
  EXPECT_NE(plan->find("HashJoin"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("[keys: %1=%3]"), std::string::npos) << *plan;

  auto analyzed = interp_->ExplainAnalyze("join(%1 = %3, u, u)");
  ASSERT_OK(analyzed);
  EXPECT_NE(analyzed->find("HashJoin"), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("build="), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("probe="), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("hashKB="), std::string::npos) << *analyzed;
}

TEST_F(HashOpsFrontEndTest, ExplainShowsNestedLoopFallbackForThetaJoin) {
  auto plan = interp_->Explain("join(%1 < %3, u, u)");
  ASSERT_OK(plan);
  EXPECT_EQ(plan->find("HashJoin"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("NestedLoopJoin"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("[fallback: predicate not hashable]"),
            std::string::npos)
      << *plan;
}

}  // namespace
}  // namespace exec
}  // namespace mra
