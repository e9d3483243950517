// Differential test for the batch protocol: every physical operator must
// produce exactly the multiset of its definitional ops:: function (Def 3.1
// and the paper's other definitions, transcribed in mra/algebra) at batch
// sizes 1 (degenerate), 7 (odd, never aligned with input sizes) and 1024
// (the default).  This pins down every NextBatchImpl kernel, the batch
// boundaries they carry state across, and the compiled fast paths
// (CompiledPredicate, attribute-only projection).

#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "mra/algebra/closure.h"
#include "mra/algebra/ops.h"
#include "mra/exec/hash_ops.h"
#include "mra/exec/operator.h"
#include "mra/exec/sort.h"
#include "test_util.h"

namespace mra {
namespace exec {
namespace {

using ::mra::testing::IntRel;
using ::mra::testing::RandomIntRelation;

using OpFactory = std::function<PhysOpPtr()>;

// Drains a fresh operator tree per batch size — each Open re-compiles the
// fast paths, so nothing leaks between runs — against the oracle's bag.
void ExpectBatchAgreement(const OpFactory& make,
                          const Result<Relation>& expected) {
  ASSERT_OK(expected);
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    PhysOpPtr op = make();
    auto batched = ExecuteToRelation(*op, batch_size);
    ASSERT_OK(batched);
    EXPECT_REL_EQ(*batched, *expected)
        << op->name() << " diverged at batch size " << batch_size;
  }
}

// Shared inputs: small value range so difference/intersect/join overlap,
// multiplicities up to 5 so the bag semantics are exercised.
struct Corpus {
  explicit Corpus(uint64_t seed) {
    std::mt19937_64 rng(seed);
    r = RandomIntRelation(rng, /*arity=*/2, /*max_distinct=*/200,
                          /*value_range=*/25, /*max_multiplicity=*/5);
    s = RandomIntRelation(rng, 2, 200, 25, 5);
    empty = Relation(r.schema());
  }
  Relation r, s, empty;
};

class BatchDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Corpus c{GetParam()};
};

TEST_P(BatchDifferentialTest, ScanOp) {
  ExpectBatchAgreement([&] { return std::make_unique<ScanOp>(&c.r); }, c.r);
  ExpectBatchAgreement([&] { return std::make_unique<ScanOp>(&c.empty); },
                       c.empty);
}

TEST_P(BatchDifferentialTest, ConstScanOp) {
  ExpectBatchAgreement([&] { return std::make_unique<ConstScanOp>(c.s); },
                       c.s);
}

TEST_P(BatchDifferentialTest, FilterOpCompiledPredicate) {
  // %0 < 12 ∧ %1 > 3: conjunction of attr-op-literal — the compiled path.
  auto condition = [] {
    return And(Lt(Attr(0), Lit(int64_t{12})), Gt(Attr(1), Lit(int64_t{3})));
  };
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<FilterOp>(condition(),
                                          std::make_unique<ScanOp>(&c.r));
      },
      ops::Select(condition(), c.r));
}

TEST_P(BatchDifferentialTest, FilterOpGeneralExpression) {
  // %0 + %1 > 20 involves arithmetic, so it must take the interpreter path.
  auto condition = [] { return Gt(Add(Attr(0), Attr(1)), Lit(int64_t{20})); };
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<FilterOp>(condition(),
                                          std::make_unique<ScanOp>(&c.r));
      },
      ops::Select(condition(), c.r));
}

// π over a scan through ComputeOp (the planner would fuse an attribute-
// only π into the scan; built by hand here to test the operator itself).
PhysOpPtr MakeCompute(std::vector<ExprPtr> exprs, const Relation* input) {
  auto schema = InferProjectionSchema(exprs, input->schema());
  MRA_CHECK(schema.ok());
  return std::make_unique<ComputeOp>(std::move(exprs), *schema,
                                     std::make_unique<ScanOp>(input));
}

TEST_P(BatchDifferentialTest, ComputeOpAttrOnly) {
  // Pure column shuffle — the Tuple::Project fast path.
  auto exprs = [] {
    std::vector<ExprPtr> e;
    e.push_back(Attr(1));
    e.push_back(Attr(0));
    return e;
  };
  ExpectBatchAgreement([&] { return MakeCompute(exprs(), &c.r); },
                       ops::Project(exprs(), c.r));
}

TEST_P(BatchDifferentialTest, ComputeOpGeneralExpression) {
  auto exprs = [] {
    std::vector<ExprPtr> e;
    e.push_back(Add(Attr(0), Attr(1)));
    return e;
  };
  ExpectBatchAgreement([&] { return MakeCompute(exprs(), &c.r); },
                       ops::Project(exprs(), c.r));
}

TEST_P(BatchDifferentialTest, DedupOp) {
  for (size_t workers : {size_t{1}, size_t{4}}) {
    ExpectBatchAgreement(
        [&] {
          return std::make_unique<BagCountOp>(
              BagFn::kUnique, std::make_unique<ScanOp>(&c.r), nullptr,
              workers);
        },
        ops::Unique(c.r));
    ExpectBatchAgreement(
        [&] {
          return std::make_unique<BagCountOp>(
              BagFn::kUnique, std::make_unique<ScanOp>(&c.empty), nullptr,
              workers);
        },
        ops::Unique(c.empty));
  }
}

TEST_P(BatchDifferentialTest, SortDedupOp) {
  // δ over a sorted input, where duplicates arrive adjacent and SortOp
  // swaps its buffered tuples into the batch slots that δ then compacts.
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<BagCountOp>(
            BagFn::kUnique,
            std::make_unique<SortOp>(std::vector<size_t>{0, 1},
                                     std::vector<bool>{false, false}, 0, 0,
                                     std::make_unique<ScanOp>(&c.r)),
            nullptr);
      },
      ops::Unique(c.r));
}

TEST_P(BatchDifferentialTest, UnionAllOp) {
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<UnionAllOp>(std::make_unique<ScanOp>(&c.r),
                                            std::make_unique<ScanOp>(&c.s));
      },
      ops::Union(c.r, c.s));
  // Asymmetric: one side empty exercises the stream hand-over.
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<UnionAllOp>(
            std::make_unique<ScanOp>(&c.empty), std::make_unique<ScanOp>(&c.s));
      },
      ops::Union(c.empty, c.s));
}

TEST_P(BatchDifferentialTest, DifferenceOp) {
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<BagCountOp>(BagFn::kDifference,
                                            std::make_unique<ScanOp>(&c.r),
                                            std::make_unique<ScanOp>(&c.s));
      },
      ops::Difference(c.r, c.s));
}

TEST_P(BatchDifferentialTest, IntersectOp) {
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<BagCountOp>(BagFn::kIntersect,
                                            std::make_unique<ScanOp>(&c.r),
                                            std::make_unique<ScanOp>(&c.s));
      },
      ops::Intersect(c.r, c.s));
}

TEST_P(BatchDifferentialTest, NestedLoopJoinOp) {
  // Product (no condition), a theta join, and an empty build side.
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<NestedLoopJoinOp>(
            nullptr, std::make_unique<ScanOp>(&c.r),
            std::make_unique<ScanOp>(&c.s));
      },
      ops::Product(c.r, c.s));
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<NestedLoopJoinOp>(
            Lt(Attr(0), Attr(2)), std::make_unique<ScanOp>(&c.r),
            std::make_unique<ScanOp>(&c.s));
      },
      ops::Join(Lt(Attr(0), Attr(2)), c.r, c.s));
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<NestedLoopJoinOp>(
            nullptr, std::make_unique<ScanOp>(&c.r),
            std::make_unique<ScanOp>(&c.empty));
      },
      ops::Product(c.r, c.empty));
}

TEST_P(BatchDifferentialTest, HashJoinOp) {
  for (size_t workers : {size_t{1}, size_t{4}}) {
    ExpectBatchAgreement(
        [&] {
          return std::make_unique<HashJoinOp>(
              std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
              std::make_unique<ScanOp>(&c.r), std::make_unique<ScanOp>(&c.s),
              workers);
        },
        ops::Join(Eq(Attr(0), Attr(2)), c.r, c.s));
    // With residual condition.
    ExpectBatchAgreement(
        [&] {
          return std::make_unique<HashJoinOp>(
              std::vector<size_t>{0}, std::vector<size_t>{0},
              Lt(Attr(1), Attr(3)), std::make_unique<ScanOp>(&c.r),
              std::make_unique<ScanOp>(&c.s), workers);
        },
        ops::Join(And(Eq(Attr(0), Attr(2)), Lt(Attr(1), Attr(3))), c.r,
                  c.s));
  }
}

TEST_P(BatchDifferentialTest, HashJoinOpMultiKey) {
  for (size_t workers : {size_t{1}, size_t{4}}) {
    ExpectBatchAgreement(
        [&] {
          return std::make_unique<HashJoinOp>(
              std::vector<size_t>{0, 1}, std::vector<size_t>{1, 0}, nullptr,
              std::make_unique<ScanOp>(&c.r), std::make_unique<ScanOp>(&c.s),
              workers);
        },
        ops::Join(And(Eq(Attr(0), Attr(3)), Eq(Attr(1), Attr(2))), c.r,
                  c.s));
  }
}

TEST_P(BatchDifferentialTest, HashJoinOpEmptySides) {
  // Empty build side: every probe misses.  Empty probe side: the build
  // table is constructed and then never probed.
  for (size_t workers : {size_t{1}, size_t{4}}) {
    ExpectBatchAgreement(
        [&] {
          return std::make_unique<HashJoinOp>(
              std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
              std::make_unique<ScanOp>(&c.r),
              std::make_unique<ScanOp>(&c.empty), workers);
        },
        ops::Join(Eq(Attr(0), Attr(2)), c.r, c.empty));
    ExpectBatchAgreement(
        [&] {
          return std::make_unique<HashJoinOp>(
              std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
              std::make_unique<ScanOp>(&c.empty),
              std::make_unique<ScanOp>(&c.s), workers);
        },
        ops::Join(Eq(Attr(0), Attr(2)), c.empty, c.s));
  }
}

TEST_P(BatchDifferentialTest, ClosureOp) {
  ExpectBatchAgreement(
      [&] { return std::make_unique<ClosureOp>(std::make_unique<ScanOp>(&c.r)); },
      ops::TransitiveClosure(c.r));
}

TEST_P(BatchDifferentialTest, HashGroupByOp) {
  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "s"},
                               {AggKind::kCnt, 0, "n"},
                               {AggKind::kMax, 1, "m"}};
  auto schema = ops::GroupBySchema({0}, aggs, c.r.schema());
  ASSERT_OK(schema);
  for (size_t workers : {size_t{1}, size_t{4}}) {
    ExpectBatchAgreement(
        [&] {
          return std::make_unique<HashGroupByOp>(
              std::vector<size_t>{0}, aggs, *schema,
              std::make_unique<ScanOp>(&c.r), workers);
        },
        ops::GroupBy({0}, aggs, c.r));
  }
}

TEST_P(BatchDifferentialTest, HashGroupByOpGlobalAndEmpty) {
  // Global group (no keys) and an empty input.  Only the total aggregates
  // (CNT/SUM) appear here: AVG/MIN/MAX over the empty input are undefined
  // by Def 3.3 and would (correctly) error on both paths.
  std::vector<AggSpec> aggs = {{AggKind::kCnt, 0, "n"},
                               {AggKind::kSum, 1, "s"}};
  auto schema = ops::GroupBySchema({}, aggs, c.r.schema());
  ASSERT_OK(schema);
  // Keyed group-by over an empty input: no groups, empty result.
  auto keyed_schema = ops::GroupBySchema({0}, aggs, c.r.schema());
  ASSERT_OK(keyed_schema);
  for (size_t workers : {size_t{1}, size_t{4}}) {
    ExpectBatchAgreement(
        [&] {
          return std::make_unique<HashGroupByOp>(
              std::vector<size_t>{}, aggs, *schema,
              std::make_unique<ScanOp>(&c.r), workers);
        },
        ops::GroupBy({}, aggs, c.r));
    ExpectBatchAgreement(
        [&] {
          return std::make_unique<HashGroupByOp>(
              std::vector<size_t>{}, aggs, *schema,
              std::make_unique<ScanOp>(&c.empty), workers);
        },
        ops::GroupBy({}, aggs, c.empty));
    ExpectBatchAgreement(
        [&] {
          return std::make_unique<HashGroupByOp>(
              std::vector<size_t>{0}, aggs, *keyed_schema,
              std::make_unique<ScanOp>(&c.empty), workers);
        },
        ops::GroupBy({0}, aggs, c.empty));
  }
}

TEST_P(BatchDifferentialTest, ComposedPipeline) {
  // The e15 shape — scan → filter → project — plus a dedup on top, as one
  // tree, so batch boundaries propagate through multiple operators.
  std::vector<ExprPtr> exprs;
  exprs.push_back(Attr(0));
  auto filtered = ops::Select(Lt(Attr(0), Lit(int64_t{15})), c.r);
  ASSERT_OK(filtered);
  auto projected = ops::Project(exprs, *filtered);
  ASSERT_OK(projected);
  ExpectBatchAgreement(
      [&] {
        auto filter = std::make_unique<FilterOp>(
            Lt(Attr(0), Lit(int64_t{15})), std::make_unique<ScanOp>(&c.r));
        auto schema = InferProjectionSchema(exprs, c.r.schema());
        MRA_CHECK(schema.ok());
        auto project = std::make_unique<ComputeOp>(exprs, *schema,
                                                   std::move(filter));
        return std::make_unique<BagCountOp>(BagFn::kUnique,
                                            std::move(project), nullptr);
      },
      ops::Unique(*projected));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// Batch-protocol contract details that the differential sweep cannot see.

TEST(RowBatchContractTest, EmptyBatchAfterOkCallMeansEndOfStream) {
  Relation r = IntRel("r", {{1}, {2}, {3}}, 1);
  ScanOp scan(&r);
  ASSERT_OK(scan.Open());
  RowBatch batch(2);
  ASSERT_OK(scan.NextBatch(batch));
  EXPECT_EQ(batch.size(), 2u);
  ASSERT_OK(scan.NextBatch(batch));
  EXPECT_EQ(batch.size(), 1u);
  ASSERT_OK(scan.NextBatch(batch));
  EXPECT_TRUE(batch.empty());
  scan.Close();
}

TEST(RowBatchContractTest, ClearRecyclesRowStorage) {
  // Clear parks rows instead of destroying them: the slot handed back by
  // AppendSlot still owns the previous tuple's buffer, so assigning a
  // same-arity tuple reuses it (no reallocation).
  RowBatch batch(4);
  batch.AppendSlot() = Row{Tuple({Value::Int(1), Value::Int(2)}), 1};
  const Value* before = batch[0].tuple.values().data();
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  // Copy-assign (the ScanOp refill pattern) — a move would replace the
  // buffer instead of reusing it.
  const Tuple next({Value::Int(7), Value::Int(8)});
  Row& slot = batch.AppendSlot();
  slot.tuple = next;
  slot.count = 3;
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].tuple.values().data(), before);
  EXPECT_EQ(batch[0].tuple.at(0).int_value(), 7);
}

TEST(RowBatchContractTest, TruncateCompactsLogicalSizeOnly) {
  RowBatch batch(4);
  for (int64_t i = 0; i < 3; ++i) {
    batch.AppendSlot() = Row{Tuple({Value::Int(i)}), 1};
  }
  batch.Truncate(1);
  EXPECT_EQ(batch.size(), 1u);
  size_t seen = 0;
  for (const Row& row : batch) {
    EXPECT_EQ(row.tuple.at(0).int_value(), 0);
    ++seen;
  }
  EXPECT_EQ(seen, 1u);
}

}  // namespace
}  // namespace exec
}  // namespace mra
