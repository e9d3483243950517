// Tests for the physical executor: each operator against its definitional
// counterpart, plus randomized whole-plan agreement between
// exec::ExecutePlan and the reference evaluator.

#include <gtest/gtest.h>

#include <random>

#include "mra/algebra/ops.h"
#include "mra/catalog/catalog.h"
#include "mra/exec/hash_ops.h"
#include "mra/exec/operator.h"
#include "mra/exec/physical_planner.h"
#include "mra/lang/interpreter.h"
#include "mra/txn/database.h"
#include "test_util.h"

namespace mra {
namespace exec {
namespace {

using ::mra::testing::IntRel;
using ::mra::testing::IntTuple;
using ::mra::testing::PaperBeerDb;
using ::mra::testing::RandomIntRelation;

TEST(ScanOpTest, StreamsAllEntries) {
  Relation r = IntRel("r", {{1}, {1}, {2}}, 1);
  ScanOp scan(&r);
  auto result = ExecuteToRelation(scan);
  ASSERT_OK(result);
  EXPECT_REL_EQ(*result, r);
}

TEST(ConstScanOpTest, OwnsItsRelation) {
  auto op = std::make_unique<ConstScanOp>(IntRel("r", {{5}}, 1));
  auto result = ExecuteToRelation(*op);
  ASSERT_OK(result);
  EXPECT_EQ(result->Multiplicity(IntTuple({5})), 1u);
}

TEST(FilterOpTest, MatchesDefinitionalSelect) {
  Relation r = IntRel("r", {{1}, {2}, {2}, {3}}, 1);
  ExprPtr pred = Ge(Attr(0), Lit(int64_t{2}));
  FilterOp op(pred, std::make_unique<ScanOp>(&r));
  auto result = ExecuteToRelation(op);
  ASSERT_OK(result);
  EXPECT_REL_EQ(*result, *ops::Select(pred, r));
}

TEST(ComputeOpTest, MatchesDefinitionalProject) {
  Relation r = IntRel("r", {{1, 10}, {2, 20}, {2, 20}}, 2);
  std::vector<ExprPtr> exprs = {Add(Attr(0), Attr(1))};
  auto schema = InferProjectionSchema(exprs, r.schema());
  ASSERT_OK(schema);
  ComputeOp op(exprs, *schema, std::make_unique<ScanOp>(&r));
  auto result = ExecuteToRelation(op);
  ASSERT_OK(result);
  EXPECT_REL_EQ(*result, *ops::Project(exprs, r));
}

TEST(DedupOpTest, StreamsFirstOccurrenceOnly) {
  Relation r = IntRel("r", {{1}, {1}, {2}}, 1);
  BagCountOp op(BagFn::kUnique, std::make_unique<ScanOp>(&r), nullptr);
  auto result = ExecuteToRelation(op);
  ASSERT_OK(result);
  EXPECT_REL_EQ(*result, *ops::Unique(r));
}

TEST(UnionAllOpTest, CountsAddAcrossStreams) {
  Relation a = IntRel("a", {{1}, {1}}, 1);
  Relation b = IntRel("b", {{1}, {2}}, 1);
  UnionAllOp op(std::make_unique<ScanOp>(&a), std::make_unique<ScanOp>(&b));
  auto result = ExecuteToRelation(op);
  ASSERT_OK(result);
  EXPECT_REL_EQ(*result, *ops::Union(a, b));
}

TEST(DifferenceOpTest, MatchesDefinitionalDifference) {
  Relation a = IntRel("a", {{1}, {1}, {1}, {2}}, 1);
  Relation b = IntRel("b", {{1}, {2}, {3}}, 1);
  BagCountOp op(BagFn::kDifference, std::make_unique<ScanOp>(&a),
                std::make_unique<ScanOp>(&b));
  auto result = ExecuteToRelation(op);
  ASSERT_OK(result);
  EXPECT_REL_EQ(*result, *ops::Difference(a, b));
}

TEST(IntersectOpTest, MatchesDefinitionalIntersect) {
  Relation a = IntRel("a", {{1}, {1}, {2}}, 1);
  Relation b = IntRel("b", {{1}, {3}}, 1);
  BagCountOp op(BagFn::kIntersect, std::make_unique<ScanOp>(&a),
                std::make_unique<ScanOp>(&b));
  auto result = ExecuteToRelation(op);
  ASSERT_OK(result);
  EXPECT_REL_EQ(*result, *ops::Intersect(a, b));
}

TEST(NestedLoopJoinOpTest, ProductWhenNoCondition) {
  Relation a = IntRel("a", {{1}, {1}}, 1);
  Relation b = IntRel("b", {{7}, {8}}, 1);
  NestedLoopJoinOp op(nullptr, std::make_unique<ScanOp>(&a),
                      std::make_unique<ScanOp>(&b));
  auto result = ExecuteToRelation(op);
  ASSERT_OK(result);
  EXPECT_REL_EQ(*result, *ops::Product(a, b));
  EXPECT_EQ(op.name(), "Product");
}

TEST(NestedLoopJoinOpTest, ThetaJoin) {
  Relation a = IntRel("a", {{1}, {2}, {3}}, 1);
  Relation b = IntRel("b", {{2}, {3}}, 1);
  ExprPtr cond = Lt(Attr(0), Attr(1));
  NestedLoopJoinOp op(cond, std::make_unique<ScanOp>(&a),
                      std::make_unique<ScanOp>(&b));
  auto result = ExecuteToRelation(op);
  ASSERT_OK(result);
  EXPECT_REL_EQ(*result, *ops::Join(cond, a, b));
}

TEST(HashJoinOpTest, EquiJoinMatchesDefinitional) {
  Relation a = IntRel("a", {{1, 100}, {2, 200}, {2, 201}}, 2);
  Relation b = IntRel("b", {{2, 7}, {3, 8}, {2, 9}}, 2);
  ExprPtr cond = Eq(Attr(0), Attr(2));
  HashJoinOp op({0}, {0}, nullptr, std::make_unique<ScanOp>(&a),
                std::make_unique<ScanOp>(&b));
  auto result = ExecuteToRelation(op);
  ASSERT_OK(result);
  EXPECT_REL_EQ(*result, *ops::Join(cond, a, b));
}

TEST(HashJoinOpTest, ResidualConditionApplied) {
  Relation a = IntRel("a", {{1, 5}, {1, 50}}, 2);
  Relation b = IntRel("b", {{1, 10}}, 2);
  // Equi on col1 = col3, residual col2 < col4.
  ExprPtr full = And(Eq(Attr(0), Attr(2)), Lt(Attr(1), Attr(3)));
  HashJoinOp op({0}, {0}, Lt(Attr(1), Attr(3)), std::make_unique<ScanOp>(&a),
                std::make_unique<ScanOp>(&b));
  auto result = ExecuteToRelation(op);
  ASSERT_OK(result);
  EXPECT_REL_EQ(*result, *ops::Join(full, a, b));
  EXPECT_EQ(result->size(), 1u);
}

TEST(HashGroupByOpTest, MatchesDefinitionalGroupBy) {
  Relation r = IntRel("r", {{1, 10}, {1, 20}, {2, 30}}, 2);
  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "s"},
                               {AggKind::kCnt, 0, "n"}};
  auto schema = ops::GroupBySchema({0}, aggs, r.schema());
  ASSERT_OK(schema);
  HashGroupByOp op({0}, aggs, *schema, std::make_unique<ScanOp>(&r));
  auto result = ExecuteToRelation(op);
  ASSERT_OK(result);
  EXPECT_REL_EQ(*result, *ops::GroupBy({0}, aggs, r));
}

TEST(HashGroupByOpTest, GlobalAggregateOverEmptyStream) {
  Relation empty(RelationSchema("e", {{"x", Type::Int()}}));
  std::vector<AggSpec> aggs = {{AggKind::kCnt, 0, "n"}};
  auto schema = ops::GroupBySchema({}, aggs, empty.schema());
  ASSERT_OK(schema);
  HashGroupByOp op({}, aggs, *schema, std::make_unique<ScanOp>(&empty));
  auto result = ExecuteToRelation(op);
  ASSERT_OK(result);
  EXPECT_EQ(result->Multiplicity(IntTuple({0})), 1u);
}

TEST(ExtractEquiJoinKeysTest, FindsCrossSideEqualities) {
  // Schema: 2 left ints + 2 right ints.
  RelationSchema combined("j", {{"a", Type::Int()},
                                {"b", Type::Int()},
                                {"c", Type::Int()},
                                {"d", Type::Int()}});
  ExprPtr cond = And(Eq(Attr(0), Attr(2)),
                     And(Eq(Attr(3), Attr(1)), Gt(Attr(1), Lit(int64_t{5}))));
  std::vector<size_t> lk, rk;
  ExprPtr residual;
  EXPECT_TRUE(ExtractEquiJoinKeys(cond, combined, 2, &lk, &rk, &residual));
  EXPECT_EQ(lk, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(rk, (std::vector<size_t>{0, 1}));
  ASSERT_NE(residual, nullptr);
  EXPECT_EQ(residual->ToString(), "(%2 > 5)");
}

TEST(ExtractEquiJoinKeysTest, RejectsSameSideAndMixedDomain) {
  RelationSchema combined("j", {{"a", Type::Int()},
                                {"b", Type::Int()},
                                {"c", Type::Real()}});
  // Same-side equality: not a join key.
  std::vector<size_t> lk, rk;
  ExprPtr residual;
  EXPECT_FALSE(ExtractEquiJoinKeys(Eq(Attr(0), Attr(1)), combined, 2, &lk,
                                   &rk, &residual));
  ASSERT_NE(residual, nullptr);
  // Cross-side but int vs real: promotion-based equality cannot be hashed.
  EXPECT_FALSE(ExtractEquiJoinKeys(Eq(Attr(0), Attr(2)), combined, 2, &lk,
                                   &rk, &residual));
}

TEST(PhysicalPlannerTest, LowersJoinToHashJoin) {
  Catalog catalog;
  PaperBeerDb db;
  ASSERT_OK(catalog.CreateRelation(db.beer.schema()));
  ASSERT_OK(catalog.SetRelation("beer", db.beer));
  ASSERT_OK(catalog.CreateRelation(db.brewery.schema()));
  ASSERT_OK(catalog.SetRelation("brewery", db.brewery));

  PlanPtr beer = Plan::Scan("beer", db.beer.schema());
  PlanPtr brewery = Plan::Scan("brewery", db.brewery.schema());
  auto join = Plan::Join(Eq(Attr(1), Attr(3)), beer, brewery);
  ASSERT_OK(join);
  auto op = LowerPlan(*join, catalog);
  ASSERT_OK(op);
  EXPECT_EQ((*op)->name(), "HashJoin");

  auto theta = Plan::Join(Lt(Attr(2), Attr(2)), beer, brewery);
  ASSERT_OK(theta);
  auto op2 = LowerPlan(*theta, catalog);
  ASSERT_OK(op2);
  EXPECT_EQ((*op2)->name(), "NestedLoopJoin");
}

TEST(PhysicalPlannerTest, PhysicalToStringShowsTree) {
  Catalog catalog;
  PaperBeerDb db;
  ASSERT_OK(catalog.CreateRelation(db.beer.schema()));
  ASSERT_OK(catalog.SetRelation("beer", db.beer));
  PlanPtr beer = Plan::Scan("beer", db.beer.schema());
  auto sel = Plan::Select(Eq(Attr(1), Lit("Guineken")), beer);
  ASSERT_OK(sel);
  auto op = LowerPlan(*sel, catalog);
  ASSERT_OK(op);
  std::string rendered = (*op)->ToString();
  EXPECT_NE(rendered.find("Filter"), std::string::npos);
  EXPECT_NE(rendered.find("Scan"), std::string::npos);
}

class ExecAgreementTest : public ::testing::TestWithParam<uint64_t> {};

// Random plans over random catalogs: the physical executor must agree with
// the definitional evaluator exactly.
TEST_P(ExecAgreementTest, PhysicalMatchesReference) {
  std::mt19937_64 rng(GetParam());
  Catalog catalog;
  Relation r = RandomIntRelation(rng, 2, 30, 8, 3);
  Relation s = RandomIntRelation(rng, 2, 30, 8, 3);
  RelationSchema rs = r.schema();
  rs.set_name("r");
  RelationSchema ss = s.schema();
  ss.set_name("s");
  ASSERT_OK(catalog.CreateRelation(rs));
  ASSERT_OK(catalog.SetRelation("r", r));
  ASSERT_OK(catalog.CreateRelation(ss));
  ASSERT_OK(catalog.SetRelation("s", s));

  PlanPtr scan_r = Plan::Scan("r", rs);
  PlanPtr scan_s = Plan::Scan("s", ss);

  std::vector<PlanPtr> plans;
  auto add = [&plans](Result<PlanPtr> p) {
    ASSERT_OK(p);
    plans.push_back(*p);
  };
  add(Plan::Union(scan_r, scan_s));
  add(Plan::Difference(scan_r, scan_s));
  add(Plan::Intersect(scan_r, scan_s));
  add(Plan::Join(Eq(Attr(0), Attr(2)), scan_r, scan_s));
  add(Plan::Join(And(Eq(Attr(0), Attr(2)), Lt(Attr(1), Attr(3))), scan_r,
                 scan_s));
  add(Plan::Select(Gt(Attr(1), Lit(int64_t{3})), scan_r));
  add(Plan::Unique(Plan::ProjectIndexes({0}, scan_r).value()));
  add(Plan::GroupBy({0}, {{AggKind::kSum, 1, ""}, {AggKind::kCnt, 0, ""}},
                    scan_r));
  // A deeper composite: Γ(δ(σ(join))).
  auto join = Plan::Join(Eq(Attr(1), Attr(2)), scan_r, scan_s);
  ASSERT_OK(join);
  auto sel = Plan::Select(Le(Attr(0), Lit(int64_t{6})), *join);
  ASSERT_OK(sel);
  auto uniq = Plan::Unique(*sel);
  ASSERT_OK(uniq);
  add(Plan::GroupBy({0}, {{AggKind::kMax, 3, ""}}, *uniq));

  for (const PlanPtr& plan : plans) {
    auto reference = EvaluatePlan(*plan, catalog);
    auto physical = ExecutePlan(plan, catalog);
    ASSERT_OK(reference);
    ASSERT_OK(physical);
    EXPECT_REL_EQ(*physical, *reference) << plan->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecAgreementTest,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

// --- Operator lifecycle contract (enforced by the base wrappers). ---

TEST(OperatorContractTest, CloseWithoutOpenIsANoOp) {
  Relation r = IntRel("r", {{1}}, 1);
  ScanOp scan(&r);
  scan.Close();  // Never opened: must not crash or touch resources.
  scan.Close();
}

TEST(OperatorContractTest, DoubleCloseIsSafe) {
  Relation a = IntRel("a", {{1}, {2}}, 1);
  Relation b = IntRel("b", {{2}, {3}}, 1);
  // An operator holding a built key set: the second Close must not
  // double-free.
  BagCountOp op(BagFn::kIntersect, std::make_unique<ScanOp>(&a),
                std::make_unique<ScanOp>(&b));
  ASSERT_OK(op.Open());
  op.Close();
  op.Close();
  op.Close();
}

TEST(OperatorContractTest, ReopenAfterCloseRestartsTheStream) {
  Relation r = IntRel("r", {{1}, {2}}, 1);
  ScanOp scan(&r);
  auto first = ExecuteToRelation(scan);
  ASSERT_OK(first);
  auto second = ExecuteToRelation(scan);
  ASSERT_OK(second);
  EXPECT_REL_EQ(*second, *first);
  // Metrics reset on reopen: counts reflect the second run only.
  EXPECT_EQ(scan.metrics().weighted_rows, r.size());
}

TEST(OperatorContractTest, CloseMidStreamReleasesCleanly) {
  Relation a = IntRel("a", {{1}, {2}, {3}}, 1);
  Relation b = IntRel("b", {{1}, {2}, {3}}, 1);
  HashJoinOp op({0}, {0}, nullptr, std::make_unique<ScanOp>(&a),
                std::make_unique<ScanOp>(&b));
  ASSERT_OK(op.Open());
  RowBatch one(1);
  ASSERT_OK(op.NextBatch(one));
  EXPECT_EQ(one.size(), 1u);
  op.Close();  // Build table freed with the stream half-drained.
  op.Close();
  EXPECT_EQ(op.metrics().peak_hash_entries, 3u);
}

// --- Projecting scan: π over a stored relation fused into the leaf. ------

// π_columns through the projecting scan at every batch size, against the
// definitional ops::Project.
void ExpectProjectingScanMatches(const Relation& r,
                                 const std::vector<size_t>& columns) {
  std::vector<ExprPtr> exprs;
  for (size_t c : columns) exprs.push_back(Attr(c));
  auto expected = ops::Project(exprs, r);
  ASSERT_OK(expected);
  auto schema = r.schema().Project(columns);
  ASSERT_OK(schema);
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    ScanOp scan(&r, columns, *schema);
    EXPECT_EQ(scan.schema().arity(), columns.size());
    auto got = ExecuteToRelation(scan, batch_size);
    ASSERT_OK(got);
    EXPECT_REL_EQ(*got, *expected) << "batch size " << batch_size;
    EXPECT_EQ(scan.metrics().weighted_rows, r.size());
  }
}

TEST(ProjectingScanTest, ReorderedAndRepeatedAttributesMatchProject) {
  std::mt19937_64 rng(41);
  Relation r = RandomIntRelation(rng, 4, 200, 6, 4);
  ExpectProjectingScanMatches(r, {2, 0});
  ExpectProjectingScanMatches(r, {3, 3, 1, 3});
  ExpectProjectingScanMatches(r, {0, 1, 2, 3});
  ExpectProjectingScanMatches(r, {1});
}

TEST(ProjectingScanTest, CollapsedTuplesAddTheirCountsOnceFolded) {
  // (1, 10) x3, (1, 20) x2 and (1, 30) x1 all project to (1): the scan
  // emits three rows, and folding them gives (1) x6 — not x3, not x1.
  Relation r = IntRel("r", {{1, 10}, {1, 10}, {1, 10}, {1, 20}, {1, 20},
                            {1, 30}, {2, 10}},
                      2);
  ExpectProjectingScanMatches(r, {0});
  auto schema = r.schema().Project({0});
  ASSERT_OK(schema);
  ScanOp scan(&r, {0}, *schema);
  auto got = ExecuteToRelation(scan);
  ASSERT_OK(got);
  EXPECT_EQ(got->Multiplicity(IntTuple({1})), 6u);
  EXPECT_EQ(got->Multiplicity(IntTuple({2})), 1u);
  EXPECT_EQ(scan.metrics().rows_emitted, 4u);  // One row per stored tuple.
}

TEST(ProjectingScanTest, EmptyRelation) {
  Relation r = IntRel("r", {}, 3);
  ExpectProjectingScanMatches(r, {2, 0, 2});
}

TEST(ProjectingScanTest, PlannerFusesAttributeOnlyProjectionOverAScan) {
  Catalog catalog;
  std::mt19937_64 rng(43);
  Relation r = RandomIntRelation(rng, 3, 80, 5, 3);
  ASSERT_OK(catalog.CreateRelation(r.schema()));
  ASSERT_OK(catalog.SetRelation("rnd", r));
  PlanPtr scan = Plan::Scan("rnd", r.schema());

  auto fused = Plan::Project({Attr(2), Attr(0), Attr(2)}, scan);
  ASSERT_OK(fused);
  auto op = LowerPlan(*fused, catalog);
  ASSERT_OK(op);
  EXPECT_EQ((*op)->name(), "Scan");
  EXPECT_TRUE((*op)->children().empty());
  EXPECT_EQ((*op)->annotation(), "project: %3, %1, %3");
  EXPECT_TRUE((*op)->schema().CompatibleWith((*fused)->schema()));
  auto got = ExecuteToRelation(**op);
  ASSERT_OK(got);
  EXPECT_REL_EQ(*got, *ops::ProjectIndexes({2, 0, 2}, r));

  // A computed expression, or a π over anything but a scan, keeps Compute.
  auto computed = Plan::Project({Add(Attr(0), Attr(1))}, scan);
  ASSERT_OK(computed);
  auto op2 = LowerPlan(*computed, catalog);
  ASSERT_OK(op2);
  EXPECT_EQ((*op2)->name(), "Compute");
  auto filtered = Plan::Select(Ge(Attr(0), Lit(int64_t{2})), scan);
  ASSERT_OK(filtered);
  auto over_filter = Plan::Project({Attr(1)}, *filtered);
  ASSERT_OK(over_filter);
  auto op3 = LowerPlan(*over_filter, catalog);
  ASSERT_OK(op3);
  EXPECT_EQ((*op3)->name(), "Compute");
}

TEST(ProjectingScanTest, ExplainAnalyzeShowsTheFusedScansRows) {
  auto db = std::move(Database::Open({}).value());
  lang::Interpreter interp(db.get());
  ASSERT_OK(interp.ExecuteScript(
      "create r(a: int, b: int, c: int);"
      "insert(r, {(1, 2, 3) : 2, (4, 2, 6), (7, 8, 9) : 3});",
      nullptr));
  auto text = interp.ExplainAnalyze("project([%2], r)");
  ASSERT_OK(text);
  EXPECT_EQ(text->find("Compute"), std::string::npos) << *text;
  EXPECT_NE(text->find("Scan  [project: %2]"), std::string::npos) << *text;
  EXPECT_NE(text->find("actual rows=3 weighted=6"), std::string::npos)
      << *text;
  auto result = interp.Query("project([%2], r)");
  ASSERT_OK(result);
  EXPECT_EQ(result->Multiplicity(IntTuple({2})), 3u);
  EXPECT_EQ(result->Multiplicity(IntTuple({8})), 3u);
}

TEST(OperatorContractTest, EstimateAnnotationDefaultsToUnset) {
  Relation r = IntRel("r", {{1}}, 1);
  ScanOp scan(&r);
  EXPECT_LT(scan.estimated_rows(), 0.0);
  scan.set_estimated_rows(17.0);
  EXPECT_DOUBLE_EQ(scan.estimated_rows(), 17.0);
}

}  // namespace
}  // namespace exec
}  // namespace mra
