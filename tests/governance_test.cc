// Query lifecycle governance (docs/GOVERNANCE.md): cooperative
// cancellation, in-plan statement deadlines, and per-query memory budgets.
//
// Covers the ExecContext contract directly, then the interpreter-level
// behavior: kills land with the right distinct status (kCancelled /
// kDeadlineExceeded / kResourceExhausted), within a batch boundary, at
// every batch size, for every operator kind; a killed transaction bracket
// leaves the database exactly as if the script never ran; charged memory
// is fully released; the exec.*_total counters and the slow-log
// "killed:<reason>" tag fire.  The deterministic cancel points use the
// exec.cancel.{open,batch,close} failpoints.

#include "mra/exec/exec_context.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "mra/algebra/ops.h"
#include "mra/catalog/catalog.h"
#include "mra/exec/hash_ops.h"
#include "mra/exec/operator.h"
#include "mra/exec/physical_planner.h"
#include "mra/exec/sort.h"
#include "mra/fault/failpoint.h"
#include "mra/lang/interpreter.h"
#include "mra/lang/parser.h"
#include "mra/obs/metrics.h"
#include "mra/obs/slow_log.h"
#include "mra/obs/trace.h"
#include "mra/txn/database.h"

namespace mra {
namespace exec {
namespace {

class GovernanceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::FaultRegistry::Global().DisarmAll();
    obs::SlowQueryLog::Global().SetThresholdMs(-1);
    obs::SlowQueryLog::Global().Clear();
  }
};

// --- ExecContext unit contract. -----------------------------------------

TEST_F(GovernanceTest, UngovernedContextAlwaysPasses) {
  ExecContext ctx;
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_FALSE(ctx.killed());
  EXPECT_EQ(ctx.kill_reason(), KillReason::kNone);
  EXPECT_TRUE(ctx.KillStatus().ok());
}

TEST_F(GovernanceTest, RequestCancelTripsWithCancelledStatus) {
  ExecContext ctx;
  ctx.set_query_id(42);
  ctx.RequestCancel();
  EXPECT_TRUE(ctx.killed());
  EXPECT_EQ(ctx.kill_reason(), KillReason::kCancelled);
  Status s = ctx.Check();
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_NE(s.message().find("42"), std::string::npos);
}

TEST_F(GovernanceTest, FirstKillReasonWins) {
  ExecContext ctx;
  ctx.SetMemoryBudget(10);
  ctx.RequestCancel();
  // The over-budget charge lands after the cancel; the reason must not
  // be overwritten (first-wins), and the status stays kCancelled.
  Status charge = ctx.Charge(1000, "Dedup");
  EXPECT_EQ(ctx.kill_reason(), KillReason::kCancelled);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
  (void)charge;
}

TEST_F(GovernanceTest, ChargeOverBudgetTripsNamingOperatorAndHighWater) {
  ExecContext ctx;
  ctx.set_query_id(7);
  ctx.SetMemoryBudget(1000);
  EXPECT_TRUE(ctx.Charge(600, "HashJoin").ok());
  EXPECT_EQ(ctx.mem_used(), 600u);
  Status s = ctx.Charge(600, "HashGroupBy");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.kill_reason(), KillReason::kMemory);
  EXPECT_NE(s.message().find("HashGroupBy"), std::string::npos);
  EXPECT_NE(s.message().find("1200"), std::string::npos);  // High water.
  EXPECT_NE(s.message().find("1000"), std::string::npos);  // Budget.
  // Releasing everything floors at zero and keeps the high-water mark.
  ctx.Release(600);
  ctx.Release(9999);
  EXPECT_EQ(ctx.mem_used(), 0u);
  EXPECT_EQ(ctx.mem_high_water(), 1200u);
}

TEST_F(GovernanceTest, PlannedRowsFollowTheEstimateOnlyWithoutABudget) {
  EXPECT_EQ(PlannedRows(-1.0, nullptr), 0u);
  EXPECT_EQ(PlannedRows(0.5, nullptr), 0u);
  EXPECT_EQ(PlannedRows(99.2, nullptr), 100u);
  EXPECT_EQ(PlannedRows(99.2, nullptr, 64), 64u);
  EXPECT_EQ(PlannedRows(1e12, nullptr), kMaxPlannedRows);
  ExecContext open;
  EXPECT_EQ(PlannedRows(99.2, &open), 100u);
  // Under an armed budget a plan grows as if unestimated.
  ExecContext governed;
  governed.SetMemoryBudget(uint64_t{1} << 30);
  EXPECT_EQ(PlannedRows(99.2, &governed), 0u);
  EXPECT_EQ(governed.mem_used(), 0u);
}

TEST_F(GovernanceTest, DeadlineInThePastKillsAtFirstCheck) {
  ExecContext ctx;
  ctx.set_query_id(9);
  ctx.SetDeadlineAfterMs(1);
  // Busy-wait past the deadline; 1ms is well under test patience.
  auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  while (std::chrono::steady_clock::now() < until) {
  }
  Status s = ctx.Check();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctx.kill_reason(), KillReason::kDeadline);
  EXPECT_NE(s.message().find("1ms"), std::string::npos);
}

TEST_F(GovernanceTest, CancelTokenIsObservedByCheck) {
  ExecContext ctx;
  auto token = std::make_shared<std::atomic<bool>>(false);
  ctx.SetCancelToken(token);
  EXPECT_TRUE(ctx.Check().ok());
  token->store(true);  // What a SIGINT handler would do.
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

TEST_F(GovernanceTest, KillReasonNamesAreStable) {
  EXPECT_EQ(KillReasonName(KillReason::kNone), "none");
  EXPECT_EQ(KillReasonName(KillReason::kCancelled), "cancelled");
  EXPECT_EQ(KillReasonName(KillReason::kDeadline), "deadline");
  EXPECT_EQ(KillReasonName(KillReason::kMemory), "mem_budget");
}

// --- Interpreter-level governance. --------------------------------------

// Seeds r (60 distinct 2-int tuples, some with multiplicity) and s (a
// second relation for joins), plus an empty tally for the differential
// test.  Big enough that products/joins cross many batch boundaries.
std::unique_ptr<Database> MakeDb() {
  auto db = std::move(Database::Open({}).value());
  lang::Interpreter interp(db.get());
  std::string script =
      "create r(a: int, b: int); create s(b: int, c: int);"
      "create tally(n: int);";
  script += "insert(r, {";
  for (int i = 0; i < 60; ++i) {
    script += (i ? "," : "") + std::string("(") + std::to_string(i) + "," +
              std::to_string(i % 7) + ")" + (i % 5 == 0 ? " : 2" : "");
  }
  script += "});";
  script += "insert(s, {";
  for (int i = 0; i < 60; ++i) {
    script += (i ? "," : "") + std::string("(") + std::to_string(i % 7) +
              "," + std::to_string(i) + ")";
  }
  script += "});";
  Status s = interp.ExecuteScript(script, nullptr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return db;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

// Every operator kind the planner can emit for these queries, each killed
// by the exec.cancel.batch failpoint at batch sizes 1, 7 and 1024, with the
// hash kernels on one lane and on four: the kill must surface as
// kCancelled, and with the failpoint disarmed the very same query must
// succeed (no poisoned state left behind).
TEST_F(GovernanceTest, BatchBoundaryCancelKillsEveryOperatorKind) {
  auto db = MakeDb();
  const char* queries[] = {
      "r",                                  // Scan
      "select(%1 > 10, r)",                 // Filter
      "project([%1], r)",                   // Scan (projecting)
      "project([%1], select(%1 > 10, r))",  // Compute
      "unique(project([%2], r))",           // Dedup (hash)
      "union(r, r)",                        // Union
      "diff(r, r)",                         // Difference
      "intersect(r, r)",                    // Intersect
      "product(r, s)",                      // NestedLoopJoin (product)
      "join(%2 = %3, r, s)",                // HashJoin (equi)
      "join(%2 < %3, r, s)",                // NestedLoopJoin (theta)
      "groupby([%2], cnt(%1), r)",          // HashGroupBy
  };
  for (size_t workers : {size_t{1}, size_t{4}}) {
    for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
      ExecConfig options;
      options.exec.batch_size = batch;
      options.exec.workers = workers;
      options.exec.parallel_threshold = 0;
      lang::Interpreter interp(db.get(), options);
      for (const char* q : queries) {
        uint64_t cancelled_before = CounterValue("exec.cancelled_total");
        ASSERT_TRUE(fault::FaultRegistry::Global()
                        .ConfigureFromSpec("exec.cancel.batch=error")
                        .ok());
        auto killed = interp.Query(q);
        fault::FaultRegistry::Global().DisarmAll();
        ASSERT_FALSE(killed.ok())
            << q << " survived an armed cancel (batch=" << batch
            << ", workers=" << workers << ")";
        EXPECT_EQ(killed.status().code(), StatusCode::kCancelled) << q;
        EXPECT_EQ(CounterValue("exec.cancelled_total"), cancelled_before + 1);
        auto clean = interp.Query(q);
        EXPECT_TRUE(clean.ok())
            << q << " failed after disarm: " << clean.status().ToString();
      }
    }
  }
}

TEST_F(GovernanceTest, CancelAtOpenUnwindsTheWholeTree) {
  auto db = MakeDb();
  lang::Interpreter interp(db.get());
  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .ConfigureFromSpec("exec.cancel.open=error")
                  .ok());
  auto killed = interp.Query("join(%2 = %3, unique(r), s)");
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kCancelled);
  fault::FaultRegistry::Global().DisarmAll();
  EXPECT_TRUE(interp.Query("join(%2 = %3, unique(r), s)").ok());
}

TEST_F(GovernanceTest, CancelAtCloseIsTooLateToAffectTheResult) {
  auto db = MakeDb();
  lang::Interpreter interp(db.get());
  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .ConfigureFromSpec("exec.cancel.close=error")
                  .ok());
  // Close() never fails: a cancel landing there only marks the context,
  // after the result has already been drained.
  auto result = interp.Query("unique(project([%2], r))");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST_F(GovernanceTest, StatementTimeoutKillsWithDeadlineExceeded) {
  auto db = MakeDb();
  ExecConfig options;
  options.governance.statement_timeout_ms = 1;
  lang::Interpreter interp(db.get(), options);
  uint64_t before = CounterValue("exec.deadline_exceeded_total");
  // 60^3 = 216k product rows plus a dedup build: far past 1ms.
  auto killed = interp.Query("unique(product(r, product(r, r)))");
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(killed.status().message().find("statement timeout"),
            std::string::npos);
  EXPECT_EQ(CounterValue("exec.deadline_exceeded_total"), before + 1);
  // The interpreter is reusable after a deadline kill.  The follow-up runs
  // with the timeout off: even a 60-row selection takes over 1 ms end to
  // end (bind, optimize, lower, run) in an unoptimised sanitizer build.
  ASSERT_TRUE(interp.SetOption("statement_timeout_ms", "0").ok());
  auto follow_up = interp.Query("select(%1 > 50, r)");
  EXPECT_TRUE(follow_up.ok()) << follow_up.status().ToString();
}

TEST_F(GovernanceTest, MemoryBudgetKillsWithResourceExhausted) {
  auto db = MakeDb();
  ExecConfig options;
  options.governance.query_mem_budget_bytes = 4 * 1024;  // Far below the build size.
  lang::Interpreter interp(db.get(), options);
  uint64_t before = CounterValue("exec.mem_rejected_total");
  auto killed = interp.Query("unique(product(r, s))");
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(killed.status().message().find("budget"), std::string::npos);
  EXPECT_EQ(CounterValue("exec.mem_rejected_total"), before + 1);
  // Small queries fit the same budget; the interpreter is reusable.
  auto small = interp.Query("select(%1 > 58, r)");
  EXPECT_TRUE(small.ok()) << small.status().ToString();
}

TEST_F(GovernanceTest, DifferenceOfABigBagHoldsOnlyTheSmallRhsKeySet) {
  // diff(big, small) under a budget that one copy of `big` alone exceeds
  // (20,000 rows, over 100 bytes each): − keeps one key set of the
  // 64-row rhs and streams `big` against it, so it completes and hands
  // every charged byte back.
  RelationSchema schema("big", {{"k", Type::Int()}, {"v", Type::Int()}});
  Relation big(schema);
  for (int64_t i = 0; i < 20000; ++i) {
    big.InsertUnchecked(Tuple({Value::Int(i), Value::Int(i % 7)}),
                        1 + static_cast<uint64_t>(i % 3));
  }
  Relation small(RelationSchema("small", schema.attributes()));
  for (int64_t i = 0; i < 64; ++i) {
    small.InsertUnchecked(Tuple({Value::Int(i * 5), Value::Int(i * 5 % 7)}),
                          2);
  }
  Catalog catalog;
  for (const Relation* rel : {&big, &small}) {
    ASSERT_TRUE(catalog.CreateRelation(rel->schema()).ok());
    ASSERT_TRUE(catalog.SetRelation(rel->schema().name(), *rel).ok());
  }
  auto plan = Plan::Difference(Plan::Scan("big", big.schema()),
                               Plan::Scan("small", small.schema()));
  ASSERT_TRUE(plan.ok());
  ExecContext ctx;
  ctx.SetMemoryBudget(64 * 1024);
  auto op = LowerPlan(*plan, catalog, nullptr, ExecConfig{}, &ctx);
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  auto got = ExecuteToRelation(**op);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->Equals(*ops::Difference(big, small)));
  EXPECT_EQ(ctx.mem_used(), 0u);
}

// ops::Join(cond, left, right) for a `cond` that implies the int keys
// left[left_key] and right[right_key] are equal, computed as the ⊎ over
// each key value v of ops::Join over the rows whose key is v: ⋈ on the
// key distributes over a ⊎-split of its inputs by that key, and rows with
// different keys never join, so the union is exactly the full join, at
// Σ_v |L_v|·|R_v| predicate evaluations instead of |L|·|R|.
Result<Relation> EquiJoinOracle(const ExprPtr& cond, const Relation& left,
                                size_t left_key, const Relation& right,
                                size_t right_key) {
  std::map<int64_t, std::pair<Relation, Relation>> by_key;
  for (const auto& [tuple, count] : left) {
    by_key.try_emplace(tuple.at(left_key).int_value(), left.schema(),
                       right.schema())
        .first->second.first.InsertUnchecked(tuple, count);
  }
  for (const auto& [tuple, count] : right) {
    auto it = by_key.find(tuple.at(right_key).int_value());
    if (it != by_key.end()) it->second.second.InsertUnchecked(tuple, count);
  }
  Relation out(left.schema().Concat(right.schema()));
  for (const auto& [key, parts] : by_key) {
    MRA_ASSIGN_OR_RETURN(Relation joined,
                         ops::Join(cond, parts.first, parts.second));
    for (const auto& [tuple, count] : joined) {
      out.InsertUnchecked(tuple, count);
    }
  }
  return out;
}

TEST_F(GovernanceTest, JoinBuildOverBudgetWithItsValuesSpillsItsBuild) {
  // A 4,000-row, four-int build side under a budget that its hash arena
  // alone (Row structs, chain links, index words) fits but its rows with
  // their values do not.  A 4-lane hash join charges those values while it
  // stages the build rows; its build spills past half the budget, so it
  // completes within the budget instead of being killed.
  const int64_t n = 4000;
  RelationSchema build_schema("build", {{"k", Type::Int()},
                                        {"a", Type::Int()},
                                        {"b", Type::Int()},
                                        {"c", Type::Int()}});
  RelationSchema probe_schema("probe",
                              {{"k", Type::Int()}, {"v", Type::Int()}});
  Relation build(build_schema);
  for (int64_t i = 0; i < n; ++i) {
    build.InsertUnchecked(Tuple({Value::Int(i), Value::Int(i % 5),
                                 Value::Int(i % 7), Value::Int(i % 11)}),
                          1);
  }
  Relation probe(probe_schema);
  for (int64_t i = 0; i < n / 2; ++i) {
    probe.InsertUnchecked(Tuple({Value::Int(2 * i), Value::Int(i % 3)}), 1);
  }
  Catalog catalog;
  for (const Relation* rel : {&build, &probe}) {
    ASSERT_TRUE(catalog.CreateRelation(rel->schema()).ok());
    ASSERT_TRUE(catalog.SetRelation(rel->schema().name(), *rel).ok());
  }
  const uint64_t rows = static_cast<uint64_t>(n);
  const uint64_t arena =
      HashJoinOp::ArenaBytes(rows, rows, TagIndex::CapacityFor(rows));
  const uint64_t staged = rows * (sizeof(Row) + 4 * sizeof(Value));
  const uint64_t budget = (arena + staged) / 2;
  ASSERT_LT(arena, budget);
  ASSERT_LT(budget, staged);

  ExprPtr cond = Eq(Attr(0), Attr(2));
  auto plan = Plan::Join(cond, Plan::Scan("probe", probe_schema),
                         Plan::Scan("build", build_schema));
  ASSERT_TRUE(plan.ok());
  ExecConfig config;
  config.exec.workers = 4;
  config.exec.parallel_threshold = 1;
  config.governance.query_mem_budget_bytes = budget;
  const CardinalityEstimator estimate = [&](const Plan& p) {
    const bool is_probe =
        p.kind() == PlanKind::kScan && p.relation_name() == "probe";
    return static_cast<double>((is_probe ? probe : build).size());
  };
  ExecContext ctx;
  ctx.SetMemoryBudget(budget);
  auto op = LowerPlan(*plan, catalog, &estimate, config, &ctx);
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  ASSERT_EQ((*op)->name(), "HashJoin");
  auto got = ExecuteToRelation(**op);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto expected = EquiJoinOracle(cond, probe, 0, build, 0);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_TRUE(got->Equals(*expected));
  EXPECT_GT(static_cast<HashJoinOp&>(**op).spilled_chunks(), 1u);
  EXPECT_LE(ctx.mem_high_water(), budget);
  EXPECT_EQ(ctx.mem_used(), 0u);
}

TEST_F(GovernanceTest, JoinChargesItsBuildRowsValuesOnEveryLaneCount) {
  // A build side of long strings: every held build row is charged its Row
  // and its values, on one lane (the arena) as on two (the staged rows,
  // then the partition arenas).
  RelationSchema schema("wide", {{"k", Type::Int()}, {"s", Type::String()}});
  Relation build(schema);
  Relation probe(schema);
  uint64_t build_bytes = 0;
  for (int64_t i = 0; i < 400; ++i) {
    Tuple row({Value::Int(i), Value::Str(std::string(300, 'a' + i % 26))});
    build_bytes += sizeof(Row) + row.HeapBytes();
    build.InsertUnchecked(row, 1);
    probe.InsertUnchecked(Tuple({Value::Int(i), Value::Str("p")}), 1);
  }
  auto expected = ops::Join(Eq(Attr(0), Attr(2)), probe, build);
  ASSERT_TRUE(expected.ok());
  for (size_t workers : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    HashJoinOp join({0}, {0}, nullptr, std::make_unique<ScanOp>(&probe),
                    std::make_unique<ScanOp>(&build), workers);
    ExecContext ctx;
    join.SetExecContext(&ctx);
    auto got = ExecuteToRelation(join);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->Equals(*expected));
    EXPECT_EQ(join.metrics().workers, workers);
    EXPECT_GE(ctx.mem_high_water(), build_bytes);
    EXPECT_EQ(ctx.mem_used(), 0u);
  }
}

// A join drained through NextBatch on 2 and 4 lanes streams its probe as
// it does on one: under a budget that fits its build but not its output,
// an output 100x its build rows completes and hands every byte back.
TEST_F(GovernanceTest, MultiLaneJoinDrainedByNextBatchHoldsOnlyItsBuild) {
  RelationSchema build_schema("build",
                              {{"k", Type::Int()}, {"a", Type::Int()}});
  RelationSchema probe_schema("probe",
                              {{"k", Type::Int()}, {"v", Type::Int()}});
  Relation build(build_schema);
  Relation probe(probe_schema);
  for (int64_t i = 0; i < 200; ++i) {
    build.InsertUnchecked(Tuple({Value::Int(i % 20), Value::Int(i)}), 1);
  }
  for (int64_t i = 0; i < 2000; ++i) {
    probe.InsertUnchecked(Tuple({Value::Int(i % 20), Value::Int(i)}), 1);
  }
  auto expected = ops::Join(Eq(Attr(0), Attr(2)), probe, build);
  ASSERT_TRUE(expected.ok());
  ASSERT_GE(expected->size(), 10 * build.size());
  auto make_join = [&](size_t workers) {
    return HashJoinOp({0}, {0}, nullptr, std::make_unique<ScanOp>(&probe),
                      std::make_unique<ScanOp>(&build), workers,
                      /*morsel_size=*/64);
  };
  // One lane holds the build alone; its multi-lane staging holds at most
  // the same rows again beside the arenas.
  HashJoinOp one = make_join(1);
  ExecContext measure;
  one.SetExecContext(&measure);
  ASSERT_TRUE(ExecuteToRelation(one).ok());
  const uint64_t budget = 4 * measure.mem_high_water();
  const uint64_t output_bytes =
      expected->size() * (sizeof(Row) + 4 * sizeof(Value));
  ASSERT_LT(budget, output_bytes);
  for (size_t workers : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    HashJoinOp join = make_join(workers);
    ExecContext ctx;
    ctx.SetMemoryBudget(budget);
    join.SetExecContext(&ctx);
    auto got = ExecuteToRelation(join);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (got.ok()) {
      EXPECT_TRUE(got->Equals(*expected));
    }
    EXPECT_EQ(join.metrics().workers, workers);
    EXPECT_LE(ctx.mem_high_water(), budget);
    EXPECT_EQ(ctx.mem_used(), 0u);
  }
}

// A plan whose every node is estimated at 100x its actual rows, under a
// budget between its actual footprint and the footprint its estimates
// would reserve: a governed plan reserves nothing, so it completes with
// the oracle's bag and hands every byte back.  The same plan
// under-estimated grows past its reservations correctly.
TEST_F(GovernanceTest, MisestimatedPlanCompletesUnderABudget) {
  RelationSchema build_schema("build",
                              {{"k", Type::Int()}, {"a", Type::Int()}});
  RelationSchema probe_schema("probe",
                              {{"k", Type::Int()}, {"v", Type::Int()}});
  Relation build(build_schema);
  Relation probe(probe_schema);
  for (int64_t i = 0; i < 200; ++i) {
    build.InsertUnchecked(Tuple({Value::Int(i), Value::Int(i % 9)}), 1);
    probe.InsertUnchecked(Tuple({Value::Int(i), Value::Int(i % 4)}), 2);
  }
  Catalog catalog;
  for (const Relation* rel : {&build, &probe}) {
    ASSERT_TRUE(catalog.CreateRelation(rel->schema()).ok());
    ASSERT_TRUE(catalog.SetRelation(rel->schema().name(), *rel).ok());
  }
  ExprPtr cond = Eq(Attr(0), Attr(2));
  auto join = Plan::Join(cond, Plan::Scan("probe", probe_schema),
                         Plan::Scan("build", build_schema));
  ASSERT_TRUE(join.ok());
  auto unique = Plan::Unique(*join);
  ASSERT_TRUE(unique.ok());
  auto plan = Plan::Sort({3, 0}, {false, true}, 0, *unique);
  ASSERT_TRUE(plan.ok());
  auto oracle = ops::Join(cond, probe, build);
  ASSERT_TRUE(oracle.ok());
  auto expected = ops::Unique(*oracle);
  ASSERT_TRUE(expected.ok());
  // Every node holds at most 400 weighted rows.
  auto estimate_at = [](double rows) {
    return CardinalityEstimator([rows](const Plan&) { return rows; });
  };
  for (size_t workers : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExecConfig config;
    config.exec.workers = workers;
    config.exec.parallel_threshold = 1;
    // Runs the plan under `estimate` and a budget (0 = none); returns the
    // charged high-water mark.
    auto run = [&](double rows, uint64_t budget) -> uint64_t {
      const CardinalityEstimator estimate = estimate_at(rows);
      ExecContext ctx;
      ctx.SetMemoryBudget(budget);
      auto op = LowerPlan(*plan, catalog, &estimate, config, &ctx);
      EXPECT_TRUE(op.ok()) << op.status().ToString();
      if (!op.ok()) return 0;
      EXPECT_EQ((*op)->name(), "Sort");
      auto got = ExecuteToRelation(**op);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      if (got.ok()) EXPECT_TRUE(got->Equals(*expected));
      EXPECT_EQ(ctx.mem_used(), 0u);
      return ctx.mem_high_water();
    };
    const uint64_t actual = run(400, 0);
    const uint64_t reserved = run(40000, 0);
    const uint64_t budget = 4 * actual;
    ASSERT_LT(budget, reserved);
    EXPECT_LE(run(40000, budget), budget);
    EXPECT_LE(run(1, budget), budget);
    run(1, 0);
  }
}

// A Sort over a hash join whose build takes nearly all of the budget,
// every node estimated at 100x its rows: the Sort above the join and the
// join itself reserve nothing under the budget, so a budget just above
// the unestimated plan's high-water mark still completes it.
TEST_F(GovernanceTest, SortOverOverEstimatedJoinFitsTheUnestimatedBudget) {
  RelationSchema build_schema("build",
                              {{"k", Type::Int()}, {"s", Type::String()}});
  RelationSchema probe_schema("probe",
                              {{"k", Type::Int()}, {"v", Type::Int()}});
  Relation build(build_schema);
  Relation probe(probe_schema);
  for (int64_t i = 0; i < 2000; ++i) {
    build.InsertUnchecked(
        Tuple({Value::Int(i), Value::Str(std::string(200, 'a' + i % 26))}),
        1);
    probe.InsertUnchecked(Tuple({Value::Int(i * 20), Value::Int(i)}), 1);
  }
  auto expected = EquiJoinOracle(Eq(Attr(0), Attr(2)), probe, 0, build, 0);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), 100u);
  for (size_t workers : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    // Runs Sort(HashJoin) with every node estimated at `scale` times its
    // rows (0 = no estimates) under `budget`; returns the high-water mark.
    auto run = [&](double scale, uint64_t budget) -> uint64_t {
      auto probe_scan = std::make_unique<ScanOp>(&probe);
      auto build_scan = std::make_unique<ScanOp>(&build);
      if (scale > 0) {
        probe_scan->set_estimated_rows(scale * 2000);
        build_scan->set_estimated_rows(scale * 2000);
      }
      auto join = std::make_unique<HashJoinOp>(
          std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
          std::move(probe_scan), std::move(build_scan), workers);
      if (scale > 0) join->set_estimated_rows(scale * 100);
      SortOp sort({0}, {false}, 0, 0, std::move(join));
      if (scale > 0) sort.set_estimated_rows(scale * 100);
      ExecContext ctx;
      ctx.SetMemoryBudget(budget);
      sort.SetExecContext(&ctx);
      auto got = ExecuteToRelation(sort);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      if (got.ok()) EXPECT_TRUE(got->Equals(*expected));
      EXPECT_EQ(ctx.mem_used(), 0u);
      return ctx.mem_high_water();
    };
    // Lanes publish their footprints as they go, so on two lanes the
    // high-water mark can move between runs: take the largest of three.
    uint64_t unestimated = 0;
    for (int i = 0; i < 3; ++i) unestimated = std::max(unestimated, run(0, 0));
    const uint64_t budget = unestimated + unestimated / 64;
    EXPECT_LE(run(100, budget), budget);
    EXPECT_LE(run(0, budget), budget);
  }
}

TEST_F(GovernanceTest, KilledBracketLeavesDatabaseAsIfNeverRun) {
  auto db = MakeDb();
  Relation r_before = **db->catalog().GetRelation("r");
  Relation tally_before = **db->catalog().GetRelation("tally");

  ExecConfig options;
  options.governance.query_mem_budget_bytes = 4 * 1024;
  lang::Interpreter interp(db.get(), options);
  // The bracket mutates tally, then dies on the over-budget query: the
  // whole transaction must roll back — the differential guarantee.
  Status s = interp.ExecuteScript(
      "begin insert(tally, {(1), (2)});"
      "      x := unique(product(r, s)); ? x end;",
      nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);

  EXPECT_TRUE(**db->catalog().GetRelation("r") == r_before);
  EXPECT_TRUE(**db->catalog().GetRelation("tally") == tally_before);
  EXPECT_EQ((*db->catalog().GetRelation("tally"))->size(), 0u);
}

TEST_F(GovernanceTest, CancelTokenCancelsLikeCtrlC) {
  auto db = MakeDb();
  ExecConfig options;
  options.governance.cancel_token = std::make_shared<std::atomic<bool>>(false);
  lang::Interpreter interp(db.get(), options);
  // Token down: queries run normally.
  EXPECT_TRUE(interp.Query("r").ok());
  // Token up before the query (a Ctrl-C that lands just as it starts):
  // the first batch-boundary check sees it.
  options.governance.cancel_token->store(true);
  auto killed = interp.Query("unique(product(r, s))");
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kCancelled);
  // The REPL resets the token before the next statement.
  options.governance.cancel_token->store(false);
  EXPECT_TRUE(interp.Query("r").ok());
}

TEST_F(GovernanceTest, CancelQueryAppliesPendingCancelToThatQueryOnly) {
  auto db = MakeDb();
  lang::Interpreter interp(db.get());
  {
    // Cancel-before-open: the id is remembered and kills the matching
    // query the moment it starts.
    obs::ScopedQueryId qid(777001);
    interp.CancelQuery(777001);
    auto killed = interp.Query("r");
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kCancelled);
  }
  {
    // A pending id for a *different* query is stale: it must not leak
    // onto the query that actually runs next.
    obs::ScopedQueryId qid(777002);
    interp.CancelQuery(999999);
    EXPECT_TRUE(interp.Query("r").ok());
  }
  {
    // And it was consumed — the id it named can run later unharmed.
    obs::ScopedQueryId qid(999999);
    EXPECT_TRUE(interp.Query("r").ok());
  }
}

TEST_F(GovernanceTest, SlowLogTagsKillsWithTheReason) {
  auto db = MakeDb();
  // Threshold so high nothing qualifies on latency — only the governed
  // kill forces an entry, carrying the killed:<reason> event tag.
  obs::SlowQueryLog::Global().Clear();
  obs::SlowQueryLog::Global().SetThresholdMs(3'600'000);

  ExecConfig options;
  options.governance.query_mem_budget_bytes = 4 * 1024;
  lang::Interpreter interp(db.get(), options);
  ASSERT_FALSE(interp.Query("unique(product(r, s))").ok());
  std::string lines = obs::SlowQueryLog::Global().RenderJsonLines();
  EXPECT_NE(lines.find("killed:mem_budget"), std::string::npos) << lines;

  obs::SlowQueryLog::Global().Clear();
  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .ConfigureFromSpec("exec.cancel.batch=error")
                  .ok());
  ASSERT_FALSE(interp.Query("r").ok());
  fault::FaultRegistry::Global().DisarmAll();
  lines = obs::SlowQueryLog::Global().RenderJsonLines();
  EXPECT_NE(lines.find("killed:cancelled"), std::string::npos) << lines;
}

// EXPLAIN ANALYZE runs the query pipeline, so a governed kill under it is
// logged like a query's.
TEST_F(GovernanceTest, KilledExplainAnalyzeIsLoggedWithTheReason) {
  auto db = MakeDb();
  obs::SlowQueryLog::Global().Clear();
  obs::SlowQueryLog::Global().SetThresholdMs(3'600'000);
  ExecConfig options;
  options.governance.statement_timeout_ms = 1;
  lang::Interpreter interp(db.get(), options);
  // 60^3 = 216k product rows plus a dedup build: far past 1ms.
  auto killed = interp.ExplainAnalyze("unique(product(r, product(r, r)))");
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kDeadlineExceeded);
  const std::string lines = obs::SlowQueryLog::Global().RenderJsonLines();
  EXPECT_NE(lines.find("killed:deadline"), std::string::npos) << lines;
}

TEST_F(GovernanceTest, SlowLogNamesTheStatementItRecords) {
  // Statements are rendered only when an entry is recorded; the entry
  // still carries the statement's own rendering, and a plain Query its
  // source text.
  auto db = MakeDb();
  obs::SlowQueryLog::Global().Clear();
  obs::SlowQueryLog::Global().SetThresholdMs(0);  // Record everything.
  lang::Interpreter interp(db.get());
  const std::string script = "begin ? select(%1 > 50, r); end";
  auto parsed = lang::ParseScript(script);
  ASSERT_TRUE(parsed.ok());
  const std::string rendered = parsed->items.at(0).stmts.at(0).ToString();
  ASSERT_TRUE(interp.ExecuteScriptCollect(script).ok());
  ASSERT_TRUE(interp.Query("unique(s)").ok());
  std::string lines = obs::SlowQueryLog::Global().RenderJsonLines();
  EXPECT_NE(lines.find("\"source\":\"" + rendered + "\""), std::string::npos)
      << lines;
  EXPECT_NE(lines.find("\"source\":\"unique(s)\""), std::string::npos)
      << lines;
}

TEST_F(GovernanceTest, ExplainAnalyzeIsGovernedPlainExplainIsNot) {
  auto db = MakeDb();
  ExecConfig options;
  options.governance.cancel_token = std::make_shared<std::atomic<bool>>(true);
  lang::Interpreter interp(db.get(), options);
  // `explain analyze` executes the plan for real, so governance applies.
  auto analyzed = interp.ExplainAnalyze("unique(product(r, s))");
  ASSERT_FALSE(analyzed.ok());
  EXPECT_EQ(analyzed.status().code(), StatusCode::kCancelled);
  // Plain `explain` never executes — a raised token must not block it.
  EXPECT_TRUE(interp.Explain("unique(product(r, s))").ok());
}

// --- Spill governance: budget-pressure spill and kill-mid-spill. ---------

// Run files this process's sorts spilled and did not reclaim (both
// published runs and in-flight .tmp files land under the
// mra_sort_<pid>_ prefix).  Only this process's files count: other test
// processes running concurrently spill into the same temp directory.
size_t LeakedRunFiles() {
  const std::string prefix = "mra_sort_" + std::to_string(::getpid()) + "_";
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

TEST_F(GovernanceTest, SortUnderBudgetPressureSpillsInsteadOfDying) {
  // The sort's working set (60×60 product rows) is far past the 64 KiB
  // budget; a materialising operator would be killed with
  // kResourceExhausted — the sort must instead shed runs to disk and
  // complete.  (The budget still fits the product's own build side.)
  auto db = MakeDb();
  ExecConfig options;
  options.governance.query_mem_budget_bytes = 64 * 1024;
  lang::Interpreter interp(db.get(), options);
  auto analyzed = interp.ExplainAnalyze("sort([%1, -%3], product(r, s))");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("spill:"), std::string::npos) << *analyzed;
  EXPECT_EQ(LeakedRunFiles(), 0u);
}

TEST_F(GovernanceTest, KillMidSpillCleansUpRunFilesAndBudget) {
  // Each failpoint interrupts the spill at a different stage: creating a
  // run (write), publishing it (rename), and re-reading it during the
  // merge (read).  Every stage must unwind to zero run files and zero
  // charged bytes, and the same query must succeed once disarmed.
  auto db = MakeDb();
  const Relation& r = **db->catalog().GetRelation("r");
  for (const char* spec : {"sort.spill.write=error", "sort.spill.rename=error",
                           "sort.spill.read=error"}) {
    size_t files_before = LeakedRunFiles();
    ExecContext ctx;
    ctx.SetMemoryBudget(2048);  // Arms the budget-derived spill threshold.
    SortOp op({0}, {false}, 0, 0, std::make_unique<ScanOp>(&r));
    op.SetExecContext(&ctx);
    ASSERT_TRUE(
        fault::FaultRegistry::Global().ConfigureFromSpec(spec).ok());
    auto killed = ExecuteToRelation(op, 1024);
    fault::FaultRegistry::Global().DisarmAll();
    ASSERT_FALSE(killed.ok()) << spec << " did not fire";
    EXPECT_EQ(LeakedRunFiles(), files_before) << spec << " leaked run files";
    EXPECT_EQ(ctx.mem_used(), 0u) << spec << " leaked charged bytes";
    // Clean retry on the very same operator: no poisoned state.
    auto clean = ExecuteToRelation(op, 1024);
    ASSERT_TRUE(clean.ok()) << spec << ": " << clean.status().ToString();
    EXPECT_TRUE(clean->Equals(r));
    EXPECT_EQ(LeakedRunFiles(), files_before);
  }
}

TEST_F(GovernanceTest, KillMidSpillThroughTheInterpreterIsReusable) {
  auto db = MakeDb();
  ExecConfig options;
  options.exec.sort_spill_bytes = 64;
  lang::Interpreter interp(db.get(), options);
  size_t files_before = LeakedRunFiles();
  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .ConfigureFromSpec("sort.spill.write=error")
                  .ok());
  auto killed = interp.Query("sort([-%2], r)");
  fault::FaultRegistry::Global().DisarmAll();
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(LeakedRunFiles(), files_before);
  auto clean = interp.Query("sort([-%2], r)");
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(LeakedRunFiles(), files_before);
}

TEST_F(GovernanceTest, CancelLandsInsideASpillingSort) {
  // The cooperative cancel must also reach the spill path (the sort drains
  // its child batch-by-batch, so the batch failpoint fires mid-buffering).
  auto db = MakeDb();
  ExecConfig options;
  options.exec.sort_spill_bytes = 64;
  lang::Interpreter interp(db.get(), options);
  size_t files_before = LeakedRunFiles();
  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .ConfigureFromSpec("exec.cancel.batch=error")
                  .ok());
  auto killed = interp.Query("sort([%1], product(r, s))");
  fault::FaultRegistry::Global().DisarmAll();
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(LeakedRunFiles(), files_before);
}

// --- Join spill governance: the build spills instead of dying. ----------

// Catalog over `rels`, for lowering plans that scan them.
std::unique_ptr<Catalog> CatalogOf(
    std::initializer_list<const Relation*> rels) {
  auto catalog = std::make_unique<Catalog>();
  for (const Relation* rel : rels) {
    EXPECT_TRUE(catalog->CreateRelation(rel->schema()).ok());
    EXPECT_TRUE(catalog->SetRelation(rel->schema().name(), *rel).ok());
  }
  return catalog;
}

// Charged bytes of `build` held as a one-lane hash join's build: the
// join's high-water mark with no budget armed.
uint64_t BuildFootprint(const Relation& probe, const Relation& build) {
  HashJoinOp join({0}, {0}, nullptr, std::make_unique<ScanOp>(&probe),
                  std::make_unique<ScanOp>(&build));
  ExecContext measure;
  join.SetExecContext(&measure);
  EXPECT_TRUE(ExecuteToRelation(join).ok());
  return measure.mem_high_water();
}

// Lowers probe ⋈_{%1 = %3} build at 1 and 4 lanes, every node estimated
// at `scale` times its rows, under `budget`: it lowers to HashJoin, which
// spills its build and completes with the oracle's bag within the budget,
// hands every byte back and leaves no run file.
void ExpectSpillingJoinFitsTheBudget(const Relation& probe,
                                     const Relation& build, double scale,
                                     uint64_t budget) {
  auto catalog = CatalogOf({&probe, &build});
  ExprPtr cond = Eq(Attr(0), Attr(2));
  auto plan = Plan::Join(cond, Plan::Scan(probe.schema().name(),
                                          probe.schema()),
                         Plan::Scan(build.schema().name(), build.schema()));
  ASSERT_TRUE(plan.ok());
  auto expected = EquiJoinOracle(cond, probe, 0, build, 0);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const CardinalityEstimator estimate = [&](const Plan& p) {
    const bool is_probe = p.kind() == PlanKind::kScan &&
                          p.relation_name() == probe.schema().name();
    return scale * static_cast<double>((is_probe ? probe : build).size());
  };
  const size_t files_before = LeakedRunFiles();
  for (size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExecConfig config;
    config.exec.workers = workers;
    config.exec.parallel_threshold = 1;
    config.governance.query_mem_budget_bytes = budget;
    ExecContext ctx;
    ctx.SetMemoryBudget(budget);
    auto op = LowerPlan(*plan, *catalog, &estimate, config, &ctx);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    ASSERT_EQ((*op)->name(), "HashJoin");
    auto got = ExecuteToRelation(**op);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->Equals(*expected));
    EXPECT_GT(static_cast<HashJoinOp&>(**op).spilled_chunks(), 1u);
    EXPECT_LE(ctx.mem_high_water(), budget);
    EXPECT_EQ(ctx.mem_used(), 0u);
    EXPECT_EQ(LeakedRunFiles(), files_before);
  }
}

TEST_F(GovernanceTest, UnderEstimatedJoinBuildSpillsUnderAnEighthOfItsSize) {
  // Every node estimated at 1/100 of its rows, under a budget of 1/8 of
  // the build's footprint: the estimate promises a build that fits, the
  // build does not, and it spills at run time instead of being killed.
  RelationSchema build_schema("build",
                              {{"k", Type::Int()}, {"a", Type::Int()}});
  RelationSchema probe_schema("probe",
                              {{"k", Type::Int()}, {"v", Type::Int()}});
  Relation build(build_schema);
  Relation probe(probe_schema);
  for (int64_t i = 0; i < 4000; ++i) {
    build.InsertUnchecked(Tuple({Value::Int(i), Value::Int(i % 5)}), 1);
  }
  for (int64_t i = 0; i < 2000; ++i) {
    probe.InsertUnchecked(Tuple({Value::Int(2 * i), Value::Int(i % 3)}), 2);
  }
  const uint64_t budget = BuildFootprint(probe, build) / 8;
  ExpectSpillingJoinFitsTheBudget(probe, build, 0.01, budget);
}

TEST_F(GovernanceTest, OneKeyHeavierThanTheBudgetSpillsItsBuild) {
  // 3,000 build rows share key 7, four times the budget: the chunks split
  // the key's rows, and each probe row of key 7 meets every chunk.
  RelationSchema build_schema("build",
                              {{"k", Type::Int()}, {"a", Type::Int()}});
  RelationSchema probe_schema("probe",
                              {{"k", Type::Int()}, {"v", Type::Int()}});
  Relation build(build_schema);
  Relation probe(probe_schema);
  for (int64_t i = 0; i < 3000; ++i) {
    build.InsertUnchecked(Tuple({Value::Int(7), Value::Int(i)}), 1 + i % 2);
  }
  for (int64_t i = 0; i < 100; ++i) {
    probe.InsertUnchecked(
        Tuple({Value::Int(i % 20 == 0 ? 7 : i), Value::Int(i)}), 1);
  }
  const uint64_t budget = BuildFootprint(probe, build) / 4;
  ExpectSpillingJoinFitsTheBudget(probe, build, 1.0, budget);
}

TEST_F(GovernanceTest, KillMidJoinSpillCleansUpRunFilesAndBudget) {
  // Each failpoint interrupts the join's spill at a different stage:
  // starting a build run (write), publishing it (rename), and reading a
  // chunk or the probe run back (read).  Every stage must unwind to zero
  // run files and zero charged bytes, and the same operator must succeed
  // once disarmed.
  auto db = MakeDb();
  const Relation& r = **db->catalog().GetRelation("r");
  const Relation& s = **db->catalog().GetRelation("s");
  auto expected = ops::Join(Eq(Attr(1), Attr(2)), r, s);
  ASSERT_TRUE(expected.ok());
  for (size_t workers : {size_t{1}, size_t{4}}) {
    for (const char* spec : {"sort.spill.write=error",
                             "sort.spill.rename=error",
                             "sort.spill.read=error"}) {
      SCOPED_TRACE(std::string(spec) + " workers=" + std::to_string(workers));
      const size_t files_before = LeakedRunFiles();
      ExecContext ctx;
      ctx.SetMemoryBudget(2048);  // Arms the budget-derived threshold.
      HashJoinOp op({1}, {0}, nullptr, std::make_unique<ScanOp>(&r),
                    std::make_unique<ScanOp>(&s), workers);
      op.SetExecContext(&ctx);
      ASSERT_TRUE(fault::FaultRegistry::Global().ConfigureFromSpec(spec).ok());
      auto killed = ExecuteToRelation(op);
      fault::FaultRegistry::Global().DisarmAll();
      ASSERT_FALSE(killed.ok()) << spec << " did not fire";
      EXPECT_EQ(LeakedRunFiles(), files_before);
      EXPECT_EQ(ctx.mem_used(), 0u);
      auto clean = ExecuteToRelation(op);
      ASSERT_TRUE(clean.ok()) << clean.status().ToString();
      EXPECT_TRUE(clean->Equals(*expected));
      EXPECT_GT(op.spilled_chunks(), 1u);
      EXPECT_LE(ctx.mem_high_water(), 2048u);
      EXPECT_EQ(ctx.mem_used(), 0u);
      EXPECT_EQ(LeakedRunFiles(), files_before);
    }
  }
}

TEST_F(GovernanceTest, KillMidJoinSpillThroughTheInterpreterIsReusable) {
  auto db = MakeDb();
  ExecConfig options;
  options.exec.sort_spill_bytes = 64;
  lang::Interpreter interp(db.get(), options);
  lang::Interpreter plain(db.get());
  auto expected = plain.Query("join(%2 = %3, r, s)");
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const size_t files_before = LeakedRunFiles();
  for (const char* spec : {"sort.spill.write=error", "sort.spill.rename=error",
                           "sort.spill.read=error"}) {
    SCOPED_TRACE(spec);
    ASSERT_TRUE(fault::FaultRegistry::Global().ConfigureFromSpec(spec).ok());
    auto killed = interp.Query("join(%2 = %3, r, s)");
    fault::FaultRegistry::Global().DisarmAll();
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(LeakedRunFiles(), files_before);
    auto clean = interp.Query("join(%2 = %3, r, s)");
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_TRUE(clean->Equals(*expected));
    EXPECT_EQ(LeakedRunFiles(), files_before);
  }
}

TEST_F(GovernanceTest, CancelFromAnotherThreadLandsInsideASpillingJoin) {
  // A join of 2,000 rows a side in one-row chunks takes thousands of
  // passes; a cancel raised from another thread once its build runs are
  // published must stop it within a pass, with nothing left behind.
  auto db = MakeDb();
  ExecConfig options;
  options.exec.sort_spill_bytes = 64;
  options.governance.cancel_token = std::make_shared<std::atomic<bool>>(false);
  lang::Interpreter interp(db.get(), options);
  std::string script = "create big(a: int, b: int); insert(big, {";
  for (int i = 0; i < 2000; ++i) {
    script += (i ? ",(" : "(") + std::to_string(i) + "," +
              std::to_string(i % 50) + ")";
  }
  ASSERT_TRUE(interp.ExecuteScript(script + "});", nullptr).ok());
  const size_t files_before = LeakedRunFiles();
  const uint64_t runs_before = CounterValue("sort.spill_runs");
  std::thread canceller([&] {
    for (int i = 0; i < 10000 && CounterValue("sort.spill_runs") == runs_before;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    options.governance.cancel_token->store(true);
  });
  auto killed = interp.Query("join(%2 = %4, big, big)");
  canceller.join();
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kCancelled);
  EXPECT_GT(CounterValue("sort.spill_runs"), runs_before);
  EXPECT_EQ(LeakedRunFiles(), files_before);
  // Reusable once the token is down again.
  options.governance.cancel_token->store(false);
  auto clean = interp.Query("join(%2 = %3, r, s)");
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(LeakedRunFiles(), files_before);
}

TEST_F(GovernanceTest, HashPeakBytesGaugeTracksLiveGrowth) {
  auto db = MakeDb();
  auto* peak = obs::MetricsRegistry::Global().GetGauge("hash.peak_bytes");
  peak->Set(0);
  lang::Interpreter interp(db.get());
  ASSERT_TRUE(interp.Query("unique(product(r, s))").ok());
  // The dedup build flushed its footprint during execution, not only at
  // Close — the gauge must have recorded a real high-water mark.
  EXPECT_GT(peak->value(), 0);
}

}  // namespace
}  // namespace exec
}  // namespace mra
