// Differential and governance suite for the morsel-driven hash kernels
// (docs/PARALLELISM.md).  The oracle is always the single-threaded
// definitional path (mra/algebra) — Definition 3.1 for join multiplicities,
// Definition 3.3 for aggregates, δ for dedup — so any partitioning or merge
// bug shows up as a bag mismatch, not just a flaky count.
//
// The matrix runs every hash kernel at worker counts 1/2/4/8 and
// morsel/batch granularities 1/7/1024 over seeded random inputs whose
// multiplicities reach 10^6 (multiplicity arithmetic must not be rebuilt
// from row repetition).  The cancel hammer and the failpoint kills are the
// TSan targets: cancellation arriving from another thread must land within
// one morsel on every lane and unwind with balanced memory accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mra/algebra/ops.h"
#include "mra/common/config.h"
#include "mra/exec/exec_context.h"
#include "mra/exec/hash_ops.h"
#include "mra/exec/operator.h"
#include "mra/exec/sort.h"
#include "mra/fault/failpoint.h"
#include "mra/lang/interpreter.h"
#include "mra/obs/metrics.h"
#include "mra/parallel/worker_pool.h"
#include "test_util.h"

namespace mra {
namespace {

using mra::testing::RandomIntRelation;

exec::PhysOpPtr Scan(const Relation& rel) {
  return std::make_unique<exec::ScanOp>(&rel);
}

exec::PhysOpPtr HashJoin(const Relation& left, const Relation& right,
                             size_t workers, size_t morsel) {
  return std::make_unique<exec::HashJoinOp>(
      std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr, Scan(left),
      Scan(right), workers, morsel);
}

exec::PhysOpPtr HashGroupBy(const Relation& input,
                                const std::vector<size_t>& keys,
                                const std::vector<AggSpec>& aggs,
                                size_t workers, size_t morsel) {
  auto schema = ops::GroupBySchema(keys, aggs, input.schema());
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return std::make_unique<exec::HashGroupByOp>(
      keys, aggs, *schema, Scan(input), workers, morsel);
}

std::vector<AggSpec> AllAggs() {
  return {{AggKind::kSum, 1, "sum_v"},
          {AggKind::kCnt, 0, "cnt"},
          {AggKind::kMin, 1, "min_v"},
          {AggKind::kMax, 1, "max_v"}};
}

// --- The differential matrix: 8 seeds x workers {1,2,4,8} x morsel {1,7,1024}
// --- x multiplicities {1, 5, 10^6}, every operator against its definition.

TEST(ParallelExecDifferential, JoinGroupByDedupMatchDefinitionalOracle) {
  const size_t worker_counts[] = {1, 2, 4, 8};
  const size_t granularities[] = {1, 7, 1024};
  const uint64_t multiplicities[] = {1, 5, 1000000};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    uint64_t max_mult = multiplicities[seed % 3];
    Relation r = RandomIntRelation(rng, 2, 200, 40, max_mult);
    Relation s = RandomIntRelation(rng, 2, 150, 40, max_mult);

    auto join_oracle = ops::Join(Eq(Attr(0), Attr(2)), r, s);
    auto group_oracle = ops::GroupBy({0}, AllAggs(), r);
    auto dedup_oracle = ops::Unique(r);
    ASSERT_OK(join_oracle);
    ASSERT_OK(group_oracle);
    ASSERT_OK(dedup_oracle);

    for (size_t workers : worker_counts) {
      for (size_t morsel : granularities) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " workers=" + std::to_string(workers) +
                     " morsel=" + std::to_string(morsel) +
                     " mult=" + std::to_string(max_mult));
        auto join = exec::ExecuteToRelation(
            *HashJoin(r, s, workers, morsel), morsel);
        ASSERT_OK(join);
        EXPECT_REL_EQ(*join, *join_oracle);

        auto grouped = exec::ExecuteToRelation(
            *HashGroupBy(r, {0}, AllAggs(), workers, morsel), morsel);
        ASSERT_OK(grouped);
        EXPECT_REL_EQ(*grouped, *group_oracle);

        auto deduped = exec::ExecuteToRelation(
            *std::make_unique<exec::BagCountOp>(
                exec::BagFn::kUnique, Scan(r), nullptr, workers, morsel),
            morsel);
        ASSERT_OK(deduped);
        EXPECT_REL_EQ(*deduped, *dedup_oracle);
      }
    }
  }
}

TEST(ParallelExecDifferential, ResidualPredicateFiltersMatchPairs) {
  // Equi-key plus a non-hashable residual: the residual must run against
  // the concatenated tuple in whichever lane found the match.
  std::mt19937_64 rng(99);
  Relation r = RandomIntRelation(rng, 2, 120, 20, 4);
  Relation s = RandomIntRelation(rng, 2, 120, 20, 4);
  auto oracle =
      ops::Join(And(Eq(Attr(0), Attr(2)), Lt(Attr(1), Attr(3))), r, s);
  ASSERT_OK(oracle);
  auto op = std::make_unique<exec::HashJoinOp>(
      std::vector<size_t>{0}, std::vector<size_t>{0}, Lt(Attr(1), Attr(3)),
      Scan(r), Scan(s), /*workers=*/4, /*morsel_size=*/7);
  auto result = exec::ExecuteToRelation(*op);
  ASSERT_OK(result);
  EXPECT_REL_EQ(*result, *oracle);
}

TEST(ParallelExecDifferential, KeyFreeAggregationKeepsEmptyInputGroup) {
  // Definition 3.3's key-free case: one global group, present even over an
  // empty input (CNT = 0, SUM = 0; AVG/MIN/MAX undefined).  The merge
  // phase must synthesise it when no lane saw a row.
  std::vector<AggSpec> aggs = {{AggKind::kCnt, 0, "cnt"},
                               {AggKind::kSum, 1, "sum_v"}};
  Relation empty(RelationSchema("e", {{"c1", Type::Int()},
                                      {"c2", Type::Int()}}));
  std::mt19937_64 rng(7);
  Relation full = RandomIntRelation(rng, 2, 50, 10, 1000000);
  for (const Relation* input : {&empty, &full}) {
    auto oracle = ops::GroupBy({}, aggs, *input);
    ASSERT_OK(oracle);
    auto result = exec::ExecuteToRelation(
        *HashGroupBy(*input, {}, aggs, /*workers=*/8, /*morsel=*/7));
    ASSERT_OK(result);
    EXPECT_REL_EQ(*result, *oracle);
  }
}

// --- Partitioned sources: lanes scan a stored relation by range.

// Drains `op`, opened for `lanes` lanes, with one thread per lane and
// returns every row each lane pulled.
std::vector<exec::Row> DrainByLanes(exec::PhysicalOperator& op, size_t lanes,
                                    size_t morsel) {
  EXPECT_OK(op.Open(lanes));
  std::vector<std::vector<exec::Row>> pulled(lanes);
  std::vector<std::thread> threads;
  for (size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      exec::RowBatch batch(morsel);
      while (true) {
        EXPECT_OK(op.NextBatch(batch, lane));
        if (batch.empty()) break;
        for (const exec::Row& row : batch) pulled[lane].push_back(row);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  op.Close();
  std::vector<exec::Row> rows;
  for (auto& lane_rows : pulled) {
    rows.insert(rows.end(), lane_rows.begin(), lane_rows.end());
  }
  return rows;
}

TEST(ParallelScan, RangeClaimsCoverEverySupportEntryOnce) {
  std::mt19937_64 rng(17);
  Relation empty(RelationSchema("e", {{"c1", Type::Int()},
                                      {"c2", Type::Int()}}));
  // Three entries: fewer ranges than lanes.
  Relation tiny = mra::testing::IntRel("tiny", {{1, 2}, {3, 4}, {5, 6}}, 2);
  Relation big = RandomIntRelation(rng, 2, 3000, 1000, 1000000);
  // Removals swap-move the last entries into the freed slots: every third
  // tuple goes, every fifth loses part of its multiplicity.
  Relation churned = big;
  std::vector<std::pair<Tuple, uint64_t>> support(big.begin(), big.end());
  for (size_t i = 0; i < support.size(); ++i) {
    const auto& [tuple, count] = support[i];
    if (i % 3 == 0) {
      EXPECT_EQ(churned.Remove(tuple, count), count);
    } else if (i % 5 == 0 && count > 1) {
      EXPECT_EQ(churned.Remove(tuple, count / 2), count / 2);
    }
  }
  ASSERT_LT(churned.distinct_size(), big.distinct_size());
  for (const Relation* rel : {&empty, &tiny, &big, &churned}) {
    for (size_t lanes : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      for (size_t morsel : {size_t{1}, size_t{7}, size_t{1024}}) {
        SCOPED_TRACE("distinct=" + std::to_string(rel->distinct_size()) +
                     " lanes=" + std::to_string(lanes) +
                     " morsel=" + std::to_string(morsel));
        exec::ScanOp scan(rel);
        std::vector<exec::Row> rows = DrainByLanes(scan, lanes, morsel);
        // Each (tuple, multiplicity) pair of the support exactly once.
        ASSERT_EQ(rows.size(), rel->distinct_size());
        Relation got(rel->schema());
        for (const exec::Row& row : rows) {
          EXPECT_EQ(rel->Multiplicity(row.tuple), row.count);
          got.InsertUnchecked(row.tuple, row.count);
        }
        EXPECT_REL_EQ(got, *rel);
        EXPECT_EQ(scan.metrics().rows_emitted, rel->distinct_size());
        EXPECT_EQ(scan.metrics().weighted_rows, rel->size());

        // The projecting scan claims the same ranges.
        exec::ScanOp projecting(rel, {1},
                                RelationSchema("p", {{"c2", Type::Int()}}));
        rows = DrainByLanes(projecting, lanes, morsel);
        ASSERT_EQ(rows.size(), rel->distinct_size());
        Relation projected(projecting.schema());
        for (const exec::Row& row : rows) {
          projected.InsertUnchecked(row.tuple, row.count);
        }
        auto oracle = ops::ProjectIndexes({1}, *rel);
        ASSERT_OK(oracle);
        EXPECT_REL_EQ(projected, *oracle);

        // A lane-drained scan reports its lanes as workers; one lane is
        // the plain cursor every NextBatch consumer pulls, with none.
        EXPECT_EQ(scan.metrics().workers, lanes > 1 ? lanes : 0u);
        if (lanes == 1) {
          auto drained = exec::ExecuteToRelation(scan, morsel);
          ASSERT_OK(drained);
          EXPECT_REL_EQ(*drained, *rel);
          drained = exec::ExecuteToRelation(projecting, morsel);
          ASSERT_OK(drained);
          EXPECT_REL_EQ(*drained, *oracle);
        }
      }
    }
  }
}

// --- The wrapper's shared cursor: an operator that is not a partitioned
// --- source, opened for lanes, serves them one batch at a time.

struct SerialisedCase {
  const char* name;
  bool charges;  // Holds a budget charge while open.
  std::function<exec::PhysOpPtr()> build;
};

std::vector<SerialisedCase> SerialisedCases(const Relation& r,
                                            const Relation& s) {
  return {
      {"union", false,
       [&] {
         return std::make_unique<exec::UnionAllOp>(Scan(r), Scan(s));
       }},
      {"sort", true,
       [&] {
         return std::make_unique<exec::SortOp>(
             std::vector<size_t>{0}, std::vector<bool>{false}, /*limit=*/0,
             /*spill_bytes=*/0, Scan(r));
       }},
  };
}

TEST(SerialisedCursor, LanesTakeTurnsAndCountEachBatchOnce) {
  std::mt19937_64 rng(29);
  Relation r = RandomIntRelation(rng, 2, 900, 300, 1000);
  Relation s = RandomIntRelation(rng, 2, 600, 300, 1000);
  for (const SerialisedCase& c : SerialisedCases(r, s)) {
    SCOPED_TRACE(c.name);
    exec::ExecContext one_ctx;
    auto one = c.build();
    one->SetExecContext(&one_ctx);
    auto expected = exec::ExecuteToRelation(*one, 7);
    ASSERT_OK(expected);

    exec::ExecContext ctx;
    auto op = c.build();
    op->SetExecContext(&ctx);
    std::vector<exec::Row> rows = DrainByLanes(*op, 4, 7);
    EXPECT_FALSE(op->partitioned());
    // The lanes' pulls ⊎ to the one-lane bag.
    Relation got(op->schema());
    for (const exec::Row& row : rows) got.InsertUnchecked(row.tuple, row.count);
    EXPECT_REL_EQ(got, *expected);
    // Every node counts each batch once, as on one lane, and none claims
    // the lanes as workers.
    std::function<void(const exec::PhysicalOperator&,
                       const exec::PhysicalOperator&)>
        same = [&](const exec::PhysicalOperator& a,
                   const exec::PhysicalOperator& b) {
          EXPECT_EQ(a.metrics().rows_emitted, b.metrics().rows_emitted)
              << a.name();
          EXPECT_EQ(a.metrics().weighted_rows, b.metrics().weighted_rows)
              << a.name();
          EXPECT_EQ(a.metrics().batches_emitted, b.metrics().batches_emitted)
              << a.name();
          EXPECT_EQ(a.metrics().workers, 0u) << a.name();
          ASSERT_EQ(a.children().size(), b.children().size());
          for (size_t i = 0; i < a.children().size(); ++i) {
            same(*a.children()[i], *b.children()[i]);
          }
        };
    same(*op, *one);
    EXPECT_EQ(ctx.mem_used(), 0u);
  }
}

TEST(SerialisedCursor, CancelOnOneLaneEndsEveryLaneAndReleasesTheBudget) {
  std::mt19937_64 rng(31);
  Relation r = RandomIntRelation(rng, 2, 900, 300, 1000);
  Relation s = RandomIntRelation(rng, 2, 600, 300, 1000);
  for (const SerialisedCase& c : SerialisedCases(r, s)) {
    SCOPED_TRACE(c.name);
    exec::ExecContext ctx;
    auto op = c.build();
    op->SetExecContext(&ctx);
    ASSERT_OK(op->Open(4));
    if (c.charges) {
      EXPECT_GT(ctx.mem_used(), 0u);
    }
    // Armed once open, so the cancel lands on a lane's pull, after a few.
    ASSERT_TRUE(fault::FaultRegistry::Global()
                    .ConfigureFromSpec("exec.cancel.batch=error:after=5")
                    .ok());
    std::vector<StatusCode> ended(4, StatusCode::kOk);
    std::vector<std::thread> threads;
    for (size_t lane = 0; lane < 4; ++lane) {
      threads.emplace_back([&, lane] {
        exec::RowBatch batch(7);
        while (true) {
          Status st = op->NextBatch(batch, lane);
          if (!st.ok()) {
            ended[lane] = st.code();
            return;
          }
          if (batch.empty()) return;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    fault::FaultRegistry::Global().DisarmAll();
    // Every lane ended: the one the failpoint tripped with kCancelled, the
    // others on the cursor's end or on the cancelled context.
    size_t cancelled = 0;
    for (StatusCode code : ended) {
      EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kCancelled)
          << static_cast<int>(code);
      if (code == StatusCode::kCancelled) ++cancelled;
    }
    EXPECT_GE(cancelled, 1u);
    op->Close();
    EXPECT_EQ(ctx.mem_used(), 0u);
  }
}

// EXPLAIN ANALYZE row counts of the nodes a multi-lane kernel drains by
// lanes: each node's lane counters fold into it, so they read as on one
// lane.
TEST(ParallelExecPlanner, LaneDrainedNodesReportOneLaneRowCounts) {
  auto db = Database::Open();
  ASSERT_OK(db);
  {
    lang::Interpreter setup(db->get());
    ASSERT_OK(
        setup.ExecuteScript("create t(g: int, v: int, w: int);", nullptr));
    std::string insert = "insert(t, {";
    for (int i = 0; i < 3000; ++i) {
      insert += (i == 0 ? "(" : ", (") + std::to_string(i % 37) + ", " +
                std::to_string(i) + ", " + std::to_string(i % 101) +
                ") : " + std::to_string(1 + i % 4);
    }
    ASSERT_OK(setup.ExecuteScript(insert + "}); analyze t;", nullptr));
  }
  const char* query =
      "groupby([%1], sum(%2), project([%1, %2 + %3], select(%3 > 10, t)))";
  auto counts = [&](size_t workers) {
    ExecConfig config;
    config.exec.workers = workers;
    config.exec.parallel_threshold = 0;
    lang::Interpreter interp(db->get(), config);
    auto text = interp.ExplainAnalyze(query);
    EXPECT_OK(text);
    // "Scan ... (actual rows=N weighted=W" per chain node, in plan order.
    std::vector<std::string> found;
    std::istringstream lines(*text);
    for (std::string line; std::getline(lines, line);) {
      size_t name = line.find_first_not_of(' ');
      if (name == std::string::npos) continue;
      for (const char* node : {"Scan", "Filter", "Compute"}) {
        if (line.compare(name, std::strlen(node), node) != 0) continue;
        size_t at = line.find("actual rows=");
        size_t end = line.find(" batches=", at);
        EXPECT_NE(at, std::string::npos) << line;
        if (workers > 1) {
          // Drained by the kernel's lanes, not through a locked cursor.
          EXPECT_NE(line.find("workers=" + std::to_string(workers)),
                    std::string::npos)
              << line;
        }
        found.push_back(std::string(node) + " " +
                        line.substr(at, end - at));
      }
    }
    return found;
  };
  std::vector<std::string> one = counts(1);
  ASSERT_EQ(one.size(), 3u) << ::testing::PrintToString(one);
  EXPECT_EQ(counts(4), one);
}

// --- Governance: cancellation, deadline and budget kills reach every lane.

Relation BigPairs(size_t n) {
  Relation rel(RelationSchema("big", {{"k", Type::Int()},
                                      {"v", Type::Int()}}));
  for (size_t i = 0; i < n; ++i) {
    rel.InsertUnchecked(
        Tuple({Value::Int(static_cast<int64_t>(i % (n / 16 + 1))),
               Value::Int(static_cast<int64_t>(i))}),
        1 + i % 3);
  }
  return rel;
}

TEST(ParallelExecGovernance, CancelHammerFromAnotherThread) {
  // The TSan target: an external cancel lands while 8 lanes are mid-build
  // or mid-probe.  Whatever the timing, the query either completes with
  // the right bag or dies with kCancelled — and the memory accounting
  // balances either way.  Many iterations walk the cancel point across
  // every phase.
  Relation r = BigPairs(6000);
  // The oracle is ops::Join run once per key value v over the rows with
  // k = v: ⋈ on k distributes over a ⊎-split of its inputs by k, and rows
  // with different k never join, so the ⊎ of the per-value joins is
  // exactly ops::Join(r, r) — at 376 × 16² predicate evaluations instead
  // of 6,000².
  std::map<int64_t, Relation> by_key;
  for (const auto& [tuple, count] : r) {
    by_key.try_emplace(tuple.at(0).int_value(), r.schema())
        .first->second.InsertUnchecked(tuple, count);
  }
  Relation oracle(r.schema().Concat(r.schema()));
  for (const auto& [key, part] : by_key) {
    auto joined = ops::Join(Eq(Attr(0), Attr(2)), part, part);
    ASSERT_OK(joined);
    for (const auto& [tuple, count] : *joined) {
      oracle.InsertUnchecked(tuple, count);
    }
  }
  for (int round = 0; round < 12; ++round) {
    exec::ExecContext ctx;
    auto op = HashJoin(r, r, /*workers=*/8, /*morsel=*/64);
    op->SetExecContext(&ctx);
    std::thread killer([&ctx, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      ctx.RequestCancel();
    });
    auto result = exec::ExecuteToRelation(*op, 64);
    killer.join();
    if (result.ok()) {
      EXPECT_REL_EQ(*result, oracle) << "round " << round;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
          << "round " << round << ": " << result.status().ToString();
    }
    EXPECT_EQ(ctx.mem_used(), 0u) << "round " << round;
  }
}

TEST(ParallelExecGovernance, FailpointCancelKillsEachParallelOperator) {
  // exec.cancel.batch trips on the very first batch pull, so the kill
  // arrives while the build scan is feeding worker lanes; the fresh rerun
  // after disarm proves no poisoned pool or operator state survives.
  Relation r = BigPairs(4000);
  struct Case {
    const char* name;
    std::function<exec::PhysOpPtr()> build;
  };
  const Case cases[] = {
      {"join", [&] { return HashJoin(r, r, 8, 32); }},
      {"groupby", [&] { return HashGroupBy(r, {0}, AllAggs(), 8, 32); }},
      {"dedup",
       [&] {
         return std::make_unique<exec::BagCountOp>(exec::BagFn::kUnique,
                                                   Scan(r), nullptr, 8, 32);
       }},
      {"difference",
       [&] {
         return std::make_unique<exec::BagCountOp>(
             exec::BagFn::kDifference, Scan(r), Scan(r), 8, 32);
       }},
      {"intersect",
       [&] {
         return std::make_unique<exec::BagCountOp>(
             exec::BagFn::kIntersect, Scan(r), Scan(r), 8, 32);
       }},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(fault::FaultRegistry::Global()
                    .ConfigureFromSpec("exec.cancel.batch=error")
                    .ok());
    exec::ExecContext ctx;
    auto op = c.build();
    op->SetExecContext(&ctx);
    auto killed = exec::ExecuteToRelation(*op, 32);
    fault::FaultRegistry::Global().DisarmAll();
    ASSERT_FALSE(killed.ok()) << c.name << " survived an armed cancel";
    EXPECT_EQ(killed.status().code(), StatusCode::kCancelled) << c.name;
    EXPECT_EQ(ctx.mem_used(), 0u) << c.name;

    exec::ExecContext clean_ctx;
    auto rerun = c.build();
    rerun->SetExecContext(&clean_ctx);
    EXPECT_TRUE(exec::ExecuteToRelation(*rerun, 32).ok())
        << c.name << " failed after disarm";
  }
}

TEST(ParallelExecGovernance, DeadlineKillLandsWithinAMorsel) {
  // An already-expired deadline must stop the fan-out at the first morsel
  // boundary on every lane with kDeadlineExceeded.
  Relation r = BigPairs(20000);
  exec::ExecContext ctx;
  ctx.SetDeadlineAfterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto op = HashJoin(r, r, /*workers=*/8, /*morsel=*/16);
  op->SetExecContext(&ctx);
  auto killed = exec::ExecuteToRelation(*op, 16);
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctx.mem_used(), 0u);
}

TEST(ParallelExecGovernance, MemoryBudgetTripsDuringParallelBuild) {
  // δ's key sets, built on four lanes, cannot spill (a hash join's build
  // spills instead of tripping the budget: governance_test).
  Relation r = BigPairs(20000);
  exec::ExecContext ctx;
  ctx.SetMemoryBudget(4 * 1024);  // Far below the build footprint.
  auto op = std::make_unique<exec::BagCountOp>(exec::BagFn::kUnique, Scan(r),
                                               nullptr, /*workers=*/4,
                                               /*morsel=*/256);
  op->SetExecContext(&ctx);
  auto killed = exec::ExecuteToRelation(*op, 256);
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.mem_used(), 0u);
}

TEST(ParallelExecGovernance, KillsWhileLanesRunTheScanChainReleaseEveryByte) {
  // The lanes run Scan → Filter → Compute themselves; a cancel from
  // another thread, an expired deadline and a tripped budget must each
  // stop every lane and leave the query budget balanced.  The bare join
  // spills under the budget instead of tripping it, so its budget round
  // arms a deadline too, which lands while it joins chunk by chunk.
  Relation r = BigPairs(20000);
  const ExprPtr keep = Gt(Attr(1), Lit(int64_t{10}));
  const std::vector<ExprPtr> swapped = {Attr(1), Attr(0)};
  auto chain = [&] {
    return std::make_unique<exec::ComputeOp>(
        swapped,
        RelationSchema("c", {{"v", Type::Int()}, {"k", Type::Int()}}),
        std::make_unique<exec::FilterOp>(keep, Scan(r)));
  };
  const std::function<exec::PhysOpPtr()> kernels[] = {
      [&] {
        return std::make_unique<exec::HashJoinOp>(
            std::vector<size_t>{1}, std::vector<size_t>{1}, nullptr, chain(),
            chain(), 4, 64);
      },
      [&] {
        auto schema = ops::GroupBySchema({1}, AllAggs(), chain()->schema());
        return std::make_unique<exec::HashGroupByOp>(
            std::vector<size_t>{1}, AllAggs(), *schema, chain(), 4, 64);
      },
      [&] {
        return std::make_unique<exec::BagCountOp>(exec::BagFn::kUnique,
                                                  chain(), nullptr, 4, 64);
      },
      [&] {
        return std::make_unique<exec::BagCountOp>(exec::BagFn::kDifference,
                                                  chain(), chain(), 4, 64);
      },
      [&] {
        // Γ over ⋈: the join is drained by lanes and probes on Γ's lanes,
        // so a kill lands while it holds its build arena.
        exec::PhysOpPtr join = std::make_unique<exec::HashJoinOp>(
            std::vector<size_t>{1}, std::vector<size_t>{1}, nullptr, chain(),
            chain(), 4, 64);
        auto schema = ops::GroupBySchema({1}, AllAggs(), join->schema());
        return std::make_unique<exec::HashGroupByOp>(
            std::vector<size_t>{1}, AllAggs(), *schema, std::move(join), 4,
            64);
      },
  };
  for (size_t k = 0; k < std::size(kernels); ++k) {
    SCOPED_TRACE("kernel " + std::to_string(k));
    for (int round = 0; round < 6; ++round) {
      exec::ExecContext ctx;
      auto op = kernels[k]();
      op->SetExecContext(&ctx);
      std::thread killer([&ctx, round] {
        std::this_thread::sleep_for(std::chrono::microseconds(100 * round));
        ctx.RequestCancel();
      });
      auto result = exec::ExecuteToRelation(*op, 64);
      killer.join();
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
      }
      EXPECT_EQ(ctx.mem_used(), 0u) << "cancel round " << round;
    }
    {
      exec::ExecContext ctx;
      ctx.SetDeadlineAfterMs(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      auto op = kernels[k]();
      op->SetExecContext(&ctx);
      auto killed = exec::ExecuteToRelation(*op, 64);
      ASSERT_FALSE(killed.ok());
      EXPECT_EQ(killed.status().code(), StatusCode::kDeadlineExceeded);
      EXPECT_EQ(ctx.mem_used(), 0u);
    }
    {
      exec::ExecContext ctx;
      ctx.SetMemoryBudget(4 * 1024);
      if (k == 0) ctx.SetDeadlineAfterMs(50);
      auto op = kernels[k]();
      op->SetExecContext(&ctx);
      auto killed = exec::ExecuteToRelation(*op, 64);
      ASSERT_FALSE(killed.ok());
      EXPECT_EQ(killed.status().code(), k == 0
                                            ? StatusCode::kDeadlineExceeded
                                            : StatusCode::kResourceExhausted);
      if (k == 0) {
        EXPECT_LE(ctx.mem_high_water(), 4u * 1024);
      }
      EXPECT_EQ(ctx.mem_used(), 0u);
    }
  }
}

// --- The pool itself.

TEST(WorkerPoolTest, ParallelForRunsEveryLaneExactlyOnce) {
  auto& pool = parallel::WorkerPool::Global();
  auto lease = pool.Admit(4);
  std::vector<std::atomic<int>> hits(lease.lanes());
  pool.ParallelFor(lease, [&](size_t lane) { hits[lane].fetch_add(1); });
  for (size_t lane = 0; lane < hits.size(); ++lane) {
    EXPECT_EQ(hits[lane].load(), 1) << "lane " << lane;
  }
}

TEST(WorkerPoolTest, SaturationShedsToSerialLease) {
  auto& pool = parallel::WorkerPool::Global();
  // Drain the pool, then the next admission must degrade to one lane (the
  // caller's own) rather than queue.
  std::vector<parallel::WorkerPool::Lease> hogs;
  for (size_t i = 0; i < pool.capacity() + 1; ++i) {
    hogs.push_back(pool.Admit(2));
  }
  auto starved = pool.Admit(8);
  EXPECT_EQ(starved.lanes(), 1u);
  hogs.clear();  // Leases return their lanes on destruction...
  auto refreshed = pool.Admit(2);
  EXPECT_GE(refreshed.lanes(), 2u);  // ...so admission recovers.
}

TEST(ParallelExecMetrics, OneMorselSourceOnTwoLanesLeavesOneLaneIdle) {
  // A source that is not partitioned yields one morsel through the shared
  // cursor: whichever lane takes it, the other pulls nothing.
  Relation input = mra::testing::IntRel("t", {{1, 10}, {2, 20}, {1, 5}}, 2);
  const std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "s"}};
  auto schema = ops::GroupBySchema({0}, aggs, input.schema());
  ASSERT_TRUE(schema.ok());
  obs::Counter* idle =
      obs::MetricsRegistry::Global().GetCounter("parallel.idle_lanes");
  const uint64_t before = idle->value();
  exec::HashGroupByOp gb({0}, aggs, *schema,
                         std::make_unique<exec::ConstScanOp>(input), 2);
  auto got = exec::ExecuteToRelation(gb);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(gb.metrics().workers, 2u);
  EXPECT_EQ(idle->value() - before, 1u);
  auto expected = ops::GroupBy({0}, aggs, input);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(got->Equals(*expected));
}

// --- Planner integration: EXPLAIN ANALYZE carries the lane metrics.

TEST(ParallelExecPlanner, ExplainAnalyzeRendersWorkersAndCpu) {
  auto db = Database::Open();
  ASSERT_OK(db);
  ExecConfig config;
  config.exec.workers = 4;
  config.exec.parallel_threshold = 1;
  lang::Interpreter interp(db->get(), config);
  ASSERT_OK(interp.ExecuteScript(
      "create t(g: int, v: int);"
      "insert(t, {(1, 10) : 3, (1, 20), (2, 5) : 2, (3, 7), (4, 1)});",
      nullptr));
  ASSERT_OK(interp.ExecuteScript("analyze t;", nullptr));
  auto text = interp.ExplainAnalyze("groupby([%1], sum(%2), unique(t))");
  ASSERT_OK(text);
  EXPECT_NE(text->find("HashGroupBy  [parallel: 4 lanes]"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("Dedup  [parallel: 4 lanes]"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("workers="), std::string::npos) << *text;
  EXPECT_NE(text->find("cpu="), std::string::npos) << *text;
  // − and ∩ are hash nodes too, on the same lanes.
  text = interp.ExplainAnalyze("intersect(t, diff(t, unique(t)))");
  ASSERT_OK(text);
  for (const char* node : {"Intersect  [parallel: 4 lanes]",
                           "Difference  [parallel: 4 lanes]"}) {
    EXPECT_NE(text->find(node), std::string::npos) << node << "\n" << *text;
  }
}

TEST(ParallelExecPlanner, ThresholdKeepsSmallQueriesSerial) {
  // Default threshold (8192 estimated rows) vs a 5-row table: the planner
  // must keep the hash kernels on one lane even with workers available.
  auto db = Database::Open();
  ASSERT_OK(db);
  ExecConfig config;
  config.exec.workers = 4;
  lang::Interpreter interp(db->get(), config);
  ASSERT_OK(interp.ExecuteScript(
      "create t(g: int, v: int);"
      "insert(t, {(1, 10) : 3, (1, 20), (2, 5) : 2, (3, 7), (4, 1)});",
      nullptr));
  ASSERT_OK(interp.ExecuteScript("analyze t;", nullptr));
  auto text = interp.ExplainAnalyze("groupby([%1], sum(%2), unique(t))");
  ASSERT_OK(text);
  EXPECT_NE(text->find("HashGroupBy"), std::string::npos) << *text;
  EXPECT_EQ(text->find("parallel:"), std::string::npos) << *text;
  EXPECT_EQ(text->find("workers=4"), std::string::npos) << *text;
  EXPECT_NE(text->find("workers=1"), std::string::npos) << *text;
}

}  // namespace
}  // namespace mra
