// Differential suite for ordered emission (SortOp) and the spilling hash
// join, gated against the definitional semantics:
//
//   * ops::Sort with limit = 0 is the identity on bags — so the physical
//     SortOp must return the input bag exactly, *and* emit it in
//     CompareForSort order (ordering is a stream property the bag cannot
//     express; it is asserted on the drained row sequence).
//   * ops::Sort with limit = k is the deterministic weighted Top-K — the
//     physical Top-K heap must agree with it, which also pins "Top-K ==
//     full sort + weighted prefix".
//   * HashJoinOp forced to spill its build must agree with the in-memory
//     HashJoinOp and NestedLoopJoinOp on the same equi-join
//     (multiplicities multiply, Definition 3.1).
//
// Each property runs over 8 random seeds, all six value domains (bool,
// int, real, string, decimal, date), multi-key and descending orders,
// multiplicities up to 1e6, batch sizes 1/7/1024, and — via a tiny
// sort_spill_bytes — the forced external-merge spill path.  The keyed-sort
// cases at the end pin the exact emitted sequence against std::sort under
// CompareForSort on the values where key words are least like values.

#include "mra/exec/sort.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <functional>
#include <random>
#include <sstream>
#include <string>

#include "mra/algebra/ops.h"
#include "mra/common/config.h"
#include "mra/exec/exec_context.h"
#include "mra/exec/hash_ops.h"
#include "mra/exec/operator.h"
#include "mra/exec/spill.h"
#include "mra/lang/interpreter.h"
#include "mra/storage/serializer.h"
#include "test_util.h"

namespace mra {
namespace exec {
namespace {

using ::mra::testing::IntRel;
using ::mra::testing::IntTuple;
using ::mra::testing::RandomIntRelation;
using ::mra::testing::RandomMixedRelation;

// Drains `op` batch by batch, asserting the emitted stream is ordered
// under CompareForSort across batch boundaries, and returns the emitted
// bag.
Result<Relation> DrainOrdered(PhysicalOperator& op,
                              const std::vector<size_t>& keys,
                              const std::vector<bool>& desc,
                              size_t batch_size = kDefaultBatchSize) {
  MRA_RETURN_IF_ERROR(op.Open());
  Relation out(op.schema());
  std::optional<Tuple> prev;
  RowBatch batch(batch_size);
  while (true) {
    MRA_RETURN_IF_ERROR(op.NextBatch(batch));
    if (batch.empty()) break;
    for (const Row& row : batch) {
      if (prev.has_value()) {
        EXPECT_LE(ops::CompareForSort(*prev, row.tuple, keys, desc), 0)
            << "stream out of order: " << prev->ToString() << " before "
            << row.tuple.ToString();
      }
      prev = row.tuple;
      out.InsertUnchecked(row.tuple, row.count);
    }
  }
  op.Close();
  return out;
}

// One sort configuration checked end to end: bag equality against the
// definitional ops::Sort, stream orderedness, and (when expected) the
// spill trip, at the three canonical batch sizes.
void ExpectSortAgreement(const Relation& input, std::vector<size_t> keys,
                         std::vector<bool> desc, uint64_t limit,
                         uint64_t spill_bytes, bool expect_spill) {
  auto expected = ops::Sort(keys, desc, limit, input);
  ASSERT_OK(expected);
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    SortOp op(keys, desc, limit, spill_bytes,
              std::make_unique<ScanOp>(&input));
    auto got = DrainOrdered(op, keys, desc, batch_size);
    ASSERT_OK(got);
    EXPECT_REL_EQ(*got, *expected) << "batch size " << batch_size;
    if (expect_spill) {
      EXPECT_GT(op.spilled_runs(), 0u) << "expected a forced spill";
    } else if (spill_bytes == 0) {
      EXPECT_EQ(op.spilled_runs(), 0u);
    }
  }
}

// The sort buffer is reserved from the child's estimate, capped by the
// spill threshold and a LIMIT's heap: under-, over- and unestimated
// inputs all sort exactly, and a forced spill still spills.
TEST(SortPlannedSize, AnyEstimateKeepsOrderAndTheSpillThreshold) {
  std::mt19937_64 rng(31);
  Relation input = RandomIntRelation(rng, 3, 600, 50, 4);
  const std::vector<size_t> keys = {1, 0};
  const std::vector<bool> desc = {false, true};
  for (double estimate : {-1.0, 1.0, 1e9}) {
    for (uint64_t limit : {uint64_t{0}, uint64_t{25}}) {
      for (uint64_t spill_bytes : {uint64_t{0}, uint64_t{4096}}) {
        SCOPED_TRACE("estimate " + std::to_string(estimate) + " limit " +
                     std::to_string(limit) + " spill " +
                     std::to_string(spill_bytes));
        auto expected = ops::Sort(keys, desc, limit, input);
        ASSERT_OK(expected);
        auto child = std::make_unique<ScanOp>(&input);
        child->set_estimated_rows(estimate);
        SortOp op(keys, desc, limit, spill_bytes, std::move(child));
        auto got = DrainOrdered(op, keys, desc);
        ASSERT_OK(got);
        EXPECT_REL_EQ(*got, *expected);
        if (spill_bytes > 0 && limit == 0) {
          EXPECT_GT(op.spilled_runs(), 0u);
        }
      }
    }
  }
}

class SortDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SortDifferentialTest, FullSortAllDomainsIsBagIdentityAndOrdered) {
  std::mt19937_64 rng(GetParam());
  Relation input = RandomMixedRelation(rng, /*max_distinct=*/120,
                                       /*max_multiplicity=*/5);
  // Single key per domain, ascending and descending.
  for (size_t key = 0; key < input.schema().arity(); ++key) {
    ExpectSortAgreement(input, {key}, {false}, 0, 0, false);
    ExpectSortAgreement(input, {key}, {true}, 0, 0, false);
  }
}

TEST_P(SortDifferentialTest, MultiKeyMixedDirections) {
  std::mt19937_64 rng(GetParam());
  Relation input = RandomMixedRelation(rng, 150, 5);
  ExpectSortAgreement(input, {1, 3}, {false, true}, 0, 0, false);
  ExpectSortAgreement(input, {5, 0, 2}, {true, false, true}, 0, 0, false);
  // All six keys: the whole-tuple tiebreak never fires, order still total.
  ExpectSortAgreement(input, {0, 1, 2, 3, 4, 5},
                      {true, true, false, false, true, false}, 0, 0, false);
}

TEST_P(SortDifferentialTest, TopKMatchesDefinitionalWeightedPrefix) {
  std::mt19937_64 rng(GetParam());
  Relation input = RandomMixedRelation(rng, 150, 5);
  uint64_t total = input.size();
  for (uint64_t limit : {uint64_t{1}, uint64_t{3}, total / 2 + 1, total,
                         total + 100}) {
    if (limit == 0) continue;
    ExpectSortAgreement(input, {1, 2}, {false, true}, limit, 0, false);
  }
}

TEST_P(SortDifferentialTest, ForcedSpillAgreesWithInMemory) {
  std::mt19937_64 rng(GetParam());
  Relation input = RandomMixedRelation(rng, 200, 5);
  if (input.distinct_size() < 4) return;  // Nothing to spill.
  // 64 bytes is below a single row's footprint: every buffered batch
  // trips the threshold, so the merge path carries the whole sort.
  ExpectSortAgreement(input, {3, 1}, {false, false}, 0, 64, true);
  ExpectSortAgreement(input, {4}, {true}, 0, 64, true);
  // Top-K across spilled runs: per-run pruning must stay globally sound.
  ExpectSortAgreement(input, {2}, {false}, 5, 64, true);
}

TEST_P(SortDifferentialTest, HeavyMultiplicityStaysFolded) {
  // A row with multiplicity 1e6 is one run entry: the sort (spilling or
  // not) must keep it folded and the weighted LIMIT must clamp inside it.
  Relation input = IntRel("r", {{5, 1}, {3, 2}, {7, 3}}, 2);
  input.InsertUnchecked(testing::IntTuple({1, 9}), 1'000'000);
  ExpectSortAgreement(input, {0}, {false}, 0, 0, false);
  ExpectSortAgreement(input, {0}, {false}, 0, 64, true);
  // limit = 17 lands strictly inside the heavy row: the boundary keeps
  // the clamped remainder (17 − 0 preceding = 17 copies of (1, 9)).
  auto limited = ops::Sort({0}, {false}, 17, input);
  ASSERT_OK(limited);
  EXPECT_EQ(limited->Multiplicity(testing::IntTuple({1, 9})), 17u);
  ExpectSortAgreement(input, {0}, {false}, 17, 0, false);
  ExpectSortAgreement(input, {0}, {false}, 17, 64, true);
}

TEST_P(SortDifferentialTest, EmptyAndSingletonInputs) {
  Relation empty(RelationSchema("e", {{"a", Type::Int()}}));
  ExpectSortAgreement(empty, {0}, {false}, 0, 0, false);
  ExpectSortAgreement(empty, {0}, {true}, 3, 64, false);
  Relation one = IntRel("one", {{42}}, 1);
  ExpectSortAgreement(one, {0}, {false}, 0, 0, false);
  ExpectSortAgreement(one, {0}, {false}, 1, 0, false);
}

// --- Spilled hash join vs. the in-memory join and the nested loop. -------

using OpFactory = std::function<PhysOpPtr()>;

Relation MustExecute(const OpFactory& make, size_t batch_size) {
  PhysOpPtr op = make();
  auto rel = ExecuteToRelation(*op, batch_size);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  return rel.ok() ? std::move(*rel) : Relation(op->schema());
}

// The join forced to spill (a 64-byte cap: about one build row a chunk)
// at workers {1, 2, 4} and batch {1, 7, 1024} must equal `expected`, and
// spill whenever its build has more rows than lanes.
void ExpectSpilledJoinEquals(const std::vector<size_t>& left_keys,
                             const std::vector<size_t>& right_keys,
                             const ExprPtr& residual, const Relation& left,
                             const Relation& right, const Relation& expected) {
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
      SCOPED_TRACE("workers " + std::to_string(workers) + " batch " +
                   std::to_string(batch_size));
      HashJoinOp op(left_keys, right_keys, residual,
                    std::make_unique<ScanOp>(&left),
                    std::make_unique<ScanOp>(&right), workers, batch_size,
                    /*spill_bytes=*/64);
      auto got = ExecuteToRelation(op, batch_size);
      ASSERT_OK(got);
      EXPECT_REL_EQ(*got, expected);
      if (right.distinct_size() > workers) {
        EXPECT_GT(op.spilled_chunks(), 0u);
      }
    }
  }
}

TEST_P(SortDifferentialTest, SpilledHashJoinAgreesWithInMemoryAndNestedLoop) {
  std::mt19937_64 rng(GetParam());
  Relation r = RandomIntRelation(rng, 2, 150, 20, 5);
  Relation s = RandomIntRelation(rng, 2, 150, 20, 5);

  auto hash = [&] {
    return std::make_unique<HashJoinOp>(
        std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
        std::make_unique<ScanOp>(&r), std::make_unique<ScanOp>(&s));
  };
  auto nested = [&] {
    return std::make_unique<NestedLoopJoinOp>(
        Eq(Attr(0), Attr(2)), std::make_unique<ScanOp>(&r),
        std::make_unique<ScanOp>(&s));
  };
  Relation via_hash = MustExecute(hash, kDefaultBatchSize);
  EXPECT_REL_EQ(MustExecute(nested, kDefaultBatchSize), via_hash);
  ExpectSpilledJoinEquals({0}, {0}, nullptr, r, s, via_hash);
}

TEST_P(SortDifferentialTest, SpilledHashJoinMultiKeyResidual) {
  std::mt19937_64 rng(GetParam());
  Relation r = RandomIntRelation(rng, 3, 150, 8, 5);
  Relation s = RandomIntRelation(rng, 3, 150, 8, 5);

  // Multi-key with a non-equi residual.
  auto hash = [&] {
    return std::make_unique<HashJoinOp>(
        std::vector<size_t>{0, 1}, std::vector<size_t>{1, 0},
        Lt(Attr(2), Attr(5)), std::make_unique<ScanOp>(&r),
        std::make_unique<ScanOp>(&s));
  };
  auto nested = [&] {
    return std::make_unique<NestedLoopJoinOp>(
        And(And(Eq(Attr(0), Attr(4)), Eq(Attr(1), Attr(3))),
            Lt(Attr(2), Attr(5))),
        std::make_unique<ScanOp>(&r), std::make_unique<ScanOp>(&s));
  };
  Relation via_hash = MustExecute(hash, 1024);
  EXPECT_REL_EQ(MustExecute(nested, 1024), via_hash);
  ExpectSpilledJoinEquals({0, 1}, {1, 0}, Lt(Attr(2), Attr(5)), r, s,
                          via_hash);
}

TEST_P(SortDifferentialTest, SpilledHashJoinEmptySides) {
  std::mt19937_64 rng(GetParam());
  Relation r = RandomIntRelation(rng, 2, 100, 20, 5);
  Relation empty(r.schema());
  Relation none(r.schema().Concat(r.schema()));
  for (auto [left, right] : {std::pair<const Relation*, const Relation*>{
                                 &r, &empty},
                             {&empty, &r},
                             {&empty, &empty}}) {
    ExpectSpilledJoinEquals({0}, {0}, nullptr, *left, *right, none);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortDifferentialTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// --- Contract details the sweep cannot see. ------------------------------

TEST(SortContractTest, ReopenReplaysTheStream) {
  Relation r = IntRel("r", {{3}, {1}, {2}}, 1);
  SortOp op({0}, {false}, 0, 0, std::make_unique<ScanOp>(&r));
  for (int round = 0; round < 2; ++round) {
    auto got = DrainOrdered(op, {0}, {false});
    ASSERT_OK(got);
    EXPECT_REL_EQ(*got, r);
  }
}

// The run reader decodes what SpillRun writes, and a length prefix it
// cannot trust is Corruption before it allocates: 0xFFFFFFFF once asked
// for a 4 GiB buffer and died of std::bad_alloc.
TEST(SortRunReaderTest, ReadsEntriesThenEndsCleanly) {
  std::string run;
  for (int64_t v : {1, 2}) {
    storage::Encoder payload;
    payload.PutTuple(IntTuple({v}));
    payload.PutU64(static_cast<uint64_t>(v) * 10);
    storage::Encoder header;
    header.PutU32(static_cast<uint32_t>(payload.buffer().size()));
    run += header.buffer() + payload.buffer();
  }
  std::istringstream in(run);
  uint64_t left = run.size();
  std::string payload;
  Row row;
  for (int64_t v : {1, 2}) {
    auto entry = ReadRunEntry(in, &left, "run", &payload, &row);
    ASSERT_OK(entry);
    ASSERT_TRUE(*entry);
    EXPECT_TRUE(row.tuple.Equals(IntTuple({v})));
    EXPECT_EQ(row.count, static_cast<uint64_t>(v) * 10);
  }
  EXPECT_EQ(left, 0u);
  auto end = ReadRunEntry(in, &left, "run", &payload, &row);
  ASSERT_OK(end);
  EXPECT_FALSE(*end);
}

TEST(SortRunReaderTest, LengthPastTheFileIsCorruption) {
  for (uint32_t len : {0xFFFFFFFFu, 9u}) {
    SCOPED_TRACE(len);
    storage::Encoder header;
    header.PutU32(len);
    const std::string run = header.buffer() + "12345678";  // 8 bytes left.
    std::istringstream in(run);
    uint64_t left = run.size();
    std::string payload;
    Row row;
    auto entry = ReadRunEntry(in, &left, "run", &payload, &row);
    EXPECT_EQ(entry.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(in.tellg(), 4) << "read past the header before rejecting it";
  }
}

TEST(SortContractTest, NonFiniteRealsSortWithNaNLast) {
  // NaN sorts after every number (ties with NaN), -0.0 ties with 0.0:
  // ops::Sort, the in-memory and the spilling SortOp all agree, ascending
  // and descending, with and without a weighted LIMIT.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Relation r(RelationSchema("f", {{"x", Type::Real()}, {"k", Type::Int()}}));
  const std::vector<double> xs = {nan, 2.0,  -inf, -0.0, inf,
                                  0.0, nan, -1.0, inf,  2.0};
  for (size_t i = 0; i < xs.size(); ++i) {
    // Tuple i is (xs[i], i mod 3) with multiplicity 1 + (i + 1) mod 2.
    ASSERT_OK(r.Insert(
        Tuple({Value::Real(xs[i]), Value::Int(static_cast<int64_t>(i % 3))}),
        1 + (i + 1) % 2));
  }
  for (bool desc : {false, true}) {
    for (uint64_t limit : {uint64_t{0}, uint64_t{4}}) {
      for (uint64_t spill : {uint64_t{0}, uint64_t{64}}) {
        ExpectSortAgreement(r, {0}, {desc}, limit, spill, false);
      }
    }
  }
  // The three smallest by %1 are -inf (×2) then -1.0 (×1); descending,
  // the first two are the NaN tuple's (×4, both NaNs merged).
  auto bottom = ops::Sort({0}, {false}, 3, r);
  ASSERT_OK(bottom);
  EXPECT_EQ(bottom->Multiplicity(Tuple({Value::Real(-inf), Value::Int(2)})),
            2u);
  EXPECT_EQ(bottom->Multiplicity(Tuple({Value::Real(-1.0), Value::Int(1)})),
            1u);
  auto top = ops::Sort({0}, {true}, 2, r);
  ASSERT_OK(top);
  for (const auto& [tuple, count] : *top) {
    EXPECT_TRUE(std::isnan(tuple.at(0).real_value())) << tuple.ToString();
  }
}

TEST(SortContractTest, SpilledReopenReplaysAndRewritesRuns) {
  std::mt19937_64 rng(7);
  Relation r = RandomIntRelation(rng, 2, 200, 50, 3);
  SortOp op({0}, {false}, 0, 64, std::make_unique<ScanOp>(&r));
  auto first = DrainOrdered(op, {0}, {false});
  ASSERT_OK(first);
  auto second = DrainOrdered(op, {0}, {false});
  ASSERT_OK(second);
  EXPECT_REL_EQ(*first, *second);
  EXPECT_REL_EQ(*first, r);
}

TEST(SortContractTest, RunFilesAreRemovedOnClose) {
  std::mt19937_64 rng(11);
  Relation r = RandomIntRelation(rng, 2, 300, 50, 3);
  // Counts this process's run files only: concurrently running test
  // processes spill into the same temp directory.
  auto leftover = [] {
    const std::string prefix =
        "mra_sort_" + std::to_string(::getpid()) + "_";
    size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::temp_directory_path())) {
      if (entry.path().filename().string().rfind(prefix, 0) == 0) ++n;
    }
    return n;
  };
  size_t before = leftover();
  {
    SortOp op({0}, {false}, 0, 64, std::make_unique<ScanOp>(&r));
    ASSERT_OK(op.Open());
    EXPECT_GT(op.spilled_runs(), 0u);
    EXPECT_GT(leftover(), before);
    op.Close();
  }
  EXPECT_EQ(leftover(), before);
}

TEST(SortContractTest, BudgetArmsSpillWithoutExplicitKnob) {
  // No sort_spill_bytes, but an armed budget: the operator must derive a
  // threshold (budget/2) and complete by spilling instead of being killed.
  std::mt19937_64 rng(13);
  Relation r = RandomIntRelation(rng, 2, 400, 100, 3);
  ExecContext ctx;
  ctx.SetMemoryBudget(2048);
  SortOp op({0}, {false}, 0, 0, std::make_unique<ScanOp>(&r));
  op.SetExecContext(&ctx);
  auto got = ExecuteToRelation(op, 1024);
  // The sort must complete by spilling under budget pressure, not die.
  ASSERT_OK(got);
  EXPECT_GT(op.spilled_runs(), 0u);
  EXPECT_REL_EQ(*got, r);
  EXPECT_EQ(ctx.mem_used(), 0u) << "all charged bytes must be released";
}

// --- Interpreter-level: the sort node through the full stack. ------------

std::unique_ptr<Database> SeedDb(uint64_t seed) {
  auto db = std::move(Database::Open({}).value());
  lang::Interpreter interp(db.get());
  EXPECT_OK(interp.ExecuteScript(
      "create r(a: int, b: int, c: string);", nullptr));
  std::mt19937_64 rng(seed);
  std::string script = "insert(r, {";
  for (int i = 0; i < 80; ++i) {
    script += (i ? "," : "") + std::string("(") +
              std::to_string(static_cast<int64_t>(rng() % 40)) + "," +
              std::to_string(static_cast<int64_t>(rng() % 9)) + ",'" +
              std::string(1, static_cast<char>('a' + rng() % 5)) + "')" +
              (rng() % 4 == 0 ? " : 3" : "");
  }
  script += "});";
  EXPECT_OK(interp.ExecuteScript(script, nullptr));
  return db;
}

TEST(SortLanguageTest, XraSortMatchesDefinitionalAcrossConfigs) {
  auto db = SeedDb(21);
  const Relation& r = **db->catalog().GetRelation("r");
  auto expected_full = ops::Sort({2, 0}, {false, true}, 0, r);
  ASSERT_OK(expected_full);
  auto expected_top = ops::Sort({1}, {true}, 10, r);
  ASSERT_OK(expected_top);
  for (uint64_t spill : {uint64_t{0}, uint64_t{64}}) {
    ExecConfig options;
    options.exec.sort_spill_bytes = spill;
    lang::Interpreter interp(db.get(), options);
    auto full = interp.Query("sort([%3, -%1], r)");
    ASSERT_OK(full);
    EXPECT_REL_EQ(*full, *expected_full);
    auto top = interp.Query("sort([-%2], r, 10)");
    ASSERT_OK(top);
    EXPECT_REL_EQ(*top, *expected_top);
  }
}

TEST(SortLanguageTest, ExplainAnalyzeAnnotatesSpillRuns) {
  auto db = SeedDb(22);
  ExecConfig options;
  options.exec.sort_spill_bytes = 64;
  lang::Interpreter interp(db.get(), options);
  auto text = interp.ExplainAnalyze("sort([%1], r)");
  ASSERT_OK(text);
  EXPECT_NE(text->find("spill:"), std::string::npos) << *text;
  // Without the knob, no spill note appears.
  lang::Interpreter plain(db.get());
  auto quiet = plain.ExplainAnalyze("sort([%1], r)");
  ASSERT_OK(quiet);
  EXPECT_EQ(quiet->find("spill:"), std::string::npos) << *quiet;
}

TEST(SortLanguageTest, SpilledHashJoinMatchesInMemory) {
  auto db = SeedDb(23);
  lang::Interpreter hash_interp(db.get());
  auto via_hash = hash_interp.Query("join(%2 = %5, r, r)");
  ASSERT_OK(via_hash);

  ExecConfig options;
  options.exec.sort_spill_bytes = 64;
  lang::Interpreter spill_interp(db.get(), options);
  auto explained = spill_interp.ExplainAnalyze("join(%2 = %5, r, r)");
  ASSERT_OK(explained);
  EXPECT_NE(explained->find("HashJoin"), std::string::npos) << *explained;
  EXPECT_NE(explained->find("chunks]"), std::string::npos) << *explained;
  auto via_spill = spill_interp.Query("join(%2 = %5, r, r)");
  ASSERT_OK(via_spill);
  EXPECT_REL_EQ(*via_spill, *via_hash);
}

// A reopened join re-derives its spill note from the planner annotation
// instead of appending a second one.
TEST(SortLanguageTest, ReopenedSpilledJoinShowsOneSpillNote) {
  std::mt19937_64 rng(25);
  Relation r = RandomIntRelation(rng, 2, 60, 10, 3);
  ASSERT_GT(r.distinct_size(), 1u);
  HashJoinOp op({0}, {0}, nullptr, std::make_unique<ScanOp>(&r),
                std::make_unique<ScanOp>(&r), 1, kDefaultBatchSize, 64);
  op.set_annotation("keys: %1=%3");
  for (int round = 0; round < 2; ++round) {
    ASSERT_OK(ExecuteToRelation(op));
    EXPECT_EQ(op.annotation(), "keys: %1=%3, spill: " +
                                   std::to_string(op.spilled_chunks()) +
                                   " chunks");
  }
}

// --- Knob round-trip: registry and session SET. -------------------------

// The join-strategy knob is gone: every equi-join is a hash join that
// spills at run time, so its old name is an unknown knob.
const std::string kRemovedStrategyKnob = std::string("sort_merge") + "_join";

TEST(SortKnobTest, SpillAndStrategyKnobsRoundTrip) {
  ExecConfig cfg;
  EXPECT_NE(cfg.Describe().find("sort_spill_bytes"), std::string::npos);
  EXPECT_EQ(cfg.Describe().find(kRemovedStrategyKnob), std::string::npos);
  EXPECT_EQ(ExecConfig::KnobNames().size(), 8u);

  ASSERT_OK(cfg.Set("sort_spill_bytes", "4096"));
  EXPECT_EQ(cfg.exec.sort_spill_bytes, 4096u);
  auto got = cfg.Get("sort_spill_bytes");
  ASSERT_OK(got);
  EXPECT_EQ(*got, "4096");

  EXPECT_EQ(cfg.Set(kRemovedStrategyKnob, "true").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cfg.Get(kRemovedStrategyKnob).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_FALSE(cfg.Set("sort_spill_bytes", "not-a-number").ok());
}

TEST(SortKnobTest, SessionSetStatementReachesTheExecutor) {
  auto db = SeedDb(24);
  lang::Interpreter interp(db.get());
  // The XRA `set` statement (the same path as the REPL's \set) arms the
  // spill knob mid-session; the very next sort and join must spill.
  ASSERT_OK(interp.ExecuteScript("set sort_spill_bytes = 64;", nullptr));
  auto text = interp.ExplainAnalyze("sort([%1], r)");
  ASSERT_OK(text);
  EXPECT_NE(text->find("spill:"), std::string::npos) << *text;
  text = interp.ExplainAnalyze("join(%1 = %4, r, r)");
  ASSERT_OK(text);
  EXPECT_NE(text->find("chunks]"), std::string::npos) << *text;
  ASSERT_OK(interp.SetOption("sort_spill_bytes", "0"));
  text = interp.ExplainAnalyze("sort([%1], r)");
  ASSERT_OK(text);
  EXPECT_EQ(text->find("spill:"), std::string::npos) << *text;
  text = interp.ExplainAnalyze("join(%1 = %4, r, r)");
  ASSERT_OK(text);
  EXPECT_EQ(text->find("spill:"), std::string::npos) << *text;

  EXPECT_EQ(interp.SetOption(kRemovedStrategyKnob, "true").code(),
            StatusCode::kInvalidArgument);
}

// --- Keyed sort: emission-order parity. ----------------------------------
//
// SortOp orders through per-row key words and falls back to
// CompareForSort only where every word ties.  These cases pin the exact
// emitted sequence — not just the bag — to a plain std::sort under
// CompareForSort over the child's rows, on the values where a key word is
// least like the value: shared string prefixes, embedded NUL and high-bit
// bytes, integer extremes, infinities, NaNs of either sign and payload,
// and -0.0 against 0.0.

// Bitwise value identity: unlike Value::Equals it tells -0.0 from 0.0
// and one NaN from another, so a swapped tie shows up.
bool SameBits(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  if (a.kind() != TypeKind::kReal) return a.Equals(b);
  double x = a.real_value(), y = b.real_value();
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

std::string RowText(const Row& row) {
  std::string text = row.tuple.ToString() + " x" + std::to_string(row.count);
  for (const Value& v : row.tuple.values()) {
    if (v.kind() == TypeKind::kReal && std::signbit(v.real_value())) {
      text += " (negative sign bit)";
    }
  }
  return text;
}

// The rows `op` emits, in order, pulled `batch_size` rows at a time.
std::vector<Row> Emitted(PhysicalOperator& op, size_t batch_size) {
  std::vector<Row> rows;
  EXPECT_OK(op.Open());
  RowBatch batch(batch_size);
  while (true) {
    EXPECT_OK(op.NextBatch(batch));
    if (batch.empty()) break;
    rows.insert(rows.end(), batch.begin(), batch.end());
  }
  op.Close();
  return rows;
}

// The sort's child: a scan of `input`, or a projecting scan onto
// `columns`, which emits tuples that the projection collapses as separate
// rows.
PhysOpPtr Source(const Relation& input, const std::vector<size_t>& columns) {
  if (columns.empty()) return std::make_unique<ScanOp>(&input);
  auto schema = input.schema().Project(columns);
  EXPECT_OK(schema);
  return std::make_unique<ScanOp>(&input, columns, *schema);
}

// The forced-spill arm's run cap: a run per row while that stays a few
// hundred run files, else about 16 runs that each sort many rows.
uint64_t SpillArmBytes(size_t rows) { return rows <= 512 ? 64 : rows * 16; }

// The reference emission: the child's rows in scan order,
// std::stable_sort'ed under CompareForSort, then clamped to the weighted
// LIMIT.
std::vector<Row> ReferenceEmission(const Relation& input,
                                   const std::vector<size_t>& keys,
                                   const std::vector<bool>& desc,
                                   uint64_t limit,
                                   const std::vector<size_t>& columns = {}) {
  std::vector<Row> rows = Emitted(*Source(input, columns), 1024);
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    return ops::CompareForSort(a.tuple, b.tuple, keys, desc) < 0;
  });
  if (limit == 0) return rows;
  std::vector<Row> clamped;
  uint64_t left = limit;
  for (Row& row : rows) {
    if (left == 0) break;
    row.count = std::min(row.count, left);
    left -= row.count;
    clamped.push_back(std::move(row));
  }
  return clamped;
}

// Keyed SortOp (in memory and forced spill, every batch size) emits exactly
// the reference sequence, and its folded bag is ops::Sort's.  A non-empty
// `columns` sorts a projecting scan of `input` onto those columns.
void ExpectOrderParity(const Relation& input, const std::vector<size_t>& keys,
                       const std::vector<bool>& desc, uint64_t limit,
                       const std::vector<size_t>& columns = {}) {
  std::vector<Row> want = ReferenceEmission(input, keys, desc, limit, columns);
  auto projected = columns.empty() ? Result<Relation>(input)
                                   : ops::ProjectIndexes(columns, input);
  ASSERT_OK(projected);
  auto bag = ops::Sort(keys, desc, limit, *projected);
  ASSERT_OK(bag);
  for (uint64_t spill : {uint64_t{0}, SpillArmBytes(input.distinct_size())}) {
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
      SortOp op(keys, desc, limit, spill, Source(input, columns));
      std::vector<Row> got = Emitted(op, batch_size);
      if (spill > 0 && input.distinct_size() > 1) {
        EXPECT_GT(op.spilled_runs(), 0u);
      }
      const std::string where = "spill=" + std::to_string(spill) +
                                " batch=" + std::to_string(batch_size) +
                                " limit=" + std::to_string(limit);
      ASSERT_EQ(got.size(), want.size()) << where;
      Relation folded(projected->schema());
      for (size_t i = 0; i < got.size(); ++i) {
        bool same = got[i].count == want[i].count &&
                    got[i].tuple.arity() == want[i].tuple.arity();
        for (size_t a = 0; same && a < got[i].tuple.arity(); ++a) {
          same = SameBits(got[i].tuple.at(a), want[i].tuple.at(a));
        }
        ASSERT_TRUE(same) << where << ": row " << i << " is "
                          << RowText(got[i]) << ", want " << RowText(want[i]);
        folded.InsertUnchecked(got[i].tuple, got[i].count);
      }
      EXPECT_REL_EQ(folded, *bag) << where;
    }
  }
}

// Every key in both directions, then with a weighted LIMIT landing inside
// the third emitted row.
void ExpectOrderParityAllDirections(const Relation& input,
                                    const std::vector<size_t>& keys) {
  const size_t n = keys.size();
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    std::vector<bool> desc(n);
    for (size_t i = 0; i < n; ++i) desc[i] = (mask >> i) & 1;
    ExpectOrderParity(input, keys, desc, 0);
    std::vector<Row> order = ReferenceEmission(input, keys, desc, 0);
    if (order.size() >= 3) {
      uint64_t limit = order[0].count + order[1].count + 1;
      ExpectOrderParity(input, keys, desc, limit);
    }
  }
}

TEST(SortKeyedOrderTest, StringsSharingLongPrefixesNulAndHighBitBytes) {
  Relation r(RelationSchema("s", {{"s", Type::String()}, {"k", Type::Int()}}));
  const std::vector<std::string> strs = {
      "abcdefghZ",   "abcdefghA",        "abcdefgh",
      std::string("abcdefgh\0", 9),     std::string("abcdefgh\0\0", 10),
      "abcdefgh\xff", "abcdefgh\x80zz", "abcdefghijklmnopq",
      "abcdefghijklmnopZ", "",           std::string("\0", 1),
      std::string("a\0b", 3),           "a",
      "\xff\xfe",    "\x80",          "\x7f",
      "zzzzzzzzzzzzzzzz", "zzzzzzzz",         "a\xffz",
      "a\x80",        "a\x7f",          "b"};
  for (size_t i = 0; i < strs.size(); ++i) {
    // Shared strings under different k: the tiebreak decides among them.
    ASSERT_OK(r.Insert(Tuple({Value::Str(strs[i]),
                              Value::Int(static_cast<int64_t>(i % 4))}),
                       1 + i % 3));
    ASSERT_OK(r.Insert(Tuple({Value::Str(strs[i]),
                              Value::Int(static_cast<int64_t>(17 - i))}),
                       2));
  }
  ExpectOrderParityAllDirections(r, {0});
  // A key after the string: equal 8-byte prefixes must not let %2 decide.
  ExpectOrderParityAllDirections(r, {0, 1});
  ExpectOrderParityAllDirections(r, {1, 0});
}

TEST(SortKeyedOrderTest, IntegerExtremesInfinitiesNaNsAndSignedZeros) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  double payload_nan;
  const uint64_t payload_bits = 0x7ff8000000000001ULL;
  std::memcpy(&payload_nan, &payload_bits, sizeof(payload_nan));
  Relation r(RelationSchema("x", {{"i", Type::Int()},
                                  {"x", Type::Real()},
                                  {"k", Type::Int()}}));
  const std::vector<int64_t> ints = {std::numeric_limits<int64_t>::min(),
                                     std::numeric_limits<int64_t>::max(),
                                     -1, 0, 1,
                                     std::numeric_limits<int64_t>::min() + 1};
  const std::vector<double> reals = {-0.0, 0.0,  nan,  -nan, payload_nan,
                                     inf,  -inf, -1.5, 1.5,
                                     std::numeric_limits<double>::denorm_min(),
                                     -std::numeric_limits<double>::max()};
  int64_t k = 0;
  for (double x : reals) {
    for (int copy = 0; copy < 2; ++copy) {
      // The same real (bitwise) under two ints and a descending k, so ties
      // on %2 are decided by %1 then %3 and a swapped pair is visible.
      ASSERT_OK(r.Insert(
          Tuple({Value::Int(ints[static_cast<size_t>(k) % ints.size()]),
                 Value::Real(x), Value::Int(100 - k)}),
          1 + static_cast<uint64_t>(k % 3)));
      ++k;
    }
  }
  // -0.0 against 0.0, and NaNs of every sign and payload, tie on the key;
  // only the tiebreak over %1 and %3 may order them.
  ASSERT_OK(r.Insert(Tuple({Value::Int(0), Value::Real(-0.0), Value::Int(2)}),
                     3));
  ASSERT_OK(r.Insert(Tuple({Value::Int(0), Value::Real(0.0), Value::Int(1)}),
                     2));
  ASSERT_OK(r.Insert(Tuple({Value::Int(0), Value::Real(-nan), Value::Int(1)}),
                     1));
  ASSERT_OK(r.Insert(
      Tuple({Value::Int(0), Value::Real(payload_nan), Value::Int(0)}), 2));
  ASSERT_OK(r.Insert(Tuple({Value::Int(0), Value::Real(nan), Value::Int(2)}),
                     1));
  ExpectOrderParityAllDirections(r, {1});
  ExpectOrderParityAllDirections(r, {0});
  ExpectOrderParityAllDirections(r, {1, 0});
  ExpectOrderParityAllDirections(r, {0, 1, 2});
}

TEST(SortKeyedOrderTest, DecimalDateAndBoolKeysWithMultiKeyTies) {
  Relation r(RelationSchema("d", {{"flag", Type::Bool()},
                                  {"amount", Type::Decimal()},
                                  {"day", Type::Date()},
                                  {"k", Type::Int()}}));
  const std::vector<int64_t> amounts = {std::numeric_limits<int64_t>::min(),
                                        -10000, -1, 0, 1, 12345,
                                        std::numeric_limits<int64_t>::max()};
  const std::vector<int32_t> days = {std::numeric_limits<int32_t>::min(), -1,
                                     0, 1, 19000,
                                     std::numeric_limits<int32_t>::max()};
  std::mt19937_64 rng(29);
  for (int i = 0; i < 120; ++i) {
    ASSERT_OK(r.Insert(
        Tuple({Value::Bool(rng() % 2 == 0),
               Value::DecimalScaled(amounts[rng() % amounts.size()]),
               Value::Date(days[rng() % days.size()]),
               Value::Int(static_cast<int64_t>(rng() % 5))}),
        1 + rng() % 4));
  }
  ExpectOrderParityAllDirections(r, {0});
  ExpectOrderParityAllDirections(r, {1});
  ExpectOrderParityAllDirections(r, {2});
  // Multi-key ties: the bool and date keys tie often, k breaks some, and
  // the whole-tuple tiebreak settles the rest.
  ExpectOrderParityAllDirections(r, {0, 2});
  ExpectOrderParity(r, {0, 2, 3, 1}, {false, true, false, true}, 0);
  ExpectOrderParity(r, {0, 2, 3, 1}, {true, false, true, false}, 9);
  // Five keys: more than the normalized word count, so the tail keys are
  // decided by the fallback alone.
  ExpectOrderParity(r, {3, 0, 2, 1, 3}, {true, false, true, false, false},
                    0);
}

TEST(SortKeyedOrderTest, LimitBoundaryInsideAHeavyRow) {
  // (3, 7) x5 is the third row in %1 order, ascending and descending;
  // LIMITs landing before, inside, at the end of and past it clamp it
  // and stop.
  Relation r = IntRel("r", {{4, 1}, {1, 1}, {2, 2}, {5, 0}}, 2);
  r.InsertUnchecked(IntTuple({3, 7}), 5);
  for (uint64_t limit : {uint64_t{2}, uint64_t{3}, uint64_t{5},
                         uint64_t{7}, uint64_t{8}, uint64_t{9}}) {
    ExpectOrderParity(r, {0}, {false}, limit);
    ExpectOrderParity(r, {0}, {true}, limit);
    ExpectOrderParity(r, {1, 0}, {true, false}, limit);
  }
}

TEST(SortKeyedOrderTest, StableAmongRowsOfOneTupleFromAProjectingScan) {
  // π_{%2}(r) through a projecting scan emits one row per stored tuple, so
  // equal tuples arrive as many rows with different counts.  The sort
  // keeps them in arrival order (a stable sort), in memory and spilled.
  Relation r = IntRel("r", {}, 2);
  std::mt19937_64 rng(31);
  for (int i = 0; i < 3000; ++i) {
    r.InsertUnchecked(IntTuple({i, static_cast<int64_t>(rng() % 12)}),
                      1 + rng() % 9);
  }
  auto schema = r.schema().Project({1});
  ASSERT_OK(schema);
  auto projected = [&] {
    return std::make_unique<ScanOp>(&r, std::vector<size_t>{1}, *schema);
  };
  for (bool desc : {false, true}) {
    auto child = projected();
    std::vector<Row> want = Emitted(*child, 1024);
    std::stable_sort(want.begin(), want.end(),
                     [&](const Row& a, const Row& b) {
                       return ops::CompareForSort(a.tuple, b.tuple, {0},
                                                  {desc}) < 0;
                     });
    for (uint64_t spill : {uint64_t{0}, uint64_t{4096}}) {
      SortOp op({0}, {desc}, 0, spill, projected());
      std::vector<Row> got = Emitted(op, 1024);
      EXPECT_EQ(op.spilled_runs() > 0, spill > 0);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i].tuple == want[i].tuple &&
                    got[i].count == want[i].count)
            << "desc=" << desc << " spill=" << spill << ": row " << i
            << " is " << RowText(got[i]) << ", want " << RowText(want[i]);
      }
    }
  }
}

TEST_P(SortDifferentialTest, KeyedOrderMatchesCompareForSortOnRandomBags) {
  std::mt19937_64 rng(GetParam());
  Relation input = RandomMixedRelation(rng, 150, 5);
  ExpectOrderParity(input, {3}, {false}, 0);
  ExpectOrderParity(input, {3, 1}, {true, false}, 0);
  ExpectOrderParity(input, {2, 5, 4}, {false, true, false}, 7);
  ExpectOrderParity(input, {0, 1, 2, 3, 4, 5},
                    {true, false, true, false, true, false}, 0);
}

TEST(SortKeyedOrderTest, KeyArrayIsChargedAgainstTheBudget) {
  // Two int keys: each buffered row also holds a 24-byte key-array entry,
  // so a budget that fits the rows alone but not rows plus keys must
  // force the sort to spill where a rows-only charge would not.
  std::mt19937_64 rng(37);
  Relation r = RandomIntRelation(rng, 2, 300, 1000, 2);
  uint64_t row_bytes = 0;
  {
    ScanOp scan(&r);
    for (const Row& row : Emitted(scan, 1024)) {
      row_bytes += sizeof(Row) + row.tuple.arity() * sizeof(Value);
    }
  }
  const uint64_t key_bytes = r.distinct_size() * 3 * sizeof(uint64_t);
  ExecContext ctx;
  // Threshold (budget / 2) sits between the rows' bytes and rows + keys.
  ctx.SetMemoryBudget(2 * (row_bytes + key_bytes / 2));
  SortOp op({0, 1}, {false, false}, 0, 0, std::make_unique<ScanOp>(&r));
  op.SetExecContext(&ctx);
  auto got = ExecuteToRelation(op, 1024);
  ASSERT_OK(got);
  EXPECT_REL_EQ(*got, r);
  EXPECT_GT(op.spilled_runs(), 0u)
      << "the key array did not count toward the spill threshold";
  EXPECT_EQ(ctx.mem_used(), 0u);
}


// --- Radix kernel: emission-order parity at its edges. -------------------
//
// A run of 64 rows or more is ordered by LSD radix passes over the bytes
// of its key words that vary, and the comparator finishes each run of
// entries whose words all tie.  Smaller runs, runs where no byte varies,
// and runs with more varying bytes than log2 n fall back to std::sort.
// These cases cross each boundary, in memory, spilled and under a LIMIT
// (the Top-K heap sorts through the same kernel).

// A relation of `n` tuples drawn by `make`, each with a count of 1 to 3.
Relation Generated(const RelationSchema& schema, size_t n,
                   const std::function<Tuple(std::mt19937_64&)>& make) {
  std::mt19937_64 rng(n + schema.arity());
  Relation r(schema);
  while (r.distinct_size() < n) r.InsertUnchecked(make(rng), 1 + rng() % 3);
  return r;
}

// A LIMIT that keeps about half of `input`'s weight.
uint64_t HalfWeight(const Relation& input) {
  return std::max<uint64_t>(1, input.size() / 2);
}

// Every key in both directions, in full and under a LIMIT of half the
// weight (the heap then sorts about half the rows, and still spills in
// the forced-spill arm).
void ExpectOrderParityEveryDirection(const Relation& input,
                                     const std::vector<size_t>& keys) {
  const size_t n = keys.size();
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    std::vector<bool> desc(n);
    for (size_t i = 0; i < n; ++i) desc[i] = (mask >> i) & 1;
    ExpectOrderParity(input, keys, desc, 0);
    ExpectOrderParity(input, keys, desc, HalfWeight(input));
  }
}

RelationSchema IntSchema(size_t arity) {
  std::vector<Attribute> attrs;
  for (size_t i = 0; i < arity; ++i) {
    attrs.push_back({"a" + std::to_string(i), Type::Int()});
  }
  return RelationSchema("r", attrs);
}

TEST(SortRadixKernelTest, RunSizesAroundTheRadixCutoff) {
  // %1 has two varying bytes (radix from 64 rows on); %2 spans the sign,
  // so all eight of its bytes vary and (%1, %2) needs ten passes: the
  // comparison sort below 512 rows, radix at 10k.
  for (size_t n : {size_t{63}, size_t{64}, size_t{65}, size_t{10000}}) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    Relation r = Generated(IntSchema(3), n, [](std::mt19937_64& rng) {
      return Tuple({Value::Int(static_cast<int64_t>(rng() % 500)),
                    Value::Int(static_cast<int64_t>(rng() % 2'000'001) -
                               1'000'000),
                    Value::Int(static_cast<int64_t>(rng() % 7))});
    });
    ExpectOrderParity(r, {0}, {false}, 0);
    ExpectOrderParity(r, {0}, {true}, HalfWeight(r));
    ExpectOrderParity(r, {0, 1}, {false, true}, 0);
    ExpectOrderParity(r, {1, 0}, {true, false}, HalfWeight(r));
  }
}

TEST(SortRadixKernelTest, HundredThousandRows) {
  Relation r = Generated(IntSchema(3), 100'000, [](std::mt19937_64& rng) {
    return Tuple({Value::Int(static_cast<int64_t>(rng() % 3000)),
                  Value::Int(static_cast<int64_t>(rng() % 100'001) - 50'000),
                  Value::Int(static_cast<int64_t>(rng() % 50))});
  });
  ExpectOrderParity(r, {0, 1}, {false, true}, 0);
}

TEST(SortRadixKernelTest, NegativeIntsVaryTheTopByte) {
  // Small negative and positive ints differ in every byte of their word,
  // the top one included; the extremes sit at both ends of it.
  Relation r = Generated(IntSchema(2), 1000, [](std::mt19937_64& rng) {
    int64_t v = static_cast<int64_t>(rng() % 201) - 100;
    if (rng() % 50 == 0) {
      v = rng() % 2 == 0 ? std::numeric_limits<int64_t>::min()
                         : std::numeric_limits<int64_t>::max();
    }
    return Tuple({Value::Int(v), Value::Int(static_cast<int64_t>(rng() % 9))});
  });
  ExpectOrderParityEveryDirection(r, {0});
  ExpectOrderParityEveryDirection(r, {0, 1});
}

TEST(SortRadixKernelTest, EveryKeyEqualLeavesOneTiedRun) {
  // No byte of any key word varies: the whole-tuple tiebreak decides.
  Relation r = Generated(IntSchema(3), 1000, [](std::mt19937_64& rng) {
    return Tuple({Value::Int(7), Value::Int(-3),
                  Value::Int(static_cast<int64_t>(rng() % 100'000))});
  });
  ExpectOrderParityEveryDirection(r, {0});
  ExpectOrderParityEveryDirection(r, {1, 0});
}

TEST(SortRadixKernelTest, RealsWithNaNsSignedZerosAndInfinities) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  double payload_nan;
  const uint64_t payload_bits = 0x7ff8000000000001ULL;
  std::memcpy(&payload_nan, &payload_bits, sizeof(payload_nan));
  const std::vector<double> specials = {nan,  -nan, payload_nan, -0.0,
                                        0.0,  inf,  -inf,
                                        std::numeric_limits<double>::min()};
  Relation r = Generated(
      RelationSchema("x", {{"x", Type::Real()}, {"k", Type::Int()}}), 1000,
      [&](std::mt19937_64& rng) {
        double x = rng() % 3 == 0
                       ? specials[rng() % specials.size()]
                       : static_cast<double>(static_cast<int64_t>(
                             rng() % 2'000'001) - 1'000'000) / 1024.0;
        return Tuple(
            {Value::Real(x), Value::Int(static_cast<int64_t>(rng() % 200))});
      });
  ExpectOrderParityEveryDirection(r, {0});
  ExpectOrderParityEveryDirection(r, {0, 1});
  ExpectOrderParityEveryDirection(r, {1, 0});
}

TEST(SortRadixKernelTest, StringsSharingAnEightBytePrefix) {
  // Four prefixes that differ only in their eighth byte, so one byte of
  // the string's word varies and the rest of each string is decided by
  // the comparator; a few strings end at or inside the prefix.
  Relation r = Generated(
      RelationSchema("s", {{"s", Type::String()}, {"k", Type::Int()}}), 1000,
      [](std::mt19937_64& rng) {
        std::string s = "shipdat" + std::string(1, "AB\x7f\x80"[rng() % 4]);
        const size_t extra = rng() % 6;
        for (size_t i = 0; i < extra; ++i) {
          s.push_back(static_cast<char>(rng() % 4 == 0 ? 0 : 'a' + rng() % 3));
        }
        if (rng() % 40 == 0) s.resize(rng() % 9);
        return Tuple(
            {Value::Str(s), Value::Int(static_cast<int64_t>(rng() % 5))});
      });
  ExpectOrderParityEveryDirection(r, {0});
  ExpectOrderParityEveryDirection(r, {0, 1});
  ExpectOrderParityEveryDirection(r, {1, 0});
}

TEST(SortRadixKernelTest, DescMixesOverMoreThanFourKeys) {
  // Six keys: the first four are normalized (one varying byte each), the
  // last two and the whole-tuple tiebreak are the comparator's.
  Relation r = Generated(IntSchema(6), 3000, [](std::mt19937_64& rng) {
    std::vector<Value> values;
    for (int i = 0; i < 6; ++i) {
      values.push_back(Value::Int(static_cast<int64_t>(rng() % 5)));
    }
    return Tuple(std::move(values));
  });
  ExpectOrderParity(r, {0, 1, 2, 3, 4, 5},
                    {true, false, true, false, true, false}, 0);
  ExpectOrderParity(r, {5, 4, 3, 2, 1, 0},
                    {false, false, true, true, false, true}, HalfWeight(r));
  ExpectOrderParity(r, {3, 1, 4, 0, 5}, {true, true, true, true, true}, 0);
}

TEST(SortRadixKernelTest, RepeatedTuplesAcrossRowsKeepArrivalOrder) {
  // A projecting scan onto (%2, %3) emits one row per stored tuple, so
  // each projected tuple arrives as many rows with counts 1 to 3: equal
  // tuples tie on every word and must keep their arrival order.
  Relation r = Generated(IntSchema(3), 5000, [](std::mt19937_64& rng) {
    return Tuple({Value::Int(static_cast<int64_t>(rng())),
                  Value::Int(static_cast<int64_t>(rng() % 40) - 20),
                  Value::Int(static_cast<int64_t>(rng() % 6))});
  });
  const std::vector<size_t> columns = {1, 2};
  ExpectOrderParity(r, {0}, {false}, 0, columns);
  ExpectOrderParity(r, {1, 0}, {true, false}, 0, columns);
  // Under a LIMIT the Top-K heap keeps its own choice among the rows of
  // one tuple, so the rows of a tuple may split its weight differently:
  // the stream folded over adjacent equal tuples is what must match.
  auto fold_adjacent = [](const std::vector<Row>& rows) {
    std::vector<Row> folded;
    for (const Row& row : rows) {
      if (!folded.empty() && folded.back().tuple == row.tuple) {
        folded.back().count += row.count;
      } else {
        folded.push_back(row);
      }
    }
    return folded;
  };
  const std::vector<size_t> keys = {0, 1};
  const std::vector<bool> desc = {true, true};
  const uint64_t limit = HalfWeight(r);
  std::vector<Row> want =
      fold_adjacent(ReferenceEmission(r, keys, desc, limit, columns));
  for (uint64_t spill : {uint64_t{0}, SpillArmBytes(r.distinct_size())}) {
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
      SortOp op(keys, desc, limit, spill, Source(r, columns));
      std::vector<Row> got = fold_adjacent(Emitted(op, batch_size));
      EXPECT_EQ(op.spilled_runs() > 0, spill > 0);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i].tuple == want[i].tuple &&
                    got[i].count == want[i].count)
            << "spill=" << spill << " batch=" << batch_size << ": row " << i
            << " is " << RowText(got[i]) << ", want " << RowText(want[i]);
      }
    }
  }
}

TEST(SortRadixKernelTest, RadixScratchIsChargedAgainstTheBudget) {
  // Two int keys: a buffered row holds a 24-byte key-array entry and
  // another 24 bytes of radix scratch.  A spill threshold that fits the
  // rows with one entry each but not with both must force a spill.
  Relation r = Generated(IntSchema(2), 2000, [](std::mt19937_64& rng) {
    return Tuple({Value::Int(static_cast<int64_t>(rng() % 1000)),
                  Value::Int(static_cast<int64_t>(rng() % 1000))});
  });
  uint64_t row_bytes = 0;
  {
    ScanOp scan(&r);
    for (const Row& row : Emitted(scan, 1024)) {
      row_bytes += sizeof(Row) + row.tuple.HeapBytes();
    }
  }
  const uint64_t entry_bytes = 3 * sizeof(uint64_t);
  ExecContext ctx;
  // Threshold (budget / 2): rows plus one and a half entries a row.
  ctx.SetMemoryBudget(2 * (row_bytes + r.distinct_size() * entry_bytes * 3 / 2));
  SortOp op({0, 1}, {false, false}, 0, 0, std::make_unique<ScanOp>(&r));
  op.SetExecContext(&ctx);
  auto got = ExecuteToRelation(op, 1024);
  ASSERT_OK(got);
  EXPECT_REL_EQ(*got, r);
  EXPECT_GT(op.spilled_runs(), 0u)
      << "the radix scratch did not count toward the spill threshold";
  EXPECT_EQ(ctx.mem_used(), 0u);
}

}  // namespace
}  // namespace exec
}  // namespace mra
