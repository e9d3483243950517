// E16 — hash kernels vs the hash-free algorithms they replace.
//
// Head-to-head comparisons, each with asserted result identity:
//
//  * equi-join: HashJoinOp (build right, probe left, counts multiply per
//    Def 3.1) against the definitional σ_φ(E1 × E2) nested-loop plan the
//    planner would otherwise emit.  The nested loop is O(|E1|·|E2|), so
//    the join inputs are sized at rows/250 per side (4000 at the 1M
//    default) — large enough that hashing's O(|E1|+|E2|) shows, small
//    enough that the quadratic baseline terminates.
//  * δ (unique): the streaming bag-count kernel against materialise +
//    std::sort + std::unique (a bench-local operator; the engine has no
//    sort-based δ), at the full row count.
//  * − and ∩ on 1 and 4 lanes: the bag-count kernel against draining both
//    inputs to Relations and applying ops::Difference / ops::Intersect (a
//    bench-local operator doing what the engine's materialising − and ∩
//    did), lhs at the full row count and rhs at half of it.
//
// Each row also prints the hash kernel's peak footprint (hashKB).
//
// The acceptance bar for the join and δ is >= 2x at the 1M scale;
// "REGRESSION" is printed when a hash kernel is *slower* than its
// baseline, so the CI smoke run can grep for it.
//
//   $ ./build/bench/e16_hash_ops                  # full 1M-row summary
//   $ ./build/bench/e16_hash_ops --rows 50000     # CI smoke scale

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "bench_util.h"
#include "mra/algebra/ops.h"
#include "mra/exec/hash_ops.h"
#include "mra/exec/operator.h"
#include "mra/expr/scalar_expr.h"

namespace mra {
namespace bench {
namespace {

Relation MakeInput(size_t distinct, int64_t value_range, uint64_t seed,
                   const char* name) {
  util::IntRelationOptions options;
  options.name = name;
  options.distinct_tuples = distinct;
  options.arity = 2;
  options.value_range = value_range;
  options.duplicates = util::DupDistribution::kUniform;
  options.max_multiplicity = 4;
  options.seed = seed;
  return Unwrap(util::MakeIntRelation(options));
}

exec::PhysOpPtr BuildHashJoin(const Relation* left, const Relation* right) {
  return std::make_unique<exec::HashJoinOp>(
      std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
      std::make_unique<exec::ScanOp>(left),
      std::make_unique<exec::ScanOp>(right));
}

exec::PhysOpPtr BuildNestedLoopJoin(const Relation* left,
                                    const Relation* right) {
  return std::make_unique<exec::NestedLoopJoinOp>(
      Eq(Attr(0), Attr(2)), std::make_unique<exec::ScanOp>(left),
      std::make_unique<exec::ScanOp>(right));
}

exec::PhysOpPtr BuildHashDedup(const Relation* input) {
  return std::make_unique<exec::BagCountOp>(
      exec::BagFn::kUnique, std::make_unique<exec::ScanOp>(input), nullptr);
}

exec::PhysOpPtr BuildBagCount(exec::BagFn fn, const Relation* lhs,
                              const Relation* rhs, size_t workers) {
  return std::make_unique<exec::BagCountOp>(
      fn, std::make_unique<exec::ScanOp>(lhs),
      std::make_unique<exec::ScanOp>(rhs), workers);
}

/// − or ∩ by materialisation: drains both inputs to Relations, applies
/// ops::Difference / ops::Intersect and streams the result.
class MaterialisedBagOp final : public exec::PhysicalOperator {
 public:
  MaterialisedBagOp(exec::BagFn fn, exec::PhysOpPtr lhs, exec::PhysOpPtr rhs)
      : fn_(fn), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  const RelationSchema& schema() const override { return lhs_->schema(); }
  std::string_view name() const override { return "MaterialisedBag"; }

 protected:
  Status OpenImpl() override {
    MRA_ASSIGN_OR_RETURN(Relation lhs, exec::ExecuteToRelation(*lhs_));
    MRA_ASSIGN_OR_RETURN(Relation rhs, exec::ExecuteToRelation(*rhs_));
    MRA_ASSIGN_OR_RETURN(result_, fn_ == exec::BagFn::kDifference
                                      ? ops::Difference(lhs, rhs)
                                      : ops::Intersect(lhs, rhs));
    it_ = result_.begin();
    return Status::OK();
  }

  Status NextBatchImpl(exec::RowBatch& out) override {
    for (; it_ != result_.end() && !out.full(); ++it_) {
      exec::Row& slot = out.AppendSlot();
      slot.tuple = it_->first;
      slot.count = it_->second;
    }
    return Status::OK();
  }

  void CloseImpl() override { result_.Clear(); }

 private:
  exec::BagFn fn_;
  exec::PhysOpPtr lhs_;
  exec::PhysOpPtr rhs_;
  Relation result_;
  Relation::const_iterator it_;
};

exec::PhysOpPtr BuildMaterialisedBag(exec::BagFn fn, const Relation* lhs,
                                     const Relation* rhs) {
  return std::make_unique<MaterialisedBagOp>(
      fn, std::make_unique<exec::ScanOp>(lhs),
      std::make_unique<exec::ScanOp>(rhs));
}

/// δ by materialise + std::sort + std::unique: the hash-free baseline.
class SortUniqueOp final : public exec::PhysicalOperator {
 public:
  explicit SortUniqueOp(exec::PhysOpPtr child) : child_(std::move(child)) {}

  const RelationSchema& schema() const override { return child_->schema(); }
  std::string_view name() const override { return "SortUnique"; }

 protected:
  Status OpenImpl() override {
    tuples_.clear();
    pos_ = 0;
    MRA_RETURN_IF_ERROR(child_->Open());
    exec::RowBatch batch;
    while (true) {
      MRA_RETURN_IF_ERROR(child_->NextBatch(batch));
      if (batch.empty()) break;
      for (exec::Row& row : batch) tuples_.push_back(std::move(row.tuple));
    }
    child_->Close();
    std::sort(tuples_.begin(), tuples_.end(),
              [](const Tuple& a, const Tuple& b) { return a.Compare(b) < 0; });
    tuples_.erase(std::unique(tuples_.begin(), tuples_.end(),
                              [](const Tuple& a, const Tuple& b) {
                                return a.Equals(b);
                              }),
                  tuples_.end());
    return Status::OK();
  }

  Status NextBatchImpl(exec::RowBatch& out) override {
    for (; pos_ < tuples_.size() && !out.full(); ++pos_) {
      exec::Row& slot = out.AppendSlot();
      slot.tuple = std::move(tuples_[pos_]);
      slot.count = 1;
    }
    return Status::OK();
  }

  void CloseImpl() override { tuples_.clear(); }

 private:
  exec::PhysOpPtr child_;
  std::vector<Tuple> tuples_;
  size_t pos_ = 0;
};

exec::PhysOpPtr BuildSortDedup(const Relation* input) {
  return std::make_unique<SortUniqueOp>(std::make_unique<exec::ScanOp>(input));
}

/// Drains the tree through the batch protocol, returning the weighted row
/// count so the work cannot be optimised away.
uint64_t Drain(exec::PhysicalOperator& root) {
  MRA_CHECK(root.Open().ok());
  exec::RowBatch batch;
  uint64_t weighted = 0;
  while (true) {
    MRA_CHECK(root.NextBatch(batch).ok());
    if (batch.empty()) break;
    for (const exec::Row& row : batch) weighted += row.count;
  }
  root.Close();
  return weighted;
}

using OpFactory = std::function<exec::PhysOpPtr()>;

/// Wall-clock seconds to drain a freshly built tree.
double SecondsToDrain(const OpFactory& make, uint64_t* weighted_out) {
  exec::PhysOpPtr root = make();
  auto start = std::chrono::steady_clock::now();
  *weighted_out = Drain(*root);
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// Times hash vs legacy, asserts identical result multisets, prints one
/// summary row with the hash kernel's peak footprint, and flags a
/// regression when hash is slower.
void Compare(const char* label, size_t scale, const OpFactory& hash,
             const OpFactory& legacy) {
  exec::PhysOpPtr once = hash();
  Relation hash_result = Unwrap(exec::ExecuteToRelation(*once));
  Relation legacy_result = Unwrap(exec::ExecuteToRelation(*legacy()));
  MRA_CHECK(hash_result.Equals(legacy_result))
      << label << ": hash kernel changed the result multiset";

  // Interleaved best-of-5 per side: wall-clock seconds, so a scheduler
  // hiccup pollutes one run of one side, not the ratio.
  uint64_t hash_weighted = 0, legacy_weighted = 0;
  double hash_s = 1e30, legacy_s = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    hash_s = std::min(hash_s, SecondsToDrain(hash, &hash_weighted));
    legacy_s = std::min(legacy_s, SecondsToDrain(legacy, &legacy_weighted));
  }
  MRA_CHECK(hash_weighted == legacy_weighted)
      << label << ": kernels drained different bag cardinalities";

  double speedup = legacy_s / hash_s;
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.2fx", speedup);
  Row("%-10s %-10zu %-12.4f %-12.4f %-14llu %-10s %llu", label, scale,
      legacy_s, hash_s, static_cast<unsigned long long>(hash_result.size()),
      ratio,
      static_cast<unsigned long long>(
          (once->metrics().hash_bytes + 1023) / 1024));
  if (speedup < 1.0) {
    Row("REGRESSION: %s hash kernel slower than the legacy operator "
        "(%.2fx)", label, speedup);
  }
}

void VerifySpeedup(size_t rows) {
  Header("E16: hash-based batch kernels",
         "Claim: the hash equi-join beats the definitional nested-loop "
         "sigma(E1 x E2) plan and the streaming hash dedup beats "
         "sort + unique, both >= 2x at the 1M-row scale, and the bag-count "
         "difference / intersect beat materialising both inputs, all with "
         "identical result multisets.");

  // Join inputs: quadratic baseline, so rows/250 distinct tuples per side
  // (>= 2000 so the CI smoke scale still measures something).  A quarter
  // of the key range overlaps, giving a selective but non-empty join.
  size_t side = std::max<size_t>(2000, rows / 250);
  int64_t range = static_cast<int64_t>(side) / 4;
  Relation jl = MakeInput(side, range, 16, "jl");
  Relation jr = MakeInput(side, range, 17, "jr");

  // Dedup input: linear kernels, full scale, heavy duplication (value
  // range rows/8 over 2 attributes keeps distinct keys well below rows).
  Relation d = MakeInput(rows, std::max<int64_t>(2, rows / 8), 18, "d");

  Row("%-10s %-10s %-12s %-12s %-14s %-10s %s", "kernel", "scale",
      "legacy s", "hash s", "result rows", "speedup", "hashKB");
  Compare("join", side, [&] { return BuildHashJoin(&jl, &jr); },
          [&] { return BuildNestedLoopJoin(&jl, &jr); });
  Compare("dedup", rows, [&] { return BuildHashDedup(&d); },
          [&] { return BuildSortDedup(&d); });

  // − and ∩ inputs: a value range of sqrt(rows) per attribute makes the
  // tuple domain about `rows`, so the two sides share most of their keys.
  int64_t set_range =
      std::max<int64_t>(2, static_cast<int64_t>(std::sqrt(double(rows))));
  Relation sl = MakeInput(rows, set_range, 19, "sl");
  Relation sr = MakeInput(rows / 2, set_range, 20, "sr");
  const struct {
    const char* label;
    exec::BagFn fn;
    size_t workers;
  } set_ops[] = {{"diff/1", exec::BagFn::kDifference, 1},
                 {"diff/4", exec::BagFn::kDifference, 4},
                 {"isect/1", exec::BagFn::kIntersect, 1},
                 {"isect/4", exec::BagFn::kIntersect, 4}};
  for (const auto& op : set_ops) {
    Compare(
        op.label, rows,
        [&] { return BuildBagCount(op.fn, &sl, &sr, op.workers); },
        [&] { return BuildMaterialisedBag(op.fn, &sl, &sr); });
  }
  Row("");
  Row("join side=%zu (nested loop is O(n^2); hash is O(n)), dedup "
      "rows=%zu, diff/isect lhs=%zu rhs=%zu (/N = lanes)",
      side, rows, rows, rows / 2);
}

// --- Microbenchmarks at fixed scales. ---

void BM_HashJoin(benchmark::State& state) {
  size_t side = static_cast<size_t>(state.range(0));
  Relation l = MakeInput(side, static_cast<int64_t>(side) / 4, 16, "l");
  Relation r = MakeInput(side, static_cast<int64_t>(side) / 4, 17, "r");
  for (auto _ : state) {
    exec::PhysOpPtr root = BuildHashJoin(&l, &r);
    benchmark::DoNotOptimize(Drain(*root));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(side));
}
BENCHMARK(BM_HashJoin)->Arg(100'000)->Arg(1'000'000);

void BM_HashDedup(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Relation d = MakeInput(rows, std::max<int64_t>(2, rows / 8), 18, "d");
  for (auto _ : state) {
    exec::PhysOpPtr root = BuildHashDedup(&d);
    benchmark::DoNotOptimize(Drain(*root));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_HashDedup)->Arg(100'000)->Arg(1'000'000);

void BM_SortDedup(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Relation d = MakeInput(rows, std::max<int64_t>(2, rows / 8), 18, "d");
  for (auto _ : state) {
    exec::PhysOpPtr root = BuildSortDedup(&d);
    benchmark::DoNotOptimize(Drain(*root));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_SortDedup)->Arg(100'000)->Arg(1'000'000);

void BM_HashGroupBy(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Relation d = MakeInput(rows, std::max<int64_t>(2, rows / 8), 18, "d");
  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "s"},
                               {AggKind::kCnt, 0, "n"}};
  RelationSchema schema =
      Unwrap(ops::GroupBySchema({0}, aggs, d.schema()));
  for (auto _ : state) {
    auto root = std::make_unique<exec::HashGroupByOp>(
        std::vector<size_t>{0}, aggs, schema,
        std::make_unique<exec::ScanOp>(&d));
    benchmark::DoNotOptimize(Drain(*root));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_HashGroupBy)->Arg(100'000)->Arg(1'000'000);

}  // namespace
}  // namespace bench
}  // namespace mra

int main(int argc, char** argv) {
  size_t rows = 1'000'000;
  // Strip --rows N before benchmark::Initialize sees (and rejects) it.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  mra::bench::VerifySpeedup(rows);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mra::bench::DumpMetricsJson("E16");
  return 0;
}
