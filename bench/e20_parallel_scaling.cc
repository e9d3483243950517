// E20 — morsel-driven intra-query parallel scaling (supersedes E11, which
// measured the old free-standing parallel helpers; docs/PARALLELISM.md).
//
// The claim: at the 1M-row scale the partitioned hash kernels scale with
// worker lanes — the 4-worker join+group-by pipeline runs >= 2x faster
// than 1 worker.
//
// The claim prints a "REGRESSION" line when violated so the CI smoke run
// can grep for it; the check is skipped (with a note) on machines with
// fewer than 4 hardware threads, where a 2x expectation is physically
// meaningless.  A second check covers the small inputs of the `analytic`
// workload: at 10k and 50k rows, 2 lanes must not be slower than 1
// (REGRESSION otherwise; skipped below 2 hardware threads).  Before
// anything is timed, every lane count's result is asserted equal to the
// definitional ops::GroupBy(ops::Join(...)) on a sample small enough for
// its quadratic join, and to the 1-lane result at the measured scale.
// An informational table, with no bar, times the join alone as the plan
// root, drained through NextBatch at 1/2/4 lanes: its build runs on the
// lanes and its probe streams on the calling thread.
//
//   $ ./build/bench/e20_parallel_scaling               # full 1M-row run
//                                                      # + 10k/50k check
//   $ ./build/bench/e20_parallel_scaling --rows 50000  # CI smoke scale

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

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

constexpr size_t kMorsel = 1024;

std::vector<AggSpec> PipelineAggs() {
  return {{AggKind::kSum, 1, "sum_v"}, {AggKind::kCnt, 0, "cnt"}};
}

/// The measured pipeline: Γ_{k, sum, cnt}(jl ⋈_{k=k} jr) — a partitioned
/// build+probe feeding a partitioned two-phase aggregation.
exec::PhysOpPtr BuildPipeline(const Relation* left, const Relation* right,
                              size_t workers) {
  exec::PhysOpPtr join = std::make_unique<exec::HashJoinOp>(
      std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
      std::make_unique<exec::ScanOp>(left),
      std::make_unique<exec::ScanOp>(right), workers, kMorsel);
  RelationSchema schema =
      Unwrap(ops::GroupBySchema({0}, PipelineAggs(), join->schema()));
  return std::make_unique<exec::HashGroupByOp>(
      std::vector<size_t>{0}, PipelineAggs(), schema, std::move(join), workers,
      kMorsel);
}

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

double SecondsToDrain(const std::function<exec::PhysOpPtr()>& make,
                      uint64_t* weighted_out) {
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    exec::PhysOpPtr root = make();
    auto start = std::chrono::steady_clock::now();
    *weighted_out = Drain(*root);
    auto end = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(end - start).count());
  }
  return best;
}

void VerifyScaling(size_t rows) {
  Header("E20: morsel-driven parallel scaling",
         "Claim: the partitioned hash join + group-by pipeline at 1M rows "
         "reaches >= 2x at 4 workers over 1.");

  size_t side = std::max<size_t>(10'000, rows / 2);
  int64_t range = static_cast<int64_t>(side) / 2;
  Relation jl = MakeInput(side, range, 20, "jl");
  Relation jr = MakeInput(side, range, 21, "jr");

  // The definitional join is a nested loop, so the oracle runs on a
  // 2,000-row sample; at full scale every lane count must match one lane.
  Relation sl = MakeInput(2'000, 1'000, 20, "sl");
  Relation sr = MakeInput(2'000, 1'000, 21, "sr");
  Relation oracle = Unwrap(ops::GroupBy(
      {0}, PipelineAggs(), Unwrap(ops::Join(Eq(Attr(0), Attr(2)), sl, sr))));
  Relation reference =
      Unwrap(exec::ExecuteToRelation(*BuildPipeline(&jl, &jr, 1)));
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    MRA_CHECK(Unwrap(exec::ExecuteToRelation(*BuildPipeline(&sl, &sr, workers)))
                  .Equals(oracle))
        << "pipeline diverged from the definitional oracle at workers="
        << workers;
    MRA_CHECK(Unwrap(exec::ExecuteToRelation(*BuildPipeline(&jl, &jr, workers)))
                  .Equals(reference))
        << "pipeline changed the result multiset at workers=" << workers;
  }

  Row("%-10s %-12s %-12s", "workers", "seconds", "speedup");
  uint64_t weighted = 0;
  double one_worker_s = 0.0;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    double s = SecondsToDrain(
        [&] { return BuildPipeline(&jl, &jr, workers); }, &weighted);
    if (workers == 1) one_worker_s = s;
    Row("%-10zu %-12.4f %.2fx", workers, s, one_worker_s / s);
  }
  Row("");

  unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4) {
    Row("note: %u hardware threads < 4 — the 2x scaling check is skipped "
        "on this machine", hw);
    return;
  }
  double four_worker_s = SecondsToDrain(
      [&] { return BuildPipeline(&jl, &jr, 4); }, &weighted);
  double speedup = one_worker_s / four_worker_s;
  Row("4-worker speedup over 1 worker: %.2fx", speedup);
  if (speedup < 2.0) {
    Row("REGRESSION: 4-worker speedup %.2fx below the 2x bar", speedup);
  }
}

exec::PhysOpPtr BuildRootJoin(const Relation* left, const Relation* right,
                              size_t workers) {
  return std::make_unique<exec::HashJoinOp>(
      std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
      std::make_unique<exec::ScanOp>(left),
      std::make_unique<exec::ScanOp>(right), workers, kMorsel);
}

/// The join as the plan root, drained through NextBatch: informational,
/// so it prints no REGRESSION line.
void TimeRootJoin(size_t rows) {
  Header("E20: the join as the plan root, drained through NextBatch",
         "Informational: the build runs on the lanes, the probe streams on "
         "the calling thread; no bar.");
  size_t side = std::max<size_t>(10'000, rows / 2);
  int64_t range = static_cast<int64_t>(side) / 2;
  Relation jl = MakeInput(side, range, 20, "jl");
  Relation jr = MakeInput(side, range, 21, "jr");
  {
    Relation reference =
        Unwrap(exec::ExecuteToRelation(*BuildRootJoin(&jl, &jr, 1)));
    for (size_t workers : {size_t{2}, size_t{4}}) {
      MRA_CHECK(
          Unwrap(exec::ExecuteToRelation(*BuildRootJoin(&jl, &jr, workers)))
              .Equals(reference))
          << "the root join changed the result multiset at workers="
          << workers;
    }
  }
  Row("%-10s %-12s %-12s", "workers", "seconds", "speedup");
  uint64_t weighted = 0;
  double one_worker_s = 0.0;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    double s = SecondsToDrain(
        [&] { return BuildRootJoin(&jl, &jr, workers); }, &weighted);
    if (workers == 1) one_worker_s = s;
    Row("%-10zu %-12.4f %.2fx", workers, s, one_worker_s / s);
  }
  Row("");
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The break-even at small scale: the same pipeline on 1 and 2 lanes,
/// interleaved run by run, compared by median.
void VerifySmallScaleBreakEven() {
  Header("E20: 2 lanes against 1 at small inputs",
         "Claim: at 10k and 50k rows 2 lanes are no slower than 1.");
  Row("%-10s %-12s %-12s %s", "rows", "1-lane ms", "2-lane ms", "speedup");
  std::vector<std::pair<size_t, double>> losses;
  for (size_t rows : {size_t{10'000}, size_t{50'000}}) {
    size_t side = rows / 2;
    Relation jl = MakeInput(side, static_cast<int64_t>(side) / 2, 20, "jl");
    Relation jr = MakeInput(side, static_cast<int64_t>(side) / 2, 21, "jr");
    MRA_CHECK(Unwrap(exec::ExecuteToRelation(*BuildPipeline(&jl, &jr, 2)))
                  .Equals(Unwrap(
                      exec::ExecuteToRelation(*BuildPipeline(&jl, &jr, 1)))))
        << "2 lanes changed the result multiset at " << rows << " rows";
    std::vector<double> one, two;
    for (int rep = 0; rep < 41; ++rep) {
      for (size_t workers : {size_t{1}, size_t{2}}) {
        exec::PhysOpPtr root = BuildPipeline(&jl, &jr, workers);
        auto start = std::chrono::steady_clock::now();
        Drain(*root);
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        (workers == 1 ? one : two).push_back(ms);
      }
    }
    double one_ms = Median(one), two_ms = Median(two);
    Row("%-10zu %-12.3f %-12.3f %.2fx", rows, one_ms, two_ms, one_ms / two_ms);
    if (two_ms > one_ms) losses.emplace_back(rows, one_ms / two_ms);
  }
  Row("");
  if (std::thread::hardware_concurrency() < 2) {
    Row("note: fewer than 2 hardware threads — the break-even check is "
        "skipped on this machine");
    return;
  }
  for (const auto& [rows, speedup] : losses) {
    Row("REGRESSION: 2 lanes slower than 1 at %zu rows (%.2fx)", rows,
        speedup);
  }
}

// --- Microbenchmarks across lane counts. ---

void BM_ParallelPipeline(benchmark::State& state) {
  size_t workers = static_cast<size_t>(state.range(0));
  size_t side = 500'000;
  Relation l = MakeInput(side, static_cast<int64_t>(side) / 2, 20, "l");
  Relation r = MakeInput(side, static_cast<int64_t>(side) / 2, 21, "r");
  for (auto _ : state) {
    exec::PhysOpPtr root = BuildPipeline(&l, &r, workers);
    benchmark::DoNotOptimize(Drain(*root));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(side));
}
BENCHMARK(BM_ParallelPipeline)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

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
  mra::bench::VerifyScaling(rows);
  mra::bench::TimeRootJoin(rows);
  mra::bench::VerifySmallScaleBreakEven();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mra::bench::DumpMetricsJson("E20");
  return 0;
}
