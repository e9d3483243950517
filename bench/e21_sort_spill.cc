// E21 — external sort, weighted Top-K, and the spilling hash join
// (docs/EXECUTION.md "Ordering and spill").
//
// The claims, at the 1M-row scale:
//   * the spilling sort produces the identical bag to the in-memory sort
//     (asserted, not timed) and completes within 20x of it — external
//     merge costs I/O and re-decoding, but must stay in the same decade;
//   * Top-K under a LIMIT beats the full sort by >= 1.5x, because the
//     weighted heap prunes rows that can never reach the top k before
//     they are sorted or spilled;
//   * the hash join forced to spill its build agrees with the in-memory
//     hash join on the same equi-join (asserted) — its time is reported
//     next to the in-memory join's.
//
// Violations print "REGRESSION" lines for the CI smoke grep.
//
//   $ ./build/bench/e21_sort_spill               # full 1M-row run
//   $ ./build/bench/e21_sort_spill --rows 50000  # CI smoke scale

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>

#include "bench_util.h"
#include "mra/exec/hash_ops.h"
#include "mra/exec/operator.h"
#include "mra/exec/sort.h"
#include "mra/expr/scalar_expr.h"

namespace mra {
namespace bench {
namespace {

Relation MakeInput(size_t distinct, uint64_t seed, const char* name) {
  util::IntRelationOptions options;
  options.name = name;
  options.distinct_tuples = distinct;
  options.arity = 2;
  options.value_range = static_cast<int64_t>(distinct) * 4;
  options.duplicates = util::DupDistribution::kUniform;
  options.max_multiplicity = 4;
  options.seed = seed;
  return Unwrap(util::MakeIntRelation(options));
}

// Run cap sized for ~8 merge runs at any --rows scale (a 2-int row buffers
// at roughly 140 bytes): enough fan-in to exercise the k-way merge even in
// the CI smoke run, not so many runs that open file handles dominate.
uint64_t RunBytesFor(size_t rows) {
  return std::max<uint64_t>(rows * 140 / 8, 16 << 10);
}

exec::PhysOpPtr FullSort(const Relation* input, uint64_t spill_bytes) {
  return std::make_unique<exec::SortOp>(
      std::vector<size_t>{1, 0}, std::vector<bool>{false, true}, 0,
      spill_bytes, std::make_unique<exec::ScanOp>(input));
}

exec::PhysOpPtr HashJoin(const Relation* left, const Relation* right,
                         uint64_t spill_bytes) {
  return std::make_unique<exec::HashJoinOp>(
      std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
      std::make_unique<exec::ScanOp>(left),
      std::make_unique<exec::ScanOp>(right), 1, exec::kDefaultBatchSize,
      spill_bytes);
}

exec::PhysOpPtr TopK(const Relation* input, uint64_t limit) {
  return std::make_unique<exec::SortOp>(
      std::vector<size_t>{1, 0}, std::vector<bool>{false, true}, limit,
      /*spill_bytes=*/0, std::make_unique<exec::ScanOp>(input));
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

void VerifySortAndSpill(size_t rows) {
  Header("E21: external sort, Top-K, spilling hash join",
         "Claim: the spilling sort matches the in-memory bag and stays "
         "within 20x of it; Top-K (limit 100) beats the full sort by "
         ">= 1.5x; the spilled hash join agrees with the in-memory one.");

  Relation input = MakeInput(rows, 31, "sortin");
  const uint64_t run_bytes = RunBytesFor(rows);

  // Correctness gates before anything is timed.
  {
    Relation in_memory = Unwrap(exec::ExecuteToRelation(*FullSort(&input, 0)));
    exec::PhysOpPtr spilling_op = FullSort(&input, run_bytes);
    Relation spilled = Unwrap(exec::ExecuteToRelation(*spilling_op));
    MRA_CHECK(spilled.Equals(in_memory))
        << "spilling sort changed the result multiset";
    auto* sort = static_cast<exec::SortOp*>(spilling_op.get());
    Row("spill runs at %zu rows / %llu-byte cap: %zu", rows,
        static_cast<unsigned long long>(run_bytes), sort->spilled_runs());
    if (sort->spilled_runs() == 0) {
      Row("REGRESSION: the spilling configuration never spilled — the "
          "external path went unmeasured");
    }
  }

  Row("%-22s %-12s %-10s", "variant", "seconds", "vs mem");
  uint64_t weighted = 0;
  double mem_s = SecondsToDrain([&] { return FullSort(&input, 0); },
                                &weighted);
  Row("%-22s %-12.4f %-10s", "full sort (memory)", mem_s, "1.00x");
  double spill_s = SecondsToDrain([&] { return FullSort(&input, run_bytes); },
                                  &weighted);
  Row("%-22s %-12.4f %.2fx", "full sort (spill)", spill_s,
      spill_s / mem_s);
  double topk_s = SecondsToDrain([&] { return TopK(&input, 100); },
                                 &weighted);
  Row("%-22s %-12.4f %.2fx", "top-100 (heap)", topk_s, topk_s / mem_s);

  if (spill_s > 20.0 * mem_s) {
    Row("REGRESSION: spilling sort %.1fx over in-memory (budget: 20x)",
        spill_s / mem_s);
  }
  if (mem_s < 1.5 * topk_s) {
    Row("REGRESSION: top-100 only %.2fx faster than the full sort "
        "(bar: 1.5x)", mem_s / topk_s);
  }

  // The hash join in memory and with its build spilled, on a shared key
  // domain.
  size_t side = std::max<size_t>(rows / 4, 10'000);
  Relation jl = MakeInput(side, 32, "jl");
  Relation jr = MakeInput(side, 33, "jr");
  const uint64_t chunk_bytes = RunBytesFor(side);
  {
    Relation in_memory =
        Unwrap(exec::ExecuteToRelation(*HashJoin(&jl, &jr, 0)));
    exec::PhysOpPtr spilling_op = HashJoin(&jl, &jr, chunk_bytes);
    Relation spilled = Unwrap(exec::ExecuteToRelation(*spilling_op));
    MRA_CHECK(spilled.Equals(in_memory))
        << "spilled hash join disagreed with the in-memory one";
    auto* join = static_cast<exec::HashJoinOp*>(spilling_op.get());
    MRA_CHECK_GT(join->spilled_chunks(), size_t{1})
        << "the spilling join configuration never spilled";
    Row("");
    Row("join chunks at %zu build rows / %llu-byte cap: %zu", side,
        static_cast<unsigned long long>(chunk_bytes), join->spilled_chunks());
  }
  double hash_s = SecondsToDrain([&] { return HashJoin(&jl, &jr, 0); },
                                 &weighted);
  double spill_join_s = SecondsToDrain(
      [&] { return HashJoin(&jl, &jr, chunk_bytes); }, &weighted);
  Row("%-22s %-12.4f %-10s", "hash join (memory)", hash_s, "1.00x");
  Row("%-22s %-12.4f %.2fx", "hash join (spill)", spill_join_s,
      spill_join_s / hash_s);
}

// --- Microbenchmarks. ---

void BM_FullSort(benchmark::State& state) {
  // Arg: spill cap in bytes (0 = in-memory).
  uint64_t spill_bytes = static_cast<uint64_t>(state.range(0));
  Relation input = MakeInput(200'000, 31, "bm");
  for (auto _ : state) {
    exec::PhysOpPtr root = FullSort(&input, spill_bytes);
    benchmark::DoNotOptimize(Drain(*root));
  }
  state.SetItemsProcessed(state.iterations() * 200'000);
}
BENCHMARK(BM_FullSort)->Arg(0)->Arg(1 << 20);

void BM_TopK(benchmark::State& state) {
  uint64_t limit = static_cast<uint64_t>(state.range(0));
  Relation input = MakeInput(200'000, 31, "bm");
  for (auto _ : state) {
    exec::PhysOpPtr root = TopK(&input, limit);
    benchmark::DoNotOptimize(Drain(*root));
  }
  state.SetItemsProcessed(state.iterations() * 200'000);
}
BENCHMARK(BM_TopK)->Arg(10)->Arg(1000);

void BM_HashJoinSpill(benchmark::State& state) {
  // Arg: build chunk cap in bytes (0 = in-memory).
  uint64_t spill_bytes = static_cast<uint64_t>(state.range(0));
  Relation jl = MakeInput(100'000, 32, "jl");
  Relation jr = MakeInput(100'000, 33, "jr");
  for (auto _ : state) {
    exec::PhysOpPtr join = HashJoin(&jl, &jr, spill_bytes);
    benchmark::DoNotOptimize(Drain(*join));
  }
  state.SetItemsProcessed(state.iterations() * 200'000);
}
BENCHMARK(BM_HashJoinSpill)->Arg(0)->Arg(1 << 21);

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
  mra::bench::VerifySortAndSpill(rows);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mra::bench::DumpMetricsJson("E21");
  return 0;
}
