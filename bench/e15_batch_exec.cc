// E15 — batch-at-a-time execution: NextBatch() with 1024-row batches vs
// the tuple-at-a-time drain (capacity-1 batches) on the canonical scan →
// filter → project pipeline.
//
// The per-row cost of tuple-at-a-time execution is a virtual call plus
// metrics and governance bookkeeping per operator per row; batching
// amortizes both across RowBatch::capacity rows (docs/EXECUTION.md).  Both
// drains take the compiled-predicate and attribute-only-projection fast
// paths.  The summary block times the 1M-row pipeline both ways and
// reports the speedup, and both executions must produce the same multiset
// (asserted).  Prints "REGRESSION" when batching is *slower*, so the CI
// smoke run can grep for it.
//
//   $ ./build/bench/e15_batch_exec                  # full 1M-row summary
//   $ ./build/bench/e15_batch_exec --rows 50000     # CI smoke scale

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "mra/exec/operator.h"
#include "mra/expr/scalar_expr.h"

namespace mra {
namespace bench {
namespace {

constexpr int64_t kValueRange = 1'000'000;

Relation MakePipelineInput(size_t rows) {
  util::IntRelationOptions options;
  options.name = "r";
  options.distinct_tuples = rows;
  options.arity = 2;
  options.value_range = kValueRange;
  options.duplicates = util::DupDistribution::kUniform;
  options.max_multiplicity = 4;
  options.seed = 15;
  return Unwrap(util::MakeIntRelation(options));
}

// σ_{%1 < kValueRange/2} then π_{%1}: ~50% selectivity, both stages on the
// operators' batch fast paths (compiled predicate, attribute-only
// projection).
exec::PhysOpPtr BuildPipeline(const Relation* input) {
  auto filter = std::make_unique<exec::FilterOp>(
      Lt(Attr(0), Lit(kValueRange / 2)),
      std::make_unique<exec::ScanOp>(input));
  RelationSchema out_schema("p", {Attribute{"c1", Type::Int()}});
  std::vector<ExprPtr> exprs;
  exprs.push_back(Attr(0));
  return std::make_unique<exec::ComputeOp>(
      std::move(exprs), std::move(out_schema), std::move(filter));
}

// Pulls every row through the operator tree without materialising a
// result relation: this times the pipeline itself — scan, filter,
// project, and the inter-operator hand-off — which is what the batch
// protocol changes.  (Materialising into a hash Relation costs the same
// per row in both modes and only dilutes the comparison; result identity
// is asserted separately below via ExecuteToRelation.)  Returns the
// multiplicity-weighted row count so the work cannot be optimised away.
uint64_t DrainPipeline(exec::PhysicalOperator& root, size_t batch_size) {
  MRA_CHECK(root.Open().ok());
  uint64_t weighted = 0;
  exec::RowBatch batch(batch_size);
  while (true) {
    MRA_CHECK(root.NextBatch(batch).ok());
    if (batch.empty()) break;
    for (const exec::Row& row : batch) weighted += row.count;
  }
  root.Close();
  return weighted;
}

double SecondsToDrain(const Relation* input, size_t batch_size,
                      uint64_t* weighted_out) {
  exec::PhysOpPtr root = BuildPipeline(input);
  auto start = std::chrono::steady_clock::now();
  *weighted_out = DrainPipeline(*root, batch_size);
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

void BM_ScanFilterProject(benchmark::State& state) {
  // Arg is the batch size; 1 is the tuple-at-a-time drain.
  Relation input = MakePipelineInput(100'000);
  size_t batch_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    exec::PhysOpPtr root = BuildPipeline(&input);
    benchmark::DoNotOptimize(DrainPipeline(*root, batch_size));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.distinct_size()));
}
BENCHMARK(BM_ScanFilterProject)
    ->Arg(1)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(4096);

void VerifySpeedup(size_t rows) {
  Header("E15: batch-at-a-time execution",
         "Claim: pulling 1024-row batches through scan->filter->project "
         "beats the tuple-at-a-time (capacity-1) drain at the 1M-row "
         "scale, with an identical result multiset.");
  Relation input = MakePipelineInput(rows);

  // Result identity first (materialised both ways): the speedup claim is
  // worthless if batching changes the answer.
  exec::PhysOpPtr tuple_root = BuildPipeline(&input);
  Relation tuple_result =
      Unwrap(exec::ExecuteToRelation(*tuple_root, /*batch_size=*/1));
  exec::PhysOpPtr batch_root = BuildPipeline(&input);
  Relation batch_result =
      Unwrap(exec::ExecuteToRelation(*batch_root, exec::kDefaultBatchSize));
  MRA_CHECK(tuple_result.Equals(batch_result))
      << "batched execution changed the result multiset";

  // Best-of-3 per mode: these are wall-clock seconds, so guard against a
  // scheduler hiccup polluting the claim.
  double tuple_s = 1e30;
  double batch_s = 1e30;
  uint64_t tuple_weighted = 0;
  uint64_t batch_weighted = 0;
  for (int rep = 0; rep < 3; ++rep) {
    tuple_s = std::min(tuple_s, SecondsToDrain(&input, 1, &tuple_weighted));
    batch_s = std::min(
        batch_s, SecondsToDrain(&input, exec::kDefaultBatchSize,
                                &batch_weighted));
  }
  MRA_CHECK(tuple_weighted == batch_weighted)
      << "batch sizes drained different bag cardinalities";

  double speedup = tuple_s / batch_s;
  Row("%-12s %-18s %-14s %-16s %-10s", "rows", "tuple-at-a-time s",
      "batch(1024) s", "rows/s batched", "speedup");
  Row("%-12zu %-18.3f %-14.3f %-16.3g %.2fx", rows, tuple_s, batch_s,
      static_cast<double>(rows) / batch_s, speedup);
  if (speedup < 1.0) {
    Row("REGRESSION: batched execution slower than tuple-at-a-time "
        "(%.2fx)", speedup);
  }
  Row("");
  Row("result: %llu rows (%llu distinct), identical at both batch sizes",
      static_cast<unsigned long long>(batch_result.size()),
      static_cast<unsigned long long>(batch_result.distinct_size()));
}

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
  mra::bench::DumpMetricsJson("E15");
  return 0;
}
