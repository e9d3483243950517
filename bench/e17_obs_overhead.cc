// E17 — observability overhead: the E15 1M-row scan → filter → project
// batch pipeline with the full observability stack armed (per-operator
// wall-time measurement, exec.op_batch_us / exec.query_us histogram
// recording, trace spans, slow-query logging) versus everything off.
//
// The claim backing "operator timing on by default" in mra_serverd: the
// hot-path cost is two steady_clock reads plus one lock-free histogram
// Observe per NextBatch call, amortised over RowBatch::capacity rows —
// under 3% end to end.  The summary block times both modes best-of-5,
// asserts identical drained cardinalities, and prints "REGRESSION" when
// the overhead crosses 3%, so the CI smoke run can grep for it.
//
//   $ ./build/bench/e17_obs_overhead                  # full 1M-row summary
//   $ ./build/bench/e17_obs_overhead --rows 50000     # CI smoke scale

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "mra/exec/operator.h"
#include "mra/expr/scalar_expr.h"
#include "mra/obs/metrics.h"
#include "mra/obs/op_metrics.h"
#include "mra/obs/slow_log.h"
#include "mra/obs/trace.h"

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
  options.seed = 17;
  return Unwrap(util::MakeIntRelation(options));
}

// The E15 pipeline: σ_{%1 < kValueRange/2} then π_{%1}, both stages on
// the batch fast paths — the configuration where per-call bookkeeping is
// the thinnest slice and observability overhead is *most* visible.
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

uint64_t DrainPipeline(exec::PhysicalOperator& root) {
  MRA_CHECK(root.Open().ok());
  uint64_t weighted = 0;
  exec::RowBatch batch(exec::kDefaultBatchSize);
  while (true) {
    MRA_CHECK(root.NextBatch(batch).ok());
    if (batch.empty()) break;
    for (const exec::Row& row : batch) weighted += row.count;
  }
  root.Close();
  return weighted;
}

// One "query" as the server would run it with observability on: a query
// id, a trace span, per-operator timing, the query-latency histogram,
// and a slow-query-log entry at the end.  With `observed` false, none of
// it — the pure pipeline.
double SecondsToDrain(const Relation* input, bool observed,
                      uint64_t* weighted_out) {
  exec::PhysOpPtr root = BuildPipeline(input);
  obs::ScopedExecTiming timing(observed);
  auto start = std::chrono::steady_clock::now();
  if (observed) {
    obs::ScopedQueryId qid(obs::NextQueryId());
    obs::ScopedSpan span("bench.drain");
    *weighted_out = DrainPipeline(*root);
    uint64_t latency_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    obs::MetricsRegistry::Global()
        .GetHistogram("exec.query_us")
        ->Observe(latency_us);
    if (obs::SlowQueryLog::Global().ShouldLog(latency_us)) {
      obs::SlowQueryEntry entry;
      entry.stats.query_id = obs::CurrentQueryId();
      entry.stats.total_us = latency_us;
      entry.stats.exec_us = latency_us;
      entry.stats.result_rows = *weighted_out;
      entry.source = "bench: scan->filter->project drain";
      obs::SlowQueryLog::Global().Record(std::move(entry));
    }
  } else {
    *weighted_out = DrainPipeline(*root);
  }
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

void BM_PipelineDrain(benchmark::State& state) {
  Relation input = MakePipelineInput(100'000);
  bool observed = state.range(0) != 0;
  obs::ScopedExecTiming timing(observed);
  for (auto _ : state) {
    exec::PhysOpPtr root = BuildPipeline(&input);
    benchmark::DoNotOptimize(DrainPipeline(*root));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.distinct_size()));
}
BENCHMARK(BM_PipelineDrain)->Arg(0)->Arg(1);

void VerifyOverhead(size_t rows) {
  Header("E17: observability overhead",
         "Claim: the full observability stack (operator timing, latency "
         "histograms, trace spans, slow-query log) costs < 3% on the E15 "
         "1M-row batch pipeline.");
  Relation input = MakePipelineInput(rows);

  // Observed runs trace and slow-log like a served query would.
  obs::Tracer::Global().SetEnabled(true);
  obs::Tracer::Global().Clear();
  obs::SlowQueryLog::Global().SetThresholdMs(0);

  // Interleaved best-of-5 per mode: wall-clock seconds, so guard against
  // scheduler hiccups polluting either side of the ratio.
  double off_s = 1e30;
  double on_s = 1e30;
  uint64_t off_weighted = 0;
  uint64_t on_weighted = 0;
  for (int rep = 0; rep < 5; ++rep) {
    off_s = std::min(off_s, SecondsToDrain(&input, false, &off_weighted));
    on_s = std::min(on_s, SecondsToDrain(&input, true, &on_weighted));
  }
  MRA_CHECK(off_weighted == on_weighted)
      << "observability changed the drained bag cardinality";

  obs::Tracer::Global().SetEnabled(false);
  obs::Tracer::Global().Clear();
  obs::SlowQueryLog::Global().SetThresholdMs(-1);
  obs::SlowQueryLog::Global().Clear();

  double overhead_pct = (on_s - off_s) / off_s * 100.0;
  Row("%-12s %-12s %-12s %-14s %-10s", "rows", "obs-off s", "obs-on s",
      "rows/s obs-on", "overhead");
  Row("%-12zu %-12.3f %-12.3f %-14.3g %.2f%%", rows, off_s, on_s,
      static_cast<double>(rows) / on_s, overhead_pct);
  if (overhead_pct >= 3.0) {
    Row("REGRESSION: observability overhead %.2f%% >= 3%% budget",
        overhead_pct);
  }
  Row("");
  Row("drained: %llu weighted rows under both modes",
      static_cast<unsigned long long>(on_weighted));
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
  mra::bench::VerifyOverhead(rows);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mra::bench::DumpMetricsJson("E17");
  return 0;
}
