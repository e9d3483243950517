// Tests for the observability layer: metrics registry (counters, gauges,
// histograms, snapshot exports), trace spans and query-id attribution,
// the slow-query log, and the per-operator metrics collected by the
// PhysicalOperator wrappers.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "mra/exec/hash_ops.h"
#include "mra/exec/operator.h"
#include "mra/obs/metrics.h"
#include "mra/obs/op_metrics.h"
#include "mra/obs/slow_log.h"
#include "mra/obs/trace.h"
#include "test_util.h"

namespace mra {
namespace obs {
namespace {

using ::mra::testing::IntRel;

TEST(CounterTest, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, MovesBothWays) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(HistogramTest, BucketBoundariesAreLogLinear) {
  // The exact region: one bucket per value below kSubBuckets.
  for (size_t i = 0; i < Histogram::kSubBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketUpperBound(i), i);
    EXPECT_EQ(Histogram::BucketFor(i), i);
  }
  // First octave group continues the exact region: [16, 31] map to
  // width-1 buckets, so index still equals value there.
  for (uint64_t v = 16; v <= 31; ++v) {
    EXPECT_EQ(Histogram::BucketFor(v), v);
    EXPECT_EQ(Histogram::BucketUpperBound(v), v);
  }
  // Group 4 covers [128, 255] in 16 width-8 sub-buckets.
  EXPECT_EQ(Histogram::BucketFor(128), 64u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), 135u);
  EXPECT_EQ(Histogram::BucketFor(255), 79u);
  EXPECT_EQ(Histogram::BucketUpperBound(79), 255u);
  // The last bucket is unbounded and absorbs everything past the range.
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            UINT64_MAX);
  EXPECT_EQ(Histogram::BucketFor(UINT64_MAX), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, BucketsAreContiguousAndOrdered) {
  // Every value lands in the bucket whose range contains it: upper bound
  // of bucket i is ≥ value, and bucket i-1's upper bound is < value.
  for (uint64_t v : {0ull, 1ull, 15ull, 16ull, 17ull, 100ull, 1000ull,
                     4096ull, 65537ull, 1000000ull, 123456789ull}) {
    size_t i = Histogram::BucketFor(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(i)) << "value " << v;
    if (i > 0) {
      EXPECT_GT(v, Histogram::BucketUpperBound(i - 1)) << "value " << v;
    }
  }
  // Upper bounds strictly increase over the bounded range.
  for (size_t i = 1; i + 1 < Histogram::kNumBuckets; ++i) {
    EXPECT_GT(Histogram::BucketUpperBound(i),
              Histogram::BucketUpperBound(i - 1));
  }
}

TEST(HistogramTest, ObservationsLandInTheRightBucket) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(1);
  h.Observe(7);
  h.Observe(100);  // Group 3, width 4: bucket 57 covers [100, 103].
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum_micros(), 109u);
  EXPECT_EQ(h.max_micros(), 100u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(7), 1u);
  EXPECT_EQ(h.bucket(57), 1u);
}

TEST(HistogramTest, RelativeErrorStaysUnderSubBucketWidth) {
  // The defining HDR property: the bucket upper bound over-reports any
  // recorded value by at most 1/kSubBuckets (6.25%).
  for (uint64_t v = 1; v < 2'000'000; v = v * 3 / 2 + 1) {
    uint64_t upper = Histogram::BucketUpperBound(Histogram::BucketFor(v));
    EXPECT_GE(upper, v);
    EXPECT_LE(static_cast<double>(upper - v),
              static_cast<double>(v) / Histogram::kSubBuckets)
        << "value " << v << " upper " << upper;
  }
}

TEST(HistogramTest, QuantilesTrackTheDistribution) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Observe(v);
  HistogramData d = h.Snapshot();
  // Bucketed quantiles over-report by at most one sub-bucket width.
  EXPECT_GE(d.Quantile(0.50), 500u);
  EXPECT_LE(d.Quantile(0.50), 532u);
  EXPECT_GE(d.Quantile(0.95), 950u);
  EXPECT_LE(d.Quantile(0.95), 1011u);
  EXPECT_EQ(d.Quantile(1.0), 1000u);  // Clamped to the observed max.
  EXPECT_EQ(d.Quantile(0.0), Histogram::BucketUpperBound(
                                 Histogram::BucketFor(1)));
  EXPECT_EQ(HistogramData{}.Quantile(0.5), 0u);
}

TEST(HistogramTest, SnapshotsMergeLosslessly) {
  Histogram a;
  Histogram b;
  for (uint64_t v = 0; v < 100; ++v) a.Observe(v);
  for (uint64_t v = 100; v < 200; ++v) b.Observe(v);

  HistogramData merged = a.Snapshot();
  merged.MergeFrom(b.Snapshot());
  EXPECT_EQ(merged.count, 200u);
  EXPECT_EQ(merged.sum_micros, 199u * 200u / 2u);
  EXPECT_EQ(merged.max_micros, 199u);

  // Merging back into a live histogram accumulates the same totals.
  Histogram c;
  c.Merge(a.Snapshot());
  c.Merge(b.Snapshot());
  EXPECT_EQ(c.count(), merged.count);
  EXPECT_EQ(c.sum_micros(), merged.sum_micros);
  EXPECT_EQ(c.max_micros(), merged.max_micros);
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(c.bucket(i), merged.buckets[i]) << "bucket " << i;
  }
}

TEST(HistogramTest, ConcurrentObserveIsLossless) {
  // Exercised under TSan in CI: relaxed atomics must not lose counts.
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kObservations = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kObservations; ++i) {
        h.Observe(static_cast<uint64_t>(t * 131 + i % 97));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kObservations);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += h.bucket(i);
  }
  EXPECT_EQ(bucket_total, h.count());
  EXPECT_EQ(h.max_micros(), 7u * 131u + 96u);
}

TEST(HistogramTest, PrometheusExpositionIsCumulative) {
  MetricsRegistry reg;
  reg.GetCounter("exec.queries")->Inc(3);
  reg.GetGauge("depth")->Set(-2);
  Histogram* h = reg.GetHistogram("exec.query_us");
  h->Observe(5);
  h->Observe(5);
  h->Observe(200);

  std::string prom = reg.RenderPrometheus();
  EXPECT_NE(prom.find("# TYPE mra_exec_queries counter\nmra_exec_queries 3"),
            std::string::npos);
  EXPECT_NE(prom.find("mra_depth -2"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE mra_exec_query_us histogram"),
            std::string::npos);
  // Buckets are cumulative: le="5" has 2, the 200 bucket has all 3.
  EXPECT_NE(prom.find("mra_exec_query_us_bucket{le=\"5\"} 2"),
            std::string::npos);
  uint64_t upper200 = Histogram::BucketUpperBound(Histogram::BucketFor(200));
  EXPECT_NE(prom.find("mra_exec_query_us_bucket{le=\"" +
                      std::to_string(upper200) + "\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("mra_exec_query_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("mra_exec_query_us_sum 210"), std::string::npos);
  EXPECT_NE(prom.find("mra_exec_query_us_count 3"), std::string::npos);
}

TEST(MetricsRegistryTest, ReturnsStablePointersPerName) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x");
  Counter* b = reg.GetCounter("x");
  Counter* c = reg.GetCounter("y");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      Counter* c = reg.GetCounter("shared");
      for (int i = 0; i < kIncrements; ++i) c->Inc();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(reg.GetCounter("shared")->value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsRegistryTest, SnapshotExportsAreDeterministic) {
  MetricsRegistry reg;
  reg.GetCounter("b.count")->Inc(2);
  reg.GetCounter("a.count")->Inc(1);
  reg.GetGauge("depth")->Set(3);
  reg.GetHistogram("lat_us")->Observe(5);

  std::string json1 = reg.RenderJson();
  std::string json2 = reg.RenderJson();
  EXPECT_EQ(json1, json2);
  // Keys are sorted, so a.count precedes b.count.
  EXPECT_LT(json1.find("\"a.count\":1"), json1.find("\"b.count\":2"));
  EXPECT_NE(json1.find("\"gauges\":{\"depth\":3}"), std::string::npos);
  EXPECT_NE(json1.find("\"lat_us\":{\"count\":1,\"sum_us\":5"),
            std::string::npos);

  std::string text = reg.RenderText();
  EXPECT_NE(text.find("a.count 1"), std::string::npos);
  EXPECT_NE(text.find("lat_us count=1 sum_us=5"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("n");
  c->Inc(7);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(reg.GetCounter("n"), c);
  EXPECT_NE(reg.RenderJson().find("\"n\":0"), std::string::npos);
}

TEST(TracerTest, RecordsNestedSpansWithDepth) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(true);
  tracer.Clear();
  {
    ScopedSpan outer("outer");
    ScopedSpan inner("inner");
  }
  tracer.SetEnabled(false);

  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  // Events sort by start time: outer starts first at depth 0.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_GE(events[0].duration_us, events[1].duration_us);

  std::string rendered = tracer.Render();
  EXPECT_NE(rendered.find("outer"), std::string::npos);
  EXPECT_NE(rendered.find("inner"), std::string::npos);
  tracer.Clear();
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(false);
  tracer.Clear();
  { ScopedSpan span("ghost"); }
  EXPECT_TRUE(tracer.Events().empty());
}

TEST(QueryIdTest, NextQueryIdIsMonotonicAndNonzero) {
  uint64_t a = NextQueryId();
  uint64_t b = NextQueryId();
  EXPECT_NE(a, 0u);
  EXPECT_EQ(b, a + 1);
}

TEST(QueryIdTest, ScopedQueryIdNestsAndRestores) {
  EXPECT_EQ(CurrentQueryId(), 0u);
  {
    ScopedQueryId outer(41);
    EXPECT_EQ(CurrentQueryId(), 41u);
    {
      ScopedQueryId inner(42);
      EXPECT_EQ(CurrentQueryId(), 42u);
    }
    EXPECT_EQ(CurrentQueryId(), 41u);
  }
  EXPECT_EQ(CurrentQueryId(), 0u);
}

TEST(QueryIdTest, SpansCaptureTheCurrentIdAndEventsFilterByIt) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(true);
  tracer.Clear();
  {
    ScopedQueryId q1(101);
    ScopedSpan span("first.query");
  }
  {
    ScopedQueryId q2(202);
    ScopedSpan span("second.query");
  }
  { ScopedSpan span("unattributed"); }
  tracer.SetEnabled(false);

  ASSERT_EQ(tracer.Events().size(), 3u);
  std::vector<TraceEvent> only_first = tracer.Events(101);
  ASSERT_EQ(only_first.size(), 1u);
  EXPECT_EQ(only_first[0].name, "first.query");
  EXPECT_EQ(only_first[0].query_id, 101u);

  std::string rendered = tracer.Render(202);
  EXPECT_NE(rendered.find("second.query"), std::string::npos);
  EXPECT_EQ(rendered.find("first.query"), std::string::npos);
  EXPECT_EQ(rendered.find("unattributed"), std::string::npos);
  tracer.Clear();
}

TEST(SlowQueryLogTest, ThresholdGatesRecording) {
  SlowQueryLog log;
  EXPECT_FALSE(log.enabled());  // Disabled by default.
  EXPECT_FALSE(log.ShouldLog(1'000'000'000));

  log.SetThresholdMs(10);
  EXPECT_TRUE(log.enabled());
  EXPECT_FALSE(log.ShouldLog(9'999));
  EXPECT_TRUE(log.ShouldLog(10'000));

  log.SetThresholdMs(0);
  EXPECT_TRUE(log.ShouldLog(0));  // 0 logs everything.
}

TEST(SlowQueryLogTest, EntriesRenderAsJsonLines) {
  SlowQueryLog log;
  log.SetThresholdMs(0);
  SlowQueryEntry entry;
  entry.query_id = 7;
  entry.latency_us = 1500;
  entry.bind_us = 100;
  entry.exec_us = 1300;
  entry.result_rows = 2;
  entry.source = "? select(%3 > 4.5, beer)";
  entry.plan = "Select\n  Scan(beer)";
  entry.events = {"shed"};
  log.Record(entry);

  std::vector<std::string> lines = log.Lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(log.total_logged(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"query_id\":7"), std::string::npos);
  EXPECT_NE(line.find("\"latency_us\":1500"), std::string::npos);
  EXPECT_NE(line.find("\"result_rows\":2"), std::string::npos);
  EXPECT_NE(line.find("select(%3 > 4.5, beer)"), std::string::npos);
  EXPECT_NE(line.find("\"events\":[\"shed\"]"), std::string::npos);
  EXPECT_NE(line.find("\"wall_ms\":"), std::string::npos);  // Auto-stamped.
  // Newlines inside the plan must be escaped — one JSON object per line.
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(SlowQueryLogTest, RingOverwritesOldestBeyondCapacity) {
  SlowQueryLog log;
  log.SetThresholdMs(0);
  for (uint64_t i = 0; i < SlowQueryLog::kCapacity + 10; ++i) {
    SlowQueryEntry entry;
    entry.query_id = i;
    log.Record(entry);
  }
  std::vector<std::string> lines = log.Lines();
  ASSERT_EQ(lines.size(), SlowQueryLog::kCapacity);
  EXPECT_EQ(log.total_logged(), SlowQueryLog::kCapacity + 10);
  // Oldest first: entry 10 survived, 0..9 were overwritten.
  EXPECT_NE(lines.front().find("\"query_id\":10"), std::string::npos)
      << lines.front();
  EXPECT_NE(lines.back().find("\"query_id\":" +
                              std::to_string(SlowQueryLog::kCapacity + 9)),
            std::string::npos)
      << lines.back();
}

TEST(SlowQueryLogTest, OversizedFieldsAreClipped) {
  SlowQueryLog log;
  log.SetThresholdMs(0);
  SlowQueryEntry entry;
  entry.source = std::string(2 * SlowQueryLog::kMaxFieldBytes, 'x');
  log.Record(entry);
  std::vector<std::string> lines = log.Lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_LT(lines[0].size(), 2 * SlowQueryLog::kMaxFieldBytes);
  EXPECT_NE(lines[0].find("truncated"), std::string::npos);
}

TEST(ExecTimingTest, ScopedToggleRestoresPreviousState) {
  ASSERT_FALSE(ExecTimingEnabled());
  {
    ScopedExecTiming on(true);
    EXPECT_TRUE(ExecTimingEnabled());
    {
      ScopedExecTiming off(false);
      EXPECT_FALSE(ExecTimingEnabled());
    }
    EXPECT_TRUE(ExecTimingEnabled());
  }
  EXPECT_FALSE(ExecTimingEnabled());
}

TEST(OperatorMetricsTest, RowCountsAlwaysCollected) {
  Relation r = IntRel("r", {{1}, {1}, {2}}, 1);
  // {1} twice inserts as one distinct tuple with multiplicity 2.
  exec::ScanOp scan(&r);
  auto result = exec::ExecuteToRelation(scan);
  ASSERT_OK(result);
  const OperatorMetrics& m = scan.metrics();
  EXPECT_EQ(m.rows_emitted, r.distinct_size());
  EXPECT_EQ(m.weighted_rows, r.size());
  // Timing was off, so no wall time was measured.
  EXPECT_EQ(m.total_ns(), 0u);
}

TEST(OperatorMetricsTest, WallTimeOnlyWhenTimingEnabled) {
  std::vector<std::vector<int64_t>> rows;
  for (int i = 0; i < 512; ++i) rows.push_back({i});
  Relation r = IntRel("r", rows, 1);
  exec::ScanOp scan(&r);
  ScopedExecTiming timing(true);
  auto result = exec::ExecuteToRelation(scan);
  ASSERT_OK(result);
  EXPECT_GT(scan.metrics().total_ns(), 0u);
}

TEST(OperatorMetricsTest, HashOperatorsReportPeakAndDistinct) {
  Relation r = IntRel("r", {{1}, {1}, {2}, {3}}, 1);
  exec::BagCountOp dedup(exec::BagFn::kUnique,
                         std::make_unique<exec::ScanOp>(&r), nullptr);
  auto result = exec::ExecuteToRelation(dedup);
  ASSERT_OK(result);
  EXPECT_EQ(dedup.metrics().distinct_rows, 3u);
  EXPECT_EQ(dedup.metrics().peak_hash_entries, 3u);
}

}  // namespace
}  // namespace obs
}  // namespace mra
