// serve: an in-process net::Server on loopback with the default ExecConfig
// and one client connection.  One op is the XRA point lookup
// select(%2 = k, orders), which returns one customer's ~24 orders out of a
// few thousand rows: framing, parse, bind, optimize, lower, a full scan and
// the result encode dominate.  Read-only, so txn and storage are idle.


#include <map>
#include <memory>

#include "data.h"
#include "mra/obs/metrics.h"
#include "replay.h"
#include "serve_common.h"
#include "workloads.h"

namespace perfbench {

namespace {

using mra::Relation;
using mra::Status;

constexpr int64_t kRows = kServeRows;
constexpr int64_t kCustomers = kServeCustomers;
constexpr int kSetupRuns = 30;
constexpr int kWarmupOps = 200;
constexpr uint64_t kExactOps = 256;
// The untraced phase restarts database, server and connection this often.
// A process's lookup speed settles into one of a few levels for its
// lifetime (placement of its threads and memory on a shared host, ±15%
// between otherwise identical runs); fresh state every few seconds averages
// several levels into each run.
constexpr double kSegmentSeconds = 4;

}  // namespace

void RunServe(const RunOptions& options, Report* report) {
  HostSpeed host;
  SetupParts setup;
  std::unique_ptr<ServedDatabase> served;
  auto make = [&](SetupParts* parts) {
    served.reset();
    auto made = ServedDatabase::Make(
        {}, 1, [&] { return OrderRows(options.seed, 0, kRows, kCustomers); },
        parts);
    if (!made.ok()) {
      report->Fail("setup: " + made.status().ToString());
      return false;
    }
    served = std::move(*made);
    return true;
  };
  for (int i = 0; i < kSetupRuns; ++i) {
    if (!make(&setup)) return;
  }
  host.Sample();

  std::map<int64_t, Relation> expected;
  for (int64_t i = 0; i < kRows; ++i) {
    const auto row = static_cast<uint64_t>(i);
    const int64_t key = OrderCustomer(options.seed, row, kCustomers);
    auto [it, fresh] = expected.try_emplace(key, OrdersSchema());
    it->second.InsertUnchecked(OrderRow(options.seed, row, kCustomers),
                               OrderMult(row));
  }
  report->Note("data: " + std::to_string(kRows) + " orders over " +
               std::to_string(kCustomers) + " customers");

  uint64_t next_op = 0;
  // One lookup; returns its latency in ms, or a negative value on failure.
  auto lookup = [&](uint64_t op) -> double {
    ++report->attempted;
    const int64_t key = LookupKey(options.seed, op, kCustomers);
    const std::string text = LookupText(key);
    const int64_t t0 = NowNs();
    mra::Result<Relation> result = served->client(0).Query(text);
    const int64_t t1 = NowNs();
    if (!result.ok()) {
      report->OpFailed("lookup " + std::to_string(op) + ": " +
                       result.status().ToString());
      return -1;
    }
    auto want = expected.find(key);
    const uint64_t want_rows = want == expected.end() ? 0 : want->second.size();
    if (result->size() != want_rows ||
        (want != expected.end() && !result->Equals(want->second))) {
      report->Fail("lookup of customer " + std::to_string(key) + " returned " +
                   std::to_string(result->size()) + " rows, generator has " +
                   std::to_string(want_rows));
    }
    return NsToMs(t1 - t0);
  };

  for (int i = 0; i < kWarmupOps; ++i) lookup(next_op++);
  report->attempted = 0;
  report->failed = 0;

  Samples untraced;
  const double phase_s = PhaseSeconds(options);
  int64_t deadline = NowNs() + static_cast<int64_t>(phase_s * 1e9);
  int64_t segment_end = NowNs() + static_cast<int64_t>(kSegmentSeconds * 1e9);
  while (NowNs() < deadline) {
    const double ms = lookup(next_op++);
    if (ms >= 0) untraced.Add(ms);
    host.MaybeSample();
    if (NowNs() >= segment_end) {
      SetupParts unused;
      if (!make(&unused)) return;
      segment_end = NowNs() + static_cast<int64_t>(kSegmentSeconds * 1e9);
    }
  }
  ReportLatencies(report, "", untraced, host);
  setup.ReportTo(report, host);

  if (options.trace) {
    SpanLog log;
    Samples traced;
    ExecCounts exact, all;
    uint64_t traced_ops = 0, wire_bytes = 0, trailer_us = 0;
    mra::obs::Counter* bytes_in =
        mra::obs::MetricsRegistry::Global().GetCounter("net.bytes_in");
    mra::obs::Counter* bytes_out =
        mra::obs::MetricsRegistry::Global().GetCounter("net.bytes_out");
    // The traced ops are their own seeded sequence, so the exact counts
    // over its first ops do not depend on how many untraced ops ran.
    next_op = kTracedOpBase;
    deadline = NowNs() + static_cast<int64_t>(phase_s * 1e9);
    while (NowNs() < deadline) {
      const uint64_t op = next_op++;
      const uint64_t bytes0 = bytes_in->value() + bytes_out->value();
      const double ms = lookup(op);
      if (ms < 0) continue;
      wire_bytes += bytes_in->value() + bytes_out->value() - bytes0;
      const auto& trailer = served->client(0).last_query_stats();
      if (trailer.has_value()) trailer_us += trailer->total_us;
      traced.Add(ms);
      ExecCounts counts;
      {
        SpanLog::Scope op_span(&log, "serve.lookup", 0, op,
                               SpanLog::Kind::kOp);
        Status s = ReplayServerRead(
            served.get(), 0, LookupText(LookupKey(options.seed, op, kCustomers)),
            &log, op_span.id(), op, &counts);
        if (!s.ok()) report->Fail("replay: " + s.ToString());
      }
      AccumulateCounts(counts, traced_ops++ < kExactOps ? &exact : nullptr,
                       &all);
    }
    if (traced_ops < kExactOps) {
      report->Fail("traced phase ran " + std::to_string(traced_ops) +
                   " lookups; the exact counts need " +
                   std::to_string(kExactOps));
    }
    report->Set("net.bytes_per_op",
                traced_ops > 0 ? static_cast<double>(wire_bytes) /
                                     static_cast<double>(traced_ops)
                               : 0,
                "B", traced_ops);
    // Cross-check: the server's own bind..exec time from the reply trailer,
    // against the replayed lang.bind + opt.optimize + exec.lower + exec.run.
    report->Set("net.trailer_query_ms",
                traced_ops > 0 ? static_cast<double>(trailer_us) / 1e3 /
                                     static_cast<double>(traced_ops)
                               : 0,
                "ms", traced_ops);
    ReportExecCounts(report, exact, kExactOps, all, traced_ops);
    ReportTrace(report, log, traced, untraced,
                options.out_dir + "/spans-serve.jsonl");
  }
  served.reset();
  report->Set("peak_rss_mb", PeakRssMb(), "MiB", 1);
}

}  // namespace perfbench
