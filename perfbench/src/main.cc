// mra_perfbench: the engine's end-to-end benchmark (see ../README.md).
//
//   mra_perfbench --workload analytic|serve|ingest --seed N --seconds S
//                 --trace 0|1 [--out-dir DIR]
//   mra_perfbench --selftest --seed N
//
// A run prints context lines and every metric it measured (name, value,
// unit, sample count), then, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  It exits 1 when an
// output check failed.

#include <cmath>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "data.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (tracing off).
const MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"}, {"p50_ms", "ms"},       {"p90_ms", "ms"},
    {"setup_s", "s"},     {"peak_rss_mb", "MiB"},
};

// The per-layer metrics of a traced run.  A layer a workload does not
// touch reports 0.  The read_* and write_amp metrics are ingest's reader
// and WAL numbers; they are end-to-end in meaning but exist on one
// workload only, so they travel with the per-layer set.
const MetricSpec kPerLayer[] = {
    {"sql.parse_ms", "ms"},
    {"sql.translate_ms", "ms"},
    {"lang.parse_ms", "ms"},
    {"lang.render_ms", "ms"},
    {"lang.bind_ms", "ms"},
    {"opt.optimize_ms", "ms"},
    {"opt.qerror_max", "ratio"},
    {"stats.analyze_s", "s"},
    {"exec.lower_ms", "ms"},
    {"exec.run_ms", "ms"},
    {"exec.release_ms", "ms"},
    {"exec.rows_examined_per_row", "ratio"},
    {"exec.hash_build_rows", "count"},
    {"exec.hash_probe_rows", "count"},
    {"analytic.q1_ms", "ms"},
    {"analytic.q3_ms", "ms"},
    {"analytic.q5_ms", "ms"},
    {"analytic.distinct_ms", "ms"},
    {"analytic.orderby_ms", "ms"},
    {"parallel.cpu_per_wall", "ratio"},
    {"parallel.tasks", "count"},
    {"parallel.shed", "count"},
    {"txn.begin_ms", "ms"},
    {"txn.stmt_ms", "ms"},
    {"txn.commit_ms", "ms"},
    {"storage.encode_ms", "ms"},
    {"storage.wal_append_ms", "ms"},
    {"storage.wal_bytes_per_commit", "B"},
    {"storage.delta_bytes_per_commit", "B"},
    {"net.ping_rtt_ms", "ms"},
    {"net.encode_ms", "ms"},
    {"net.decode_ms", "ms"},
    {"net.bytes_per_op", "B"},
    {"net.trailer_query_ms", "ms"},
    {"setup.generate_s", "s"},
    {"setup.load_s", "s"},
    {"setup.connect_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.replay_vs_real", "ratio"},
    {"host.ref_ms", "ms"},
    {"read_ops_per_s", "1/s"},
    {"read_p50_ms", "ms"},
    {"read_p90_ms", "ms"},
    {"write_amp", "ratio"},
};

// Threads each workload keeps busy (client and server side).
int WorkloadThreads(const std::string& workload) {
  if (workload == "analytic") return 2;  // session + one pool lane
  if (workload == "serve") return 2;     // client + server session
  return 4;  // writer + reader connections and their server sessions
}

std::string Num(double v) {
  std::ostringstream out;
  out << std::setprecision(15) << v;
  return out.str();
}

// Prints every measured metric, then the JSON result line.
void Print(const RunOptions& options, Report& report) {
  // Layers a workload does not touch report 0, so every run carries the
  // whole per-layer set.
  if (options.trace) {
    for (const MetricSpec& m : kPerLayer) {
      if (!report.Has(m.name)) report.Set(m.name, 0, m.unit, 0);
    }
  }
  std::cout << "# workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace
            << " threads=" << WorkloadThreads(options.workload)
            << " host_cores=" << std::thread::hardware_concurrency() << "\n";
  for (const std::string& note : report.notes()) {
    std::cout << "# " << note << "\n";
  }
  for (const auto& [name, m] : report.metrics()) {
    std::cout << std::left << std::setw(32) << name << " " << std::setw(14)
              << Num(m.value) << " " << std::setw(6) << m.unit
              << " n=" << m.samples << "\n";
  }
  bool complete = true;
  std::ostringstream metrics;
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    auto it = report.metrics().find(spec.name);
    double value = 0;
    if (it == report.metrics().end() || !std::isfinite(it->second.value)) {
      complete = false;
    } else {
      value = it->second.value;
    }
    metrics << (first ? "" : ", ") << "\"" << spec.name
            << "\": {\"value\": " << Num(value) << ", \"unit\": \""
            << spec.unit << "\"}";
    first = false;
  };
  if (options.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m);
  }
  if (!complete) report.Fail("a reported metric is missing or not finite");
  std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
}

// Determinism self-test: the same seed gives identical data and op
// sequences, another seed different data.  (That exact counts repeat across
// whole runs is checked by test_determinism.py.)
struct Digests {
  uint64_t customer, orders, lineitem, oracle, streams;
  uint64_t served, lookups, ingest, brackets;
};

Digests ComputeDigests(uint64_t seed) {
  Digests d{};
  const TpchData tpch = MakeTpch(seed);
  d.customer = BagDigest(tpch.customer);
  d.orders = BagDigest(tpch.orders);
  d.lineitem = BagDigest(tpch.lineitem);
  const TpchOracle oracle = ComputeTpchOracle(tpch);
  for (const mra::Relation& r : oracle.expected) {
    d.oracle = Mix(d.oracle + BagDigest(r));
  }
  for (uint64_t op = 0; op < 100; ++op) {
    for (Query q : StreamOrder(seed, op)) {
      d.streams = Mix(d.streams + static_cast<uint64_t>(q) + 1);
    }
  }
  d.served = BagDigest(OrderRows(seed, 0, kServeRows, kServeCustomers));
  for (uint64_t op = 0; op < 1000; ++op) {
    d.lookups = Mix(d.lookups + static_cast<uint64_t>(
                                    LookupKey(seed, op, kServeCustomers)));
  }
  d.ingest = BagDigest(OrderRows(seed, 0, kIngestWindow, kIngestCustomers));
  for (uint64_t p = 0; p < 20; ++p) {
    d.brackets =
        Mix(d.brackets + std::hash<std::string>{}(BracketText(seed, p)));
  }
  return d;
}

int SelfTest(uint64_t seed) {
  const Digests a = ComputeDigests(seed);
  const Digests b = ComputeDigests(seed);
  const Digests c = ComputeDigests(seed + 1);
  struct Field {
    const char* name;
    uint64_t Digests::*member;
  };
  const Field fields[] = {
      {"customer", &Digests::customer},
      {"orders", &Digests::orders},
      {"lineitem", &Digests::lineitem},
      {"oracle", &Digests::oracle},
      {"stream order", &Digests::streams},
      {"serve data", &Digests::served},
      {"lookup keys", &Digests::lookups},
      {"ingest data", &Digests::ingest},
      {"bracket text", &Digests::brackets},
  };
  int failures = 0;
  for (const Field& f : fields) {
    const bool same_ok = a.*f.member == b.*f.member;
    const bool differ_ok = a.*f.member != c.*f.member;
    std::cout << (same_ok && differ_ok ? "ok   " : "FAIL ") << f.name
              << ": seed " << seed << " twice "
              << (same_ok ? "identical" : "DIFFERENT") << ", seed "
              << seed + 1 << " " << (differ_ok ? "different" : "IDENTICAL")
              << "\n";
    failures += same_ok && differ_ok ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::cerr << "usage: mra_perfbench --workload analytic|serve|ingest "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
               "       mra_perfbench --selftest --seed N\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  options.out_dir = ".bench_build/out";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else {
        return Usage();
      }
    } catch (const std::exception&) {
      return Usage();
    }
  }
  if (selftest) return SelfTest(options.seed);
  if (options.seconds <= 0) return Usage();

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << options.out_dir << ": " << ec.message()
              << "\n";
    return 2;
  }
  Report report;
  if (options.workload == "analytic") {
    RunAnalytic(options, &report);
  } else if (options.workload == "serve") {
    RunServe(options, &report);
  } else if (options.workload == "ingest") {
    RunIngest(options, &report);
  } else {
    return Usage();
  }
  Print(options, report);
  return report.correct() ? 0 : 1;
}
