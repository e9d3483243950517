// Plumbing shared by the three workloads: the clock, latency samples, the
// report a run prints, and the span recorder of traced runs.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Process CPU time (all threads), from getrusage.
int64_t CpuNs();

/// ru_maxrss of the process, in MiB.
double PeakRssMb();

class HostSpeed;

/// One op type's values (latencies in ms, or set-up times in s), each with
/// the time it was added.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    times_.push_back(NowNs());
  }
  size_t size() const { return values_.size(); }
  double Sum() const;
  /// Linear interpolation between closest ranks; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// Each value times the host scale at the moment it was added.
  Samples Scaled(const HostSpeed& host) const;

 private:
  std::vector<double> values_;
  std::vector<int64_t> times_;
};

/// How fast the host runs during this run.  On a shared host the speed a
/// process gets drifts by ±25% over minutes and swings from second to second
/// (other tenants), which no run length averages away.  So a fixed reference
/// task — sorting and grouping seeded integers, the CPU and cache work the
/// engine does — is timed between ops, off the clock, about every
/// half second, and each end-to-end time is reported scaled to a nominal
/// host on which the task takes kNominalMs, using the task times measured
/// around it.  Program changes move the scaled numbers as they move the raw
/// ones; host drift moves the task as well and largely cancels out.
class HostSpeed {
 public:
  static constexpr double kNominalMs = 30.0;

  /// `threads`: how many threads the workload keeps busy at once; the task
  /// runs on that many threads together and its time is the slowest one's,
  /// as a parallel plan waits for its slowest lane.
  explicit HostSpeed(int threads = 1);

  /// Times the task now if the last sample is older than half a second.
  void MaybeSample();
  void Sample();
  /// Median task time over the run; the nominal time before any sample.
  double median_ms() const;
  size_t samples() const { return samples_.size(); }
  /// Multiply a time that ended at `t_ns` by this (divide a rate) to
  /// express it on the nominal host: kNominalMs over the median of the
  /// kLocalSamples task times nearest to `t_ns`.
  double ScaleAt(int64_t t_ns) const;

 private:
  static constexpr size_t kLocalSamples = 5;
  std::vector<std::vector<uint64_t>> buffers_;  // one per task thread
  std::vector<std::pair<int64_t, double>> samples_;  // (end time, ms)
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch space for database directories and the span file; the
  /// benchmark creates it and removes what it created.
  std::string out_dir;
};

class Report;

/// Set-up times of one workload, one sample per set-up run.  setup_s is
/// their total: generate + load + analyze + connect.
struct SetupParts {
  Samples total_s, generate_s, load_s, analyze_s, connect_s;

  /// setup_s (host-scaled), setup.generate_s, setup.load_s,
  /// stats.analyze_s and setup.connect_s (as measured), each the median over
  /// the set-up runs.
  void ReportTo(Report* report, const HostSpeed& host) const;
};

/// What a run measured and checked.  Metric names are global across
/// workloads; each workload sets the ones it has.
class Report {
 public:
  struct Metric {
    double value = 0;
    std::string unit;
    uint64_t samples = 0;
  };

  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples);
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// A wrong output: recorded, printed to stderr, and the run fails.
  void Fail(const std::string& what);
  bool correct() const { return failures_ == 0; }

  /// An op the engine refused or failed: counted in `failed`, never timed;
  /// the first few are printed to stderr.
  void OpFailed(const std::string& what);

  /// Human-readable context lines printed ahead of the metrics.
  void Note(const std::string& line) { notes_.push_back(line); }
  const std::vector<std::string>& notes() const { return notes_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  uint64_t failures_ = 0;
};

/// Spans of a traced run, recorded by one thread, kept in memory and
/// written out when the run ends.
///
/// In the traced phase every op runs twice: first the real request
/// (timed, never spanned, so tracing cannot slow it), then a replay of the
/// same request text through each module's public calls.  The replay is the
/// traced op (kind kOp); one kLayer span wraps each call, so the layer
/// spans should account for the whole op — trace.coverage is their sum
/// over the op time, and an unattributed gap is a missing span.  kGroup
/// spans bracket a set of layers (one analytic query); kDetail spans break
/// one layer down further (parent = that layer) and are not added again.
/// kHarness spans mark the benchmark's own work inside an op (reading
/// counters, checking a result); it is taken off the op's time.
class SpanLog {
 public:
  enum class Kind { kOp, kGroup, kLayer, kDetail, kHarness };

  struct Span {
    std::string name;
    Kind kind;
    uint32_t id;
    uint32_t parent;  // 0 = none
    uint64_t op;
    int64_t start_ns;
    int64_t end_ns;
  };

  /// Opens a span now; returns its id.
  uint32_t Begin(std::string_view name, Kind kind, uint32_t parent,
                 uint64_t op);
  void End(uint32_t id);
  /// Records an already-timed span.
  uint32_t Add(std::string_view name, Kind kind, uint32_t parent, uint64_t op,
               int64_t start_ns, int64_t end_ns);

  /// Total ms of closed spans named `name`.
  double TotalMs(std::string_view name) const;
  /// Total ms of closed spans of `kind`.
  double TotalMs(Kind kind) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// JSON lines, times in µs relative to the first span.
  bool WriteJsonLines(const std::string& path) const;

  /// RAII layer span.
  class Scope {
   public:
    Scope(SpanLog* log, std::string_view name, uint32_t parent, uint64_t op,
          Kind kind = Kind::kLayer)
        : log_(log), id_(log->Begin(name, kind, parent, op)) {}
    ~Scope() { log_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint32_t id() const { return id_; }

   private:
    SpanLog* log_;
    uint32_t id_;
  };

 private:
  std::vector<Span> spans_;
};

/// ops_per_s, p50_ms and p90_ms of one closed-loop client, host-scaled, and
/// the same as measured under "wall." names.  `prefix` names the op type:
/// "" for the workload's op, "read_" for ingest's reader.  Throughput is ops
/// over the client's busy time (output checks and host samples run between
/// ops and are off the clock).
void ReportLatencies(Report* report, const std::string& prefix,
                     const Samples& ms, const HostSpeed& host);

/// `<span>_ms` per traced op for every layer, group and detail span, plus
/// trace.coverage (layer time over replayed op time), trace.overhead
/// (p50 of the real op in the traced phase over its untraced p50) and
/// trace.replay_vs_real (p50 of the replayed op over p50 of the real op in
/// the traced phase); writes the span file.  `traced_ms` are the real ops
/// of the traced phase.
void ReportTrace(Report* report, const SpanLog& log, const Samples& traced_ms,
                 const Samples& untraced_ms, const std::string& span_path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
