#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

namespace perfbench {

int64_t CpuNs() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(u.ru_utime) + ns(u.ru_stime);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void HostSpeed::MaybeSample() {
  if (samples_.empty() || NsToS(NowNs() - samples_.back().first) >= 0.5) {
    Sample();
  }
}

namespace {

// The reference task: sort 256k seeded integers, then group a quarter of
// them by key.  It runs in a buffer allocated once, so it leaves the heap —
// and peak_rss_mb — as it found them.
void ReferenceTask(std::vector<uint64_t>* keys) {
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint64_t& k : *keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  std::sort(keys->begin(), keys->end());
  std::array<uint64_t, 4093> groups{};
  for (size_t i = 0; i < keys->size(); i += 4) {
    groups[(*keys)[i] % groups.size()] += i;
  }
  volatile uint64_t sink = groups[17] + (*keys)[keys->size() / 2];
  (void)sink;
}

}  // namespace

HostSpeed::HostSpeed(int threads)
    : buffers_(static_cast<size_t>(std::max(threads, 1)),
               std::vector<uint64_t>(size_t{1} << 18)) {}

void HostSpeed::Sample() {
  const int64_t t0 = NowNs();
  std::vector<std::thread> others;
  for (size_t i = 1; i < buffers_.size(); ++i) {
    others.emplace_back(ReferenceTask, &buffers_[i]);
  }
  ReferenceTask(&buffers_[0]);
  for (std::thread& t : others) t.join();
  const int64_t t1 = NowNs();
  samples_.emplace_back(t1, NsToMs(t1 - t0));
}

double HostSpeed::median_ms() const {
  Samples all;
  for (const auto& [t, ms] : samples_) all.Add(ms);
  return samples_.empty() ? kNominalMs : all.Median();
}

double HostSpeed::ScaleAt(int64_t t_ns) const {
  if (samples_.empty()) return 1.0;
  // Samples are in time order: widen a window around t_ns to the nearest
  // kLocalSamples.
  size_t hi = static_cast<size_t>(
      std::lower_bound(samples_.begin(), samples_.end(),
                       std::make_pair(t_ns, 0.0)) -
      samples_.begin());
  size_t lo = hi;
  while (hi - lo < std::min(kLocalSamples, samples_.size())) {
    const bool take_lo =
        hi == samples_.size() ||
        (lo > 0 && t_ns - samples_[lo - 1].first < samples_[hi].first - t_ns);
    take_lo ? --lo : ++hi;
  }
  Samples local;
  for (size_t i = lo; i < hi; ++i) local.Add(samples_[i].second);
  return kNominalMs / local.Median();
}

Samples Samples::Scaled(const HostSpeed& host) const {
  Samples out;
  for (size_t i = 0; i < values_.size(); ++i) {
    out.values_.push_back(values_[i] * host.ScaleAt(times_[i]));
    out.times_.push_back(times_[i]);
  }
  return out;
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - std::floor(pos));
}

void SetupParts::ReportTo(Report* report, const HostSpeed& host) const {
  const uint64_t n = total_s.size();
  report->Set("setup_s", total_s.Scaled(host).Median(), "s", n);
  report->Set("wall.setup_s", total_s.Median(), "s", n);
  report->Set("setup.generate_s", generate_s.Median(), "s", n);
  report->Set("setup.load_s", load_s.Median(), "s", n);
  report->Set("stats.analyze_s", analyze_s.Median(), "s", n);
  report->Set("setup.connect_s", connect_s.Median(), "s", n);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::Fail(const std::string& what) {
  // The first few failures say what went wrong; the count says how often.
  if (++failures_ <= 10) std::cerr << "CHECK FAILED: " << what << "\n";
}

void Report::OpFailed(const std::string& what) {
  if (++failed <= 10) std::cerr << "OP FAILED: " << what << "\n";
}

uint32_t SpanLog::Begin(std::string_view name, Kind kind, uint32_t parent,
                        uint64_t op) {
  const int64_t now = NowNs();
  return Add(name, kind, parent, op, now, -1);
}

void SpanLog::End(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }

uint32_t SpanLog::Add(std::string_view name, Kind kind, uint32_t parent,
                      uint64_t op, int64_t start_ns, int64_t end_ns) {
  const auto id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(
      Span{std::string(name), kind, id, parent, op, start_ns, end_ns});
  return id;
}

double SpanLog::TotalMs(std::string_view name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && s.name == name) ns += s.end_ns - s.start_ns;
  }
  return NsToMs(ns);
}

double SpanLog::TotalMs(Kind kind) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && s.kind == kind) ns += s.end_ns - s.start_ns;
  }
  return NsToMs(ns);
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  static const char* kKinds[] = {"op", "group", "layer", "detail",
                                 "harness"};
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"kind\":\""
        << kKinds[static_cast<int>(s.kind)] << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"start_us\":" << (s.start_ns - epoch) / 1000.0
        << ",\"end_us\":" << (s.end_ns - epoch) / 1000.0 << "}\n";
  }
  return static_cast<bool>(out);
}

void ReportLatencies(Report* report, const std::string& prefix,
                     const Samples& ms, const HostSpeed& host) {
  if (ms.size() == 0) report->Fail("no " + prefix + "op completed");
  const Samples scaled = ms.Scaled(host);
  for (const char* kind : {"", "wall."}) {
    const Samples& v = kind[0] == 0 ? scaled : ms;
    const double busy_s = v.Sum() / 1e3;
    report->Set(kind + prefix + "ops_per_s",
                busy_s > 0 ? static_cast<double>(v.size()) / busy_s : 0,
                "1/s", v.size());
    report->Set(kind + prefix + "p50_ms", v.Median(), "ms", v.size());
    report->Set(kind + prefix + "p90_ms", v.Quantile(0.9), "ms", v.size());
  }
  report->Set("host.ref_ms", host.median_ms(), "ms", host.samples());
}

void ReportTrace(Report* report, const SpanLog& log, const Samples& traced_ms,
                 const Samples& untraced_ms, const std::string& span_path) {
  const auto ops = static_cast<double>(traced_ms.size());
  std::map<std::string, bool> names;
  for (const SpanLog::Span& s : log.spans()) {
    if (s.kind == SpanLog::Kind::kLayer || s.kind == SpanLog::Kind::kDetail ||
        s.kind == SpanLog::Kind::kGroup) {
      names[s.name] = true;
    }
  }
  for (const auto& [name, unused] : names) {
    report->Set(name + "_ms", ops > 0 ? log.TotalMs(name) / ops : 0, "ms",
                traced_ms.size());
  }
  // Replayed op time, less the harness work inside it.
  std::map<uint64_t, int64_t> op_ns;
  for (const SpanLog::Span& s : log.spans()) {
    if (s.end_ns < 0) continue;
    if (s.kind == SpanLog::Kind::kOp) op_ns[s.op] += s.end_ns - s.start_ns;
    if (s.kind == SpanLog::Kind::kHarness) op_ns[s.op] -= s.end_ns - s.start_ns;
  }
  Samples replayed_ms;
  for (const auto& [op, ns] : op_ns) replayed_ms.Add(NsToMs(ns));
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double coverage =
      ratio(log.TotalMs(SpanLog::Kind::kLayer), replayed_ms.Sum());
  report->Set("trace.coverage", coverage, "ratio", replayed_ms.size());
  if (coverage < 0.9 || coverage > 1.1) {
    report->Fail("trace.coverage " + std::to_string(coverage) +
                 " is outside [0.9, 1.1]: a layer has no span");
  }
  report->Set("trace.overhead",
              ratio(traced_ms.Median(), untraced_ms.Median()), "ratio",
              traced_ms.size());
  report->Set("trace.replay_vs_real",
              ratio(replayed_ms.Median(), traced_ms.Median()), "ratio",
              replayed_ms.size());
  if (!log.WriteJsonLines(span_path)) {
    report->Fail("cannot write span file " + span_path);
  } else {
    report->Note("spans: " + span_path);
  }
}

}  // namespace perfbench
