#include "mra/obs/slow_log.h"

#include <chrono>

#include "mra/obs/metrics.h"

namespace mra {
namespace obs {

namespace {

void AppendClipped(std::string& out, const std::string& s) {
  if (s.size() <= SlowQueryLog::kMaxFieldBytes) {
    AppendJsonString(out, s);
    return;
  }
  std::string clipped = s.substr(0, SlowQueryLog::kMaxFieldBytes);
  clipped += "…(truncated)";
  AppendJsonString(out, clipped);
}

}  // namespace

std::string SlowQueryEntry::ToJsonLine() const {
  std::string out;
  out.reserve(256 + source.size() + plan.size());
  out += "{\"query_id\":";
  out += std::to_string(stats.query_id);
  out += ",\"wall_ms\":";
  out += std::to_string(wall_ms);
  out += ",\"latency_us\":";
  out += std::to_string(stats.total_us);
  out += ",\"bind_us\":";
  out += std::to_string(stats.bind_us);
  out += ",\"optimize_us\":";
  out += std::to_string(stats.optimize_us);
  out += ",\"lower_us\":";
  out += std::to_string(stats.lower_us);
  out += ",\"exec_us\":";
  out += std::to_string(stats.exec_us);
  out += ",\"result_rows\":";
  out += std::to_string(stats.result_rows);
  out += ",\"source\":";
  AppendClipped(out, source);
  out += ",\"plan\":";
  AppendClipped(out, plan);
  out += ",\"events\":[";
  bool first = true;
  for (const std::string& e : events) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(out, e);
  }
  out += "]}";
  return out;
}

SlowQueryLog& SlowQueryLog::Global() {
  static SlowQueryLog* log = new SlowQueryLog();
  return *log;
}

void SlowQueryLog::Record(SlowQueryEntry entry) {
  if (entry.wall_ms == 0) {
    entry.wall_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  }
  std::string line = entry.ToJsonLine();
  total_logged_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < kCapacity) {
    ring_.push_back(std::move(line));
    return;
  }
  ring_[next_] = std::move(line);
  next_ = (next_ + 1) % kCapacity;
}

std::vector<std::string> SlowQueryLog::Lines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> lines;
  lines.reserve(ring_.size());
  // Once the ring wrapped, next_ points at the oldest entry.
  for (size_t i = 0; i < ring_.size(); ++i) {
    size_t idx = ring_.size() < kCapacity ? i : (next_ + i) % kCapacity;
    lines.push_back(ring_[idx]);
  }
  return lines;
}

std::string SlowQueryLog::RenderJsonLines() const {
  std::string out;
  for (const std::string& line : Lines()) {
    out += line;
    out += '\n';
  }
  return out;
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
}

}  // namespace obs
}  // namespace mra
