#include "mra/fault/failpoint.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "mra/obs/metrics.h"

namespace mra {
namespace fault {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses a non-negative decimal integer; the whole string must match.
Result<uint64_t> ParseUint(std::string_view text, std::string_view what) {
  if (text.empty()) {
    return Status::InvalidArgument("failpoint spec: empty " +
                                   std::string(what));
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("failpoint spec: bad " +
                                     std::string(what) + " \"" +
                                     std::string(text) + "\"");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

/// Splits "name(arg)" into name and arg; arg is empty when absent.
Status SplitCall(std::string_view text, std::string_view* name,
                 std::string_view* arg) {
  size_t open = text.find('(');
  if (open == std::string_view::npos) {
    *name = text;
    *arg = {};
    return Status::OK();
  }
  if (text.back() != ')') {
    return Status::InvalidArgument("failpoint spec: unbalanced \"" +
                                   std::string(text) + "\"");
  }
  *name = text.substr(0, open);
  *arg = text.substr(open + 1, text.size() - open - 2);
  return Status::OK();
}

}  // namespace

Failpoint::Failpoint(std::string name)
    : name_(std::move(name)),
      hit_counter_(obs::MetricsRegistry::Global().GetCounter(
          "fault." + name_ + ".hits")),
      trigger_counter_(obs::MetricsRegistry::Global().GetCounter(
          "fault." + name_ + ".triggered")) {}

Status Failpoint::InjectedError() const {
  return Status::IoError("injected fault at " + name_);
}

Failpoint::Outcome Failpoint::Fire() {
  ActionKind kind;
  uint32_t keep_bytes;
  int delay_ms;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (config_.kind == ActionKind::kOff) return Outcome{};
    ++hits_;
    hit_counter_->Inc();
    if (hits_ <= config_.start_after) return Outcome{};
    if (config_.max_triggers != 0 && triggers_ >= config_.max_triggers) {
      return Outcome{};
    }
    ++triggers_;
    trigger_counter_->Inc();
    kind = config_.kind;
    keep_bytes = config_.keep_bytes;
    delay_ms = config_.delay_ms;
  }
  switch (kind) {
    case ActionKind::kDelay:
      // Sleep outside the lock so a delayed site cannot stall Configure.
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      return Outcome{};
    case ActionKind::kAbort:
      // A crash, not an exit: no stdio flushing, no destructors, no
      // atexit hooks — user-space buffers die exactly as they would on
      // a SIGKILL.
      std::_Exit(kAbortExitCode);
    case ActionKind::kError:
    case ActionKind::kTorn:
      return Outcome{kind, keep_bytes};
    case ActionKind::kOff:
      break;
  }
  return Outcome{};
}

void Failpoint::Arm(const FaultConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
  hits_ = 0;
  triggers_ = 0;
  armed_.store(config.kind != ActionKind::kOff, std::memory_order_release);
}

void Failpoint::Disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = FaultConfig{};
  armed_.store(false, std::memory_order_release);
}

Result<FaultConfig> ParseFaultAction(std::string_view text) {
  FaultConfig config;
  // Action, then `:key=value` modifiers.
  size_t colon = text.find(':');
  std::string_view action = Trim(text.substr(0, colon));
  std::string_view name, arg;
  MRA_RETURN_IF_ERROR(SplitCall(action, &name, &arg));
  if (name == "off") {
    config.kind = ActionKind::kOff;
  } else if (name == "error") {
    config.kind = ActionKind::kError;
  } else if (name == "abort") {
    config.kind = ActionKind::kAbort;
  } else if (name == "torn") {
    config.kind = ActionKind::kTorn;
    MRA_ASSIGN_OR_RETURN(uint64_t keep, ParseUint(arg, "torn byte count"));
    config.keep_bytes = static_cast<uint32_t>(keep);
  } else if (name == "delay") {
    config.kind = ActionKind::kDelay;
    MRA_ASSIGN_OR_RETURN(uint64_t ms, ParseUint(arg, "delay milliseconds"));
    config.delay_ms = static_cast<int>(ms);
  } else {
    return Status::InvalidArgument("failpoint spec: unknown action \"" +
                                   std::string(action) + "\"");
  }
  if ((name == "error" || name == "abort" || name == "off") && !arg.empty()) {
    return Status::InvalidArgument("failpoint spec: action \"" +
                                   std::string(name) +
                                   "\" takes no argument");
  }
  while (colon != std::string_view::npos) {
    size_t start = colon + 1;
    colon = text.find(':', start);
    std::string_view mod = Trim(text.substr(
        start, colon == std::string_view::npos ? colon : colon - start));
    size_t eq = mod.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("failpoint spec: bad modifier \"" +
                                     std::string(mod) + "\"");
    }
    std::string_view key = Trim(mod.substr(0, eq));
    std::string_view value = Trim(mod.substr(eq + 1));
    if (key == "after") {
      MRA_ASSIGN_OR_RETURN(config.start_after, ParseUint(value, "after"));
    } else if (key == "limit") {
      MRA_ASSIGN_OR_RETURN(config.max_triggers, ParseUint(value, "limit"));
    } else {
      return Status::InvalidArgument("failpoint spec: unknown modifier \"" +
                                     std::string(key) + "\"");
    }
  }
  return config;
}

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = [] {
    auto* r = new FaultRegistry();
    Status s = r->ConfigureFromEnv();
    if (!s.ok()) {
      std::fprintf(stderr, "MRA_FAILPOINTS ignored: %s\n",
                   s.ToString().c_str());
    }
    return r;
  }();
  return *registry;
}

Failpoint* FaultRegistry::Get(const std::string& site) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    it = sites_.emplace(site, std::unique_ptr<Failpoint>(new Failpoint(site)))
             .first;
  }
  return it->second.get();
}

Status FaultRegistry::Configure(const std::string& site,
                                const FaultConfig& config) {
  if (site.empty()) {
    return Status::InvalidArgument("failpoint site name is empty");
  }
  Get(site)->Arm(config);
  return Status::OK();
}

void FaultRegistry::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  if (it != sites_.end()) it->second->Disarm();
}

void FaultRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, fp] : sites_) fp->Disarm();
}

Status FaultRegistry::ConfigureFromSpec(std::string_view spec) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t end = spec.find_first_of(";,", pos);
    std::string_view entry = Trim(
        spec.substr(pos, end == std::string_view::npos ? end : end - pos));
    pos = end == std::string_view::npos ? spec.size() + 1 : end + 1;
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("failpoint spec: entry \"" +
                                     std::string(entry) +
                                     "\" is not site=action");
    }
    std::string site(Trim(entry.substr(0, eq)));
    MRA_ASSIGN_OR_RETURN(FaultConfig config,
                         ParseFaultAction(entry.substr(eq + 1)));
    MRA_RETURN_IF_ERROR(Configure(site, config));
  }
  return Status::OK();
}

Status FaultRegistry::ConfigureFromEnv() {
  const char* spec = std::getenv("MRA_FAILPOINTS");
  if (spec == nullptr || spec[0] == '\0') return Status::OK();
  return ConfigureFromSpec(spec);
}

std::vector<std::string> FaultRegistry::ArmedSites() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [name, fp] : sites_) {
    if (fp->armed()) out.push_back(name);
  }
  return out;
}

}  // namespace fault
}  // namespace mra
