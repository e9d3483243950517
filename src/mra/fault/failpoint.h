// Fault-injection framework: a process-wide registry of named failpoints
// compiled into the hot durability and network paths (WAL append/sync,
// checkpoint write/rename, socket reads/writes, server sessions — the
// full site catalog lives in docs/RECOVERY.md).
//
// A failpoint is disarmed by default and costs one relaxed atomic load at
// its site (bench/e14_fault_overhead measures this against the WAL append
// path).  Arming one — through the API or the MRA_FAILPOINTS environment
// variable — makes the site misbehave on demand:
//
//   error      the site fails with an injected IoError;
//   torn(N)    a write site persists only the first N bytes, then fails
//              (simulates a crash mid-write / a short write);
//   delay(MS)  the site sleeps MS milliseconds, then proceeds;
//   abort      the process exits immediately (kAbortExitCode) with no
//              cleanup — the crash half of the recovery torture harness.
//
// Triggering is scriptable per site: `after=N` passes the first N hits
// through untouched, `limit=N` caps how many times the action fires.
// Spec syntax (also the MRA_FAILPOINTS format):
//
//   MRA_FAILPOINTS="wal.append=torn(7):after=3;net.recv=delay(50):limit=2"
//
// Hit and trigger counts are exported through the obs metrics registry as
// `fault.<site>.hits` / `fault.<site>.triggered` (counted while armed).

#ifndef MRA_FAULT_FAILPOINT_H_
#define MRA_FAULT_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "mra/common/result.h"

namespace mra {
namespace obs {
class Counter;
}  // namespace obs

namespace fault {

/// Exit code used by the `abort` action, so a supervising process (the
/// torture harness) can tell an injected crash from ordinary termination.
constexpr int kAbortExitCode = 61;

enum class ActionKind : uint8_t {
  kOff = 0,    // Disarmed / pass through.
  kError = 1,  // Fail the site with an injected IoError.
  kTorn = 2,   // Write sites: persist `keep_bytes`, then fail.
  kDelay = 3,  // Sleep, then proceed (applied inside Hit()).
  kAbort = 4,  // _Exit(kAbortExitCode) — no flushing, no destructors.
};

/// One site's armed behavior.
struct FaultConfig {
  ActionKind kind = ActionKind::kOff;
  /// kTorn: how many bytes of the write survive before the failure.
  uint32_t keep_bytes = 0;
  /// kDelay: added latency per triggered hit.
  int delay_ms = 0;
  /// Hits that pass through untouched before the action starts firing.
  uint64_t start_after = 0;
  /// Triggers after which the site goes quiet again (0 = unlimited).
  uint64_t max_triggers = 0;
};

/// A named injection site.  Sites cache the pointer returned by
/// FaultRegistry::Get in a function-local static and call Hit() inline;
/// pointers are stable for the process lifetime.
class Failpoint {
 public:
  /// What the site must do now.  kDelay and kAbort are executed inside
  /// Hit(), so an outcome only ever reports kOff, kError or kTorn.
  struct Outcome {
    ActionKind kind = ActionKind::kOff;
    uint32_t keep_bytes = 0;
  };

  /// The per-event call.  Disarmed cost: one relaxed atomic load.
  Outcome Hit() {
    if (!armed_.load(std::memory_order_acquire)) return Outcome{};
    return Fire();
  }

  /// The injected failure for kError / kTorn outcomes, naming the site.
  Status InjectedError() const;

  const std::string& name() const { return name_; }
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

 private:
  friend class FaultRegistry;

  explicit Failpoint(std::string name);

  /// Slow path: counts the hit, applies after/limit gating, sleeps or
  /// aborts for kDelay/kAbort, and reports kError/kTorn to the caller.
  Outcome Fire();

  void Arm(const FaultConfig& config);
  void Disarm();

  const std::string name_;
  std::atomic<bool> armed_{false};

  std::mutex mutex_;  // Guards config_ and the gating counters.
  FaultConfig config_;
  uint64_t hits_ = 0;      // Hits observed while armed.
  uint64_t triggers_ = 0;  // Hits on which the action actually fired.
  obs::Counter* hit_counter_;      // fault.<site>.hits
  obs::Counter* trigger_counter_;  // fault.<site>.triggered
};

/// Evaluates `fp` at a site that can only fail wholesale (no byte-level
/// tearing): kTorn is treated like kError.
inline Status InjectIfArmed(Failpoint* fp) {
  Failpoint::Outcome outcome = fp->Hit();
  if (outcome.kind == ActionKind::kOff) return Status::OK();
  return fp->InjectedError();
}

/// The process-wide failpoint registry.  Thread-safe.  The first touch of
/// Global() applies MRA_FAILPOINTS from the environment (a malformed spec
/// is reported on stderr and otherwise ignored, so a typo cannot turn
/// into silently-absent fault coverage in a torture run that checks
/// armed_sites()).
class FaultRegistry {
 public:
  static FaultRegistry& Global();

  FaultRegistry() = default;
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  /// Finds or creates the named site; pointers stay valid for the
  /// registry's lifetime.  A site configured before its code path first
  /// runs is armed from its first hit.
  Failpoint* Get(const std::string& site);

  /// Arms (or, for kOff, disarms) one site.
  Status Configure(const std::string& site, const FaultConfig& config);

  void Disarm(const std::string& site);

  /// Disarms every site (test teardown / `--failpoints off`).
  void DisarmAll();

  /// Applies a spec string: `site=action[:after=N][:limit=N]` entries
  /// separated by `;` or `,`.  Actions: off | error | abort | torn(N) |
  /// delay(MS).  Whitespace around tokens is ignored.  On a malformed
  /// entry nothing past it is applied and the parse error is returned.
  Status ConfigureFromSpec(std::string_view spec);

  /// Reads and applies MRA_FAILPOINTS; an unset/empty variable is OK.
  Status ConfigureFromEnv();

  /// Names of currently armed sites, sorted.
  std::vector<std::string> ArmedSites() const;

 private:
  mutable std::mutex mutex_;  // Guards the map, not the sites.
  std::map<std::string, std::unique_ptr<Failpoint>> sites_;
};

/// Parses one spec entry's action+modifier suffix (everything after the
/// `=`), e.g. "torn(7):after=3:limit=1".  Exposed for tests.
Result<FaultConfig> ParseFaultAction(std::string_view text);

}  // namespace fault
}  // namespace mra

#endif  // MRA_FAULT_FAILPOINT_H_
