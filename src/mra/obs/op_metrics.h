// Per-operator execution metrics, filled in by the PhysicalOperator
// Open/NextBatch/Close wrappers (mra/exec/operator.h).
//
// Row counts are always collected (plain single-threaded increments on the
// operator's own state — a volcano tree never shares an operator across
// threads).  Wall-clock timing costs two steady_clock reads per call, so
// it is gated behind the process-wide toggle below, which EXPLAIN ANALYZE
// and the REPL flip around an execution.  Both the multiplicity-weighted
// and the emitted-row cardinality are reported: their ratio is exactly the
// duplication factor the paper's multi-set semantics exploits.

#ifndef MRA_OBS_OP_METRICS_H_
#define MRA_OBS_OP_METRICS_H_

#include <atomic>
#include <cstdint>

namespace mra {
namespace obs {

struct OperatorMetrics {
  /// Rows emitted by NextBatch() (bag-stream rows, not tuples).
  uint64_t rows_emitted = 0;
  /// Non-empty batches emitted by NextBatch().  rows_emitted /
  /// batches_emitted is the realized batch fill.
  uint64_t batches_emitted = 0;
  /// Multiplicity-weighted tuple count: the sum of the emitted counts —
  /// the cardinality of the multi-set the stream denotes.
  uint64_t weighted_rows = 0;
  /// Distinct tuples, for operators that materialise (difference,
  /// intersection, group-by, dedup); 0 for pure streaming operators.
  uint64_t distinct_rows = 0;
  /// Peak entries held in the operator's hash table (join build side,
  /// dedup's seen-set, group-by's group table); 0 when hash-free.
  uint64_t peak_hash_entries = 0;
  /// Rows consumed into a hash build: the join's build side, group-by's
  /// whole input, dedup's insertion stream.  0 for hash-free operators.
  uint64_t build_rows = 0;
  /// Probe-side rows hashed against a build table (hash join only).
  uint64_t probe_rows = 0;
  /// Peak approximate heap bytes held by the operator's hash arena
  /// (HashKeyIndex::ApproxBytes or HashJoinOp::ArenaBytes, plus payloads).
  uint64_t hash_bytes = 0;
  /// Worker lanes a hash operator ran with (workers=N in EXPLAIN
  /// ANALYZE); 0 for operators that take no worker lease.
  uint32_t workers = 0;
  /// Summed per-lane CPU-side wall time inside parallel phases.  For a
  /// parallel operator this exceeds the elapsed open_ns/next_ns (the
  /// lanes overlap); their ratio is the realized parallel speedup.
  uint64_t cpu_ns = 0;

  // Wall time, only nonzero while exec timing is enabled.
  uint64_t open_ns = 0;
  uint64_t next_ns = 0;
  uint64_t close_ns = 0;
  /// True when exec timing was enabled for this operator's run — lets the
  /// analyzed rendering distinguish "measured 0ns" from "not measured".
  bool timed = false;

  uint64_t total_ns() const { return open_ns + next_ns + close_ns; }

  void ResetRuntime() { *this = OperatorMetrics{}; }
};

namespace internal {
inline std::atomic<bool>& ExecTimingFlag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace internal

/// Whether operators should measure wall time per Open/NextBatch/Close
/// call.
inline bool ExecTimingEnabled() {
  return internal::ExecTimingFlag().load(std::memory_order_relaxed);
}

inline void SetExecTiming(bool enabled) {
  internal::ExecTimingFlag().store(enabled, std::memory_order_relaxed);
}

/// RAII: enables exec timing for a scope, restoring the previous setting.
class ScopedExecTiming {
 public:
  explicit ScopedExecTiming(bool enabled) : previous_(ExecTimingEnabled()) {
    SetExecTiming(enabled);
  }
  ~ScopedExecTiming() { SetExecTiming(previous_); }

  ScopedExecTiming(const ScopedExecTiming&) = delete;
  ScopedExecTiming& operator=(const ScopedExecTiming&) = delete;

 private:
  bool previous_;
};

}  // namespace obs
}  // namespace mra

#endif  // MRA_OBS_OP_METRICS_H_
