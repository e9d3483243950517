// The replay half of a traced op: evaluates a relation expression through
// the engine's public calls one at a time — lang::BindRelExpr,
// opt::Optimizer::Optimize, exec::LowerPlan, exec::ExecuteToRelation — the
// same sequence lang::Interpreter::EvaluateExpr runs, with a span around
// each call and the per-layer counts read off the plan and operator tree.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>

#include "harness.h"
#include "mra/algebra/evaluator.h"
#include "mra/common/config.h"
#include "mra/lang/ast.h"

namespace perfbench {

/// Counts gathered by EvaluateTraced, accumulated over calls.
struct ExecCounts {
  /// Σ build/probe rows over the hash operators of the lowered trees (the
  /// operators' own metrics: the registry's hash.* counters miss the
  /// morsel-parallel kernels).
  uint64_t build_rows = 0;
  uint64_t probe_rows = 0;
  /// Rows of the relations the plans scan, and rows the plans returned.
  uint64_t scanned_rows = 0;
  uint64_t result_rows = 0;
  /// Largest root q-error: estimated vs actual result cardinality.
  double qerror_max = 1;
  /// parallel.tasks_total / parallel.shed_total registry deltas over the
  /// exec.run spans.
  uint64_t parallel_tasks = 0;
  uint64_t parallel_shed = 0;
  /// Process CPU time and wall time inside the exec.run spans.
  int64_t run_cpu_ns = 0;
  int64_t run_wall_ns = 0;
};

mra::Result<mra::Relation> EvaluateTraced(const mra::lang::RelExpr& expr,
                                          const mra::RelationProvider& provider,
                                          const mra::ExecConfig& config,
                                          SpanLog* log, uint32_t parent,
                                          uint64_t op, ExecCounts* counts);

/// Adds `counts` into `all`, and into `exact` when it is non-null.
void AccumulateCounts(const ExecCounts& counts, ExecCounts* exact,
                      ExecCounts* all);

/// Reports the exec/opt/parallel per-layer metrics.  The exact counts
/// (hash rows, rows examined, q-error) come from `exact`, gathered over a
/// fixed prefix of `exact_ops` ops of the seeded sequence so they repeat
/// exactly; the timing-derived ones from `all`, over `all_ops` ops.
void ReportExecCounts(Report* report, const ExecCounts& exact,
                      uint64_t exact_ops, const ExecCounts& all,
                      uint64_t all_ops);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
