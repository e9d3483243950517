// Lowers logical plans to physical operator trees and runs them.
//
// Lowering choices:
//   σ        → Filter
//   π        → Compute
//   δ, −, ∩  → BagCount, shown as Dedup / Difference / Intersect (one
//              hash kernel: the rhs key set holds each key's budget, the
//              lhs streams against it)
//   ⊎        → UnionAll (streaming)
//   ×        → NestedLoopJoin without condition
//   ⋈_φ      → HashJoin when φ contains same-domain equi-conjuncts %i = %j
//              across the inputs (residual applied after the probe; its
//              build spills at run time past the spill threshold —
//              docs/OPTIMIZER.md "Join strategy"); NestedLoopJoin otherwise
//   Γ        → HashGroupBy
//   sort     → Sort (in-memory, or external merge past the spill
//              threshold; weighted Top-K heap under a LIMIT)
//
// The hash kernels (HashJoin, HashGroupBy, BagCount — mra/exec/hash_ops.h)
// run on `config.exec.workers` lanes when the operator's estimated input
// reaches `config.exec.parallel_threshold`, and on one lane otherwise:
// below the threshold fan-out overhead outweighs the parallel speedup,
// and with no estimator the planner stays on one lane rather than guess
// (docs/PARALLELISM.md).
//
// Each choice is annotated on the operator (PhysicalOperator::annotation):
// HashJoin shows its key pairs, multi-lane kernels their lane count, the
// nested-loop fallback says why it was taken — so EXPLAIN makes the
// selection visible.

#ifndef MRA_EXEC_PHYSICAL_PLANNER_H_
#define MRA_EXEC_PHYSICAL_PLANNER_H_

#include <functional>

#include "mra/algebra/evaluator.h"
#include "mra/algebra/plan.h"
#include "mra/common/config.h"
#include "mra/exec/operator.h"

namespace mra {
namespace exec {

/// Predicts the multiplicity-weighted cardinality of a logical plan node.
/// Lowering is node-isomorphic (one physical operator per logical node), so
/// annotating each physical operator with the estimate of its logical
/// counterpart is exact.  Kept as a callback so exec does not depend on
/// mra/opt; callers typically wrap opt::EstimateCardinality.
using CardinalityEstimator = std::function<double(const Plan&)>;

/// Builds an executable operator tree for `plan`.  Scan nodes resolve
/// through `provider`, whose relations must outlive the returned tree's
/// execution.  When `estimator` is non-null every operator is annotated
/// with its logical node's estimate (PhysicalOperator::estimated_rows),
/// which EXPLAIN ANALYZE renders against the actuals — and which also
/// drives the parallel-variant decision (see the header comment).
/// `config` supplies the kernel-selection and parallelism knobs
/// (exec.workers, exec.batch_size, exec.parallel_threshold,
/// exec.sort_spill_bytes); the remaining layers are the callers' business.
/// Repeated non-trivial subplans always lower to one shared SubplanCacheOp.
/// `exec_ctx`, when non-null, is attached to every operator of the lowered
/// tree (cancellation / deadline / memory budget) and must outlive
/// execution.
Result<PhysOpPtr> LowerPlan(const PlanPtr& plan,
                            const RelationProvider& provider,
                            const CardinalityEstimator* estimator = nullptr,
                            const ExecConfig& config = ExecConfig{},
                            ExecContext* exec_ctx = nullptr);

/// Lower + execute + materialise.  This is the production evaluation path
/// (EvaluatePlan in mra/algebra is the definitional one).
Result<Relation> ExecutePlan(const PlanPtr& plan,
                             const RelationProvider& provider);

}  // namespace exec
}  // namespace mra

#endif  // MRA_EXEC_PHYSICAL_PLANNER_H_
