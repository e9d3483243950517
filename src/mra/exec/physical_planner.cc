#include "mra/exec/physical_planner.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "mra/common/annotation.h"
#include "mra/exec/hash_ops.h"
#include "mra/exec/sort.h"
#include "mra/obs/metrics.h"

namespace mra {
namespace exec {

namespace {

/// Subtree kinds worth sharing when duplicated: those that materialise or
/// build hash state (running them twice doubles real work).  Streaming
/// nodes (σ, π, scans) are cheaper to re-run than to materialise.
bool ReusableKind(PlanKind kind) {
  switch (kind) {
    case PlanKind::kJoin:
    case PlanKind::kGroupBy:
    case PlanKind::kClosure:
    case PlanKind::kDifference:
    case PlanKind::kIntersect:
    case PlanKind::kUnique:
      return true;
    default:
      return false;
  }
}

/// Per-LowerPlan state: the options plus the common-subexpression books.
/// `reuse_counts` holds how often each reusable subtree fingerprint occurs
/// in the root plan; `shared` maps fingerprints lowered once already to
/// their shared materialisation state.
struct LowerContext {
  const RelationProvider& provider;
  const CardinalityEstimator* estimator;
  const ExecConfig& config;
  std::unordered_map<std::string, int> reuse_counts;
  std::unordered_map<std::string, std::shared_ptr<SubplanState>> shared;
  /// Lane count per multi-lane hash node (AssignLanes); absent means 1.
  std::unordered_map<const Plan*, size_t> lanes;
};

/// Lane counts for the hash operators.  A multi-lane kernel drains a hash
/// join that its input reaches through σ/π by lanes — the join probes on
/// the kernel's lanes — so the two form one pipeline, and a pipeline runs
/// on one lane count: the configured worker degree when any of its hash
/// nodes has an estimated input volume (both inputs for ⋈, − and ∩) that
/// reaches the threshold, else 1.  With no estimator the planner
/// never guesses parallel.
void AssignLanes(const PlanPtr& root, LowerContext& ctx) {
  const ExecConfig::Exec& e = ctx.config.exec;
  if (e.workers <= 1 || ctx.estimator == nullptr) return;
  // Union-find over the hash nodes, each root carrying whether its
  // pipeline reaches the threshold.
  std::unordered_map<const Plan*, const Plan*> parent;
  std::unordered_map<const Plan*, bool> wants;
  auto find = [&](const Plan* p) {
    while (parent.at(p) != p) p = parent.at(p) = parent.at(parent.at(p));
    return p;
  };
  std::vector<const Plan*> hash_nodes;
  std::function<void(const PlanPtr&)> visit = [&](const PlanPtr& plan) {
    for (const PlanPtr& child : plan->children()) visit(child);
    const PlanKind kind = plan->kind();
    std::vector<size_t> left_keys, right_keys;
    ExprPtr residual;
    const bool hash =
        kind == PlanKind::kGroupBy || kind == PlanKind::kUnique ||
        kind == PlanKind::kDifference || kind == PlanKind::kIntersect ||
        (kind == PlanKind::kJoin &&
         ExtractEquiJoinKeys(plan->condition(), plan->schema(),
                             plan->child(0)->schema().arity(), &left_keys,
                             &right_keys, &residual));
    if (!hash || parent.count(plan.get()) > 0) return;
    double input = 0;
    for (const PlanPtr& child : plan->children()) {
      input += (*ctx.estimator)(*child);
    }
    parent[plan.get()] = plan.get();
    wants[plan.get()] = input >= static_cast<double>(e.parallel_threshold);
    hash_nodes.push_back(plan.get());
    for (const PlanPtr& child : plan->children()) {
      const Plan* source = child.get();
      while (source->kind() == PlanKind::kSelect ||
             source->kind() == PlanKind::kProject) {
        source = source->child(0).get();
      }
      if (source->kind() != PlanKind::kJoin || parent.count(source) == 0) {
        continue;  // Not a hash join.
      }
      const Plan* a = find(plan.get());
      const Plan* b = find(source);
      if (a == b) continue;
      parent[b] = a;
      wants[a] = wants[a] || wants[b];
    }
  };
  visit(root);
  for (const Plan* node : hash_nodes) {
    if (wants[find(node)]) ctx.lanes[node] = e.workers;
  }
}

size_t ParallelLanes(const PlanPtr& plan, const LowerContext& ctx) {
  auto it = ctx.lanes.find(plan.get());
  return it == ctx.lanes.end() ? 1 : it->second;
}

void CountReusableSubtrees(const PlanPtr& plan,
                           std::unordered_map<std::string, int>* counts) {
  if (ReusableKind(plan->kind())) ++(*counts)[plan->ToInlineString()];
  for (const PlanPtr& child : plan->children()) {
    CountReusableSubtrees(child, counts);
  }
}

Result<PhysOpPtr> LowerPlanImpl(const PlanPtr& plan, LowerContext& ctx);

/// The stored relation a Scan node reads, checked against the schema the
/// plan was bound with.
Result<const Relation*> ScannedRelation(const Plan& scan,
                                        const LowerContext& ctx) {
  MRA_ASSIGN_OR_RETURN(const Relation* rel,
                       ctx.provider.GetRelation(scan.relation_name()));
  if (!rel->schema().CompatibleWith(scan.schema())) {
    return Status::Internal("relation " + scan.relation_name() +
                            " changed schema after planning");
  }
  return rel;
}

/// Picks and constructs the physical operator for one logical node.
Result<PhysOpPtr> LowerNode(const PlanPtr& plan, LowerContext& ctx) {
  switch (plan->kind()) {
    case PlanKind::kScan: {
      MRA_ASSIGN_OR_RETURN(const Relation* rel, ScannedRelation(*plan, ctx));
      return PhysOpPtr(std::make_unique<ScanOp>(rel));
    }
    case PlanKind::kConstRel:
      return PhysOpPtr(std::make_unique<ConstScanOp>(plan->const_relation()));
    case PlanKind::kSelect: {
      MRA_ASSIGN_OR_RETURN(PhysOpPtr child, LowerPlanImpl(plan->child(0), ctx));
      return PhysOpPtr(
          std::make_unique<FilterOp>(plan->condition(), std::move(child)));
    }
    case PlanKind::kProject: {
      // An attribute-only π over a stored relation is a projecting scan:
      // the stored tuples are never copied whole only to be rewritten.
      const PlanPtr& input = plan->child(0);
      if (input->kind() == PlanKind::kScan) {
        std::optional<std::vector<size_t>> columns =
            AttrOnlyProjection(plan->projections(), input->schema().arity());
        if (columns.has_value()) {
          MRA_ASSIGN_OR_RETURN(const Relation* rel,
                               ScannedRelation(*input, ctx));
          std::string detail;
          for (size_t c : *columns) {
            detail += (detail.empty() ? "%" : ", %") + std::to_string(c + 1);
          }
          PhysOpPtr op(std::make_unique<ScanOp>(rel, std::move(*columns),
                                                plan->schema()));
          op->set_annotation(AnnotationText("project", detail));
          return op;
        }
      }
      MRA_ASSIGN_OR_RETURN(PhysOpPtr child, LowerPlanImpl(input, ctx));
      return PhysOpPtr(std::make_unique<ComputeOp>(
          plan->projections(), plan->schema(), std::move(child)));
    }
    case PlanKind::kUnique:
    case PlanKind::kDifference:
    case PlanKind::kIntersect: {
      // One bag-count kernel; δ has no rhs.
      const BagFn fn = plan->kind() == PlanKind::kUnique ? BagFn::kUnique
                       : plan->kind() == PlanKind::kDifference
                           ? BagFn::kDifference
                           : BagFn::kIntersect;
      size_t lanes = ParallelLanes(plan, ctx);
      MRA_ASSIGN_OR_RETURN(PhysOpPtr l, LowerPlanImpl(plan->child(0), ctx));
      PhysOpPtr r;
      if (fn != BagFn::kUnique) {
        MRA_ASSIGN_OR_RETURN(r, LowerPlanImpl(plan->child(1), ctx));
      }
      PhysOpPtr op(std::make_unique<BagCountOp>(
          fn, std::move(l), std::move(r), lanes, ctx.config.exec.batch_size));
      if (lanes > 1) {
        op->set_annotation(
            AnnotationText("parallel", std::to_string(lanes) + " lanes"));
      }
      return op;
    }
    case PlanKind::kUnion: {
      MRA_ASSIGN_OR_RETURN(PhysOpPtr l, LowerPlanImpl(plan->child(0), ctx));
      MRA_ASSIGN_OR_RETURN(PhysOpPtr r, LowerPlanImpl(plan->child(1), ctx));
      return PhysOpPtr(
          std::make_unique<UnionAllOp>(std::move(l), std::move(r)));
    }
    case PlanKind::kProduct: {
      MRA_ASSIGN_OR_RETURN(PhysOpPtr l, LowerPlanImpl(plan->child(0), ctx));
      MRA_ASSIGN_OR_RETURN(PhysOpPtr r, LowerPlanImpl(plan->child(1), ctx));
      return PhysOpPtr(std::make_unique<NestedLoopJoinOp>(
          nullptr, std::move(l), std::move(r)));
    }
    case PlanKind::kJoin: {
      size_t lanes = ParallelLanes(plan, ctx);
      MRA_ASSIGN_OR_RETURN(PhysOpPtr l, LowerPlanImpl(plan->child(0), ctx));
      MRA_ASSIGN_OR_RETURN(PhysOpPtr r, LowerPlanImpl(plan->child(1), ctx));
      std::vector<size_t> left_keys, right_keys;
      ExprPtr residual;
      size_t left_arity = plan->child(0)->schema().arity();
      if (ExtractEquiJoinKeys(plan->condition(), plan->schema(), left_arity,
                              &left_keys, &right_keys, &residual)) {
        std::string keys;
        for (size_t i = 0; i < left_keys.size(); ++i) {
          keys += (i == 0 ? "%" : ", %") + std::to_string(left_keys[i] + 1) +
                  "=%" + std::to_string(left_arity + right_keys[i] + 1);
        }
        PhysOpPtr op(std::make_unique<HashJoinOp>(
            std::move(left_keys), std::move(right_keys), std::move(residual),
            std::move(l), std::move(r), lanes, ctx.config.exec.batch_size,
            ctx.config.exec.sort_spill_bytes));
        if (lanes > 1) {
          keys += "; parallel: " + std::to_string(lanes) + " lanes";
        }
        op->set_annotation(AnnotationText("keys", keys));
        return op;
      }
      PhysOpPtr op(std::make_unique<NestedLoopJoinOp>(
          plan->condition(), std::move(l), std::move(r)));
      op->set_annotation(AnnotationText("fallback", "predicate not hashable"));
      return op;
    }
    case PlanKind::kGroupBy: {
      size_t lanes = ParallelLanes(plan, ctx);
      MRA_ASSIGN_OR_RETURN(PhysOpPtr child, LowerPlanImpl(plan->child(0), ctx));
      PhysOpPtr op(std::make_unique<HashGroupByOp>(
          plan->group_keys(), plan->aggregates(), plan->schema(),
          std::move(child), lanes, ctx.config.exec.batch_size));
      if (lanes > 1) {
        op->set_annotation(
            AnnotationText("parallel", std::to_string(lanes) + " lanes"));
      }
      return op;
    }
    case PlanKind::kClosure: {
      MRA_ASSIGN_OR_RETURN(PhysOpPtr child, LowerPlanImpl(plan->child(0), ctx));
      return PhysOpPtr(std::make_unique<ClosureOp>(std::move(child)));
    }
    case PlanKind::kSort: {
      MRA_ASSIGN_OR_RETURN(PhysOpPtr child, LowerPlanImpl(plan->child(0), ctx));
      const std::vector<size_t>& keys = plan->sort_keys();
      const std::vector<bool>& desc = plan->sort_desc();
      std::string detail;
      for (size_t i = 0; i < keys.size(); ++i) {
        if (i > 0) detail += ", ";
        if (desc[i]) detail += '-';
        detail += '%' + std::to_string(keys[i] + 1);
      }
      if (plan->sort_limit() > 0) {
        detail += " limit " + std::to_string(plan->sort_limit());
      }
      PhysOpPtr op(std::make_unique<SortOp>(
          keys, desc, plan->sort_limit(), ctx.config.exec.sort_spill_bytes,
          std::move(child)));
      op->set_annotation(AnnotationText("order", detail));
      return op;
    }
  }
  return Status::Internal("bad plan kind");
}

Result<PhysOpPtr> LowerPlanImpl(const PlanPtr& plan, LowerContext& ctx) {
  // Common-subexpression reuse: a reusable subtree occurring more than once
  // in the root plan is lowered once; every occurrence streams the shared
  // materialisation (bag-preserving — the cached relation IS the subtree's
  // result, scanned k times instead of computed k times).
  std::string fingerprint;
  if (!ctx.reuse_counts.empty() && ReusableKind(plan->kind())) {
    fingerprint = plan->ToInlineString();
    auto count = ctx.reuse_counts.find(fingerprint);
    if (count == ctx.reuse_counts.end() || count->second < 2) {
      fingerprint.clear();
    } else {
      auto shared = ctx.shared.find(fingerprint);
      if (shared != ctx.shared.end()) {
        obs::MetricsRegistry::Global()
            .GetCounter("opt.rule.subplan_reuse")
            ->Inc();
        PhysOpPtr op(std::make_unique<SubplanCacheOp>(shared->second,
                                                      /*owner=*/false));
        op->set_annotation(AnnotationText("rule", "subplan_reuse"));
        if (ctx.estimator != nullptr) {
          op->set_estimated_rows((*ctx.estimator)(*plan));
        }
        return op;
      }
    }
  }
  MRA_ASSIGN_OR_RETURN(PhysOpPtr op, LowerNode(plan, ctx));
  if (ctx.estimator != nullptr) op->set_estimated_rows((*ctx.estimator)(*plan));
  if (!fingerprint.empty()) {
    auto state = std::make_shared<SubplanState>();
    double est = op->estimated_rows();
    state->source = std::move(op);
    PhysOpPtr cache(std::make_unique<SubplanCacheOp>(state, /*owner=*/true));
    cache->set_estimated_rows(est);
    ctx.shared.emplace(std::move(fingerprint), std::move(state));
    return cache;
  }
  return op;
}

}  // namespace

Result<PhysOpPtr> LowerPlan(const PlanPtr& plan,
                            const RelationProvider& provider,
                            const CardinalityEstimator* estimator,
                            const ExecConfig& config, ExecContext* exec_ctx) {
  LowerContext ctx{provider, estimator, config, {}, {}, {}};
  CountReusableSubtrees(plan, &ctx.reuse_counts);
  bool any_repeat = false;
  for (const auto& [fp, n] : ctx.reuse_counts) {
    if (n >= 2) {
      any_repeat = true;
      break;
    }
  }
  // Drop the books when nothing repeats so the per-node fingerprint checks
  // short-circuit.
  if (!any_repeat) ctx.reuse_counts.clear();
  AssignLanes(plan, ctx);
  MRA_ASSIGN_OR_RETURN(PhysOpPtr root, LowerPlanImpl(plan, ctx));
  // Thread the governance context through the whole lowered tree so every
  // wrapper's batch-boundary check sees the same cancellation flag,
  // deadline and shared memory budget.
  if (exec_ctx != nullptr) root->SetExecContext(exec_ctx);
  return root;
}

Result<Relation> ExecutePlan(const PlanPtr& plan,
                             const RelationProvider& provider) {
  MRA_ASSIGN_OR_RETURN(PhysOpPtr root, LowerPlan(plan, provider));
  return ExecuteToRelation(*root);
}

}  // namespace exec
}  // namespace mra
