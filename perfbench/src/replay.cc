#include "replay.h"

#include <algorithm>
#include <memory>

#include "mra/exec/exec_context.h"
#include "mra/exec/physical_planner.h"
#include "mra/lang/binder.h"
#include "mra/obs/metrics.h"
#include "mra/opt/optimizer.h"
#include "mra/opt/stats.h"

namespace perfbench {

namespace {

void SumHashRows(const mra::exec::PhysicalOperator& op, ExecCounts* counts) {
  counts->build_rows += op.metrics().build_rows;
  counts->probe_rows += op.metrics().probe_rows;
  for (const mra::exec::PhysicalOperator* child : op.children()) {
    SumHashRows(*child, counts);
  }
}

uint64_t ScannedRows(const mra::Plan& plan,
                     const mra::RelationProvider& provider) {
  uint64_t rows = 0;
  if (plan.kind() == mra::PlanKind::kScan) {
    auto rel = provider.GetRelation(plan.relation_name());
    if (rel.ok()) rows += (*rel)->size();
  }
  for (const mra::PlanPtr& child : plan.children()) {
    rows += ScannedRows(*child, provider);
  }
  return rows;
}

mra::obs::Counter* TasksCounter() {
  static mra::obs::Counter* c =
      mra::obs::MetricsRegistry::Global().GetCounter("parallel.tasks_total");
  return c;
}

mra::obs::Counter* ShedCounter() {
  static mra::obs::Counter* c =
      mra::obs::MetricsRegistry::Global().GetCounter("parallel.shed_total");
  return c;
}

}  // namespace

mra::Result<mra::Relation> EvaluateTraced(const mra::lang::RelExpr& expr,
                                          const mra::RelationProvider& provider,
                                          const mra::ExecConfig& config,
                                          SpanLog* log, uint32_t parent,
                                          uint64_t op, ExecCounts* counts) {
  mra::PlanPtr plan;
  {
    SpanLog::Scope span(log, "lang.bind", parent, op);
    MRA_ASSIGN_OR_RETURN(plan, mra::lang::BindRelExpr(expr, provider));
  }
  {
    SpanLog::Scope span(log, "opt.optimize", parent, op);
    mra::opt::Optimizer optimizer(&provider);
    MRA_ASSIGN_OR_RETURN(plan, optimizer.Optimize(std::move(plan)));
  }
  mra::opt::StatsCache stats_cache(&provider);
  mra::exec::CardinalityEstimator estimator =
      [&provider, &stats_cache](const mra::Plan& node) {
        return mra::opt::EstimateCardinality(node, provider, &stats_cache);
      };
  std::shared_ptr<mra::exec::ExecContext> ctx;
  mra::exec::PhysOpPtr root;
  {
    SpanLog::Scope span(log, "exec.lower", parent, op);
    ctx = std::make_shared<mra::exec::ExecContext>();
    MRA_ASSIGN_OR_RETURN(
        root, mra::exec::LowerPlan(plan, provider, &estimator, config,
                                   ctx.get()));
  }
  uint64_t tasks0 = 0, shed0 = 0;
  int64_t cpu0 = 0;
  {
    SpanLog::Scope span(log, "harness", parent, op, SpanLog::Kind::kHarness);
    tasks0 = TasksCounter()->value();
    shed0 = ShedCounter()->value();
    cpu0 = CpuNs();
  }
  const int64_t wall0 = NowNs();
  mra::Result<mra::Relation> result = [&] {
    SpanLog::Scope span(log, "exec.run", parent, op);
    return mra::exec::ExecuteToRelation(*root, config.exec.batch_size);
  }();
  {
    SpanLog::Scope span(log, "harness", parent, op, SpanLog::Kind::kHarness);
    counts->run_wall_ns += NowNs() - wall0;
    counts->run_cpu_ns += CpuNs() - cpu0;
    counts->parallel_tasks += TasksCounter()->value() - tasks0;
    counts->parallel_shed += ShedCounter()->value() - shed0;
    if (result.ok()) {
      SumHashRows(*root, counts);
      counts->scanned_rows += ScannedRows(*plan, provider);
      counts->result_rows += result->size();
      const double estimate =
          mra::opt::EstimateCardinality(*plan, provider, &stats_cache);
      if (estimate >= 0) {
        const double est = std::max(estimate, 1.0);
        const double actual =
            std::max(static_cast<double>(result->size()), 1.0);
        counts->qerror_max =
            std::max(counts->qerror_max, std::max(est / actual, actual / est));
      }
    }
  }
  // Interpreter::EvaluateExpr destroys the operator tree (hash tables,
  // sort buffers) before it returns.
  SpanLog::Scope span(log, "exec.release", parent, op);
  root.reset();
  ctx.reset();
  return result;
}

void AccumulateCounts(const ExecCounts& counts, ExecCounts* exact,
                      ExecCounts* all) {
  for (ExecCounts* into : {exact, all}) {
    if (into == nullptr) continue;
    into->build_rows += counts.build_rows;
    into->probe_rows += counts.probe_rows;
    into->scanned_rows += counts.scanned_rows;
    into->result_rows += counts.result_rows;
    into->qerror_max = std::max(into->qerror_max, counts.qerror_max);
    into->parallel_tasks += counts.parallel_tasks;
    into->parallel_shed += counts.parallel_shed;
    into->run_cpu_ns += counts.run_cpu_ns;
    into->run_wall_ns += counts.run_wall_ns;
  }
}

void ReportExecCounts(Report* report, const ExecCounts& exact,
                      uint64_t exact_ops, const ExecCounts& all,
                      uint64_t all_ops) {
  auto per = [](uint64_t n, uint64_t d) {
    return d > 0 ? static_cast<double>(n) / static_cast<double>(d) : 0.0;
  };
  report->Set("exec.hash_build_rows", per(exact.build_rows, exact_ops),
              "count", exact_ops);
  report->Set("exec.hash_probe_rows", per(exact.probe_rows, exact_ops),
              "count", exact_ops);
  report->Set("exec.rows_examined_per_row",
              per(exact.scanned_rows, exact.result_rows), "ratio", exact_ops);
  report->Set("opt.qerror_max", exact.qerror_max, "ratio", exact_ops);
  report->Set("parallel.cpu_per_wall",
              all.run_wall_ns > 0 ? static_cast<double>(all.run_cpu_ns) /
                                        static_cast<double>(all.run_wall_ns)
                                  : 0,
              "ratio", all_ops);
  report->Set("parallel.tasks", per(all.parallel_tasks, all_ops), "count",
              all_ops);
  report->Set("parallel.shed", per(all.parallel_shed, all_ops), "count",
              all_ops);
}

}  // namespace perfbench
