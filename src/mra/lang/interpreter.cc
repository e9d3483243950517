#include "mra/lang/interpreter.h"

#include <chrono>
#include <cstdio>
#include <optional>

#include "mra/common/annotation.h"
#include "mra/exec/physical_planner.h"
#include "mra/lang/binder.h"
#include "mra/lang/parser.h"
#include "mra/obs/metrics.h"
#include "mra/obs/slow_log.h"
#include "mra/obs/trace.h"
#include "mra/opt/stats.h"

namespace mra {
namespace lang {

namespace {

// Clears a slow-log source slot when the call that set it returns, so the
// slot never outlives the statement or text it points at.
template <typename T>
struct ClearOnExit {
  T* slot;
  ~ClearOnExit() { *slot = T{}; }
};

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void HarvestOpStats(const exec::PhysicalOperator& op, uint32_t depth,
                    QueryStats* stats) {
  stats->operators.push_back(QueryStats::OpStats{
      std::string(op.name()), depth, op.estimated_rows(), op.metrics()});
  for (const exec::PhysicalOperator* child : op.children()) {
    HarvestOpStats(*child, depth + 1, stats);
  }
}

obs::Counter* QueryCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("exec.queries");
  return c;
}

obs::Histogram* QueryLatency() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("exec.query_us");
  return h;
}

}  // namespace

std::shared_ptr<exec::ExecContext> Interpreter::BeginGoverned() {
  auto ctx = std::make_shared<exec::ExecContext>();
  ctx->set_query_id(obs::CurrentQueryId());
  ctx->SetDeadlineAfterMs(options_.governance.statement_timeout_ms);
  ctx->SetMemoryBudget(options_.governance.query_mem_budget_bytes);
  ctx->SetCancelToken(options_.governance.cancel_token);
  std::lock_guard<std::mutex> lock(govern_mutex_);
  if (pending_cancel_id_ != 0) {
    // A Cancel raced ahead of the query it targets (cancel-before-open).
    // Apply it if this is that query; either way it is consumed — a
    // pending id for a different query is stale once a new one starts.
    if (pending_cancel_id_ == ctx->query_id()) ctx->RequestCancel();
    pending_cancel_id_ = 0;
  }
  current_ctx_ = ctx;
  return ctx;
}

void Interpreter::EndGoverned() {
  std::lock_guard<std::mutex> lock(govern_mutex_);
  current_ctx_.reset();
}

void Interpreter::CancelQuery(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(govern_mutex_);
  if (current_ctx_ != nullptr &&
      (query_id == 0 || current_ctx_->query_id() == query_id)) {
    current_ctx_->RequestCancel();
    return;
  }
  if (query_id != 0) pending_cancel_id_ = query_id;
}

Result<Relation> Interpreter::EvaluateExpr(const RelExpr& expr,
                                           const RelationProvider& provider) {
  return Evaluate(expr, provider, Mode::kQuery, nullptr);
}

Result<Relation> Interpreter::Evaluate(const RelExpr& expr,
                                       const RelationProvider& provider,
                                       Mode mode, std::string* text) {
  // A plain EXPLAIN runs no query: it leaves the last query's stats alone.
  if (mode != Mode::kExplain) {
    QueryCounter()->Inc();
    last_query_stats_ = QueryStats{};
  }
  QueryStats stats;
  stats.query_id = obs::CurrentQueryId();
  // Governance brackets the whole evaluation: the statement timeout counts
  // from here, and CancelQuery() can reach the context from another thread
  // until EndGoverned() runs (the guard covers every return path).
  std::shared_ptr<exec::ExecContext> gctx = BeginGoverned();
  struct GovernGuard {
    Interpreter* interp;
    ~GovernGuard() { interp->EndGoverned(); }
  } govern_guard{this};
  uint64_t t0 = NowMicros();
  PlanPtr plan;
  {
    obs::ScopedSpan span("bind");
    MRA_ASSIGN_OR_RETURN(plan, BindRelExpr(expr, provider));
  }
  if (text != nullptr) *text += "logical plan:\n" + plan->ToString();
  uint64_t t1 = NowMicros();
  stats.bind_us = t1 - t0;
  if (options_.planner.optimize) {
    obs::ScopedSpan span("optimize");
    opt::Optimizer optimizer(&provider);
    opt::OptimizerReport report;
    MRA_ASSIGN_OR_RETURN(
        plan, optimizer.Optimize(std::move(plan),
                                 text != nullptr ? &report : nullptr));
    if (text != nullptr) {
      *text += "\noptimized plan:\n" + plan->ToString();
      // The optimizer's decision trail: which rules fired, which join
      // regions were reordered (and into what order).
      for (const std::string& entry : report.entries) {
        *text += "\n" + BracketAnnotation(entry);
      }
    }
  }
  uint64_t t2 = NowMicros();
  stats.optimize_us = t2 - t1;
  // EXPLAIN shows the physical plan, so it always lowers one.
  if (!options_.exec.use_physical_exec && mode == Mode::kQuery) {
    obs::ScopedSpan span("execute");
    Result<Relation> result = EvaluatePlan(*plan, provider);
    QueryLatency()->Observe(NowMicros() - t0);
    return result;
  }
  exec::PhysOpPtr root;
  {
    obs::ScopedSpan span("lower");
    // Estimates drive both EXPLAIN ANALYZE's est-vs-actual annotations and
    // the parallel-variant decision (workers > 1), so every physical plan
    // is lowered with the statistics-backed estimator.
    opt::StatsCache stats_cache(&provider);
    exec::CardinalityEstimator estimator =
        [&provider, &stats_cache](const Plan& node) {
          return opt::EstimateCardinality(node, provider, &stats_cache);
        };
    MRA_ASSIGN_OR_RETURN(root, exec::LowerPlan(plan, provider, &estimator,
                                               options_, gctx.get()));
  }
  if (mode == Mode::kExplain) {
    *text += "\nphysical plan:\n" + root->ToString();
    return Relation(root->schema());
  }
  uint64_t t3 = NowMicros();
  stats.lower_us = t3 - t2;
  Result<Relation> result = [&]() -> Result<Relation> {
    std::optional<obs::ScopedExecTiming> timing;
    if (mode == Mode::kExplainAnalyze) timing.emplace(true);
    obs::ScopedSpan span("execute");
    return exec::ExecuteToRelation(*root, options_.exec.batch_size);
  }();
  uint64_t t4 = NowMicros();
  stats.exec_us = t4 - t3;
  stats.total_us = t4 - t0;
  HarvestOpStats(*root, 0, &stats);
  if (result.ok()) {
    stats.result_rows = result->size();
    stats.valid = true;
  }
  last_query_stats_ = std::move(stats);
  QueryLatency()->Observe(last_query_stats_.total_us);

  obs::SlowQueryLog& slow_log = obs::SlowQueryLog::Global();
  // A governed kill is always log-worthy while the log is enabled — the
  // entry's "killed:<reason>" event tag is how an operator finds out
  // after the fact why a query died (cancel, deadline or budget).
  const exec::KillReason kill_reason = gctx->kill_reason();
  const bool governed_kill =
      !result.ok() && kill_reason != exec::KillReason::kNone;
  if ((result.ok() && slow_log.ShouldLog(last_query_stats_.total_us)) ||
      (governed_kill && slow_log.enabled())) {
    obs::SlowQueryEntry entry;
    entry.query_id = last_query_stats_.query_id;
    entry.latency_us = last_query_stats_.total_us;
    entry.bind_us = last_query_stats_.bind_us;
    entry.optimize_us = last_query_stats_.optimize_us;
    entry.lower_us = last_query_stats_.lower_us;
    entry.exec_us = last_query_stats_.exec_us;
    entry.result_rows = last_query_stats_.result_rows;
    // Rendered only now, for the one statement the log keeps.
    entry.source = current_stmt_ != nullptr ? current_stmt_->ToString()
                                            : std::string(current_source_);
    entry.plan = exec::RenderPlanWithMetrics(*root);
    if (governed_kill) {
      entry.events.push_back("killed:" +
                             std::string(exec::KillReasonName(kill_reason)));
    }
    slow_log.Record(std::move(entry));
  }
  if (mode == Mode::kExplainAnalyze && result.ok()) {
    *text += "\nphysical plan (analyzed):\n" +
             exec::RenderPlanWithMetrics(*root);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(last_query_stats_.exec_us) / 1e3);
    *text += "result: " + std::to_string(result->size()) + " rows (" +
             std::to_string(result->distinct_size()) + " distinct), " + buf +
             "ms\n";
  }
  return result;
}

Status Interpreter::ExecuteStmt(const Stmt& stmt, Transaction& txn,
                                const QueryCallback& on_query) {
  current_stmt_ = &stmt;
  ClearOnExit<const Stmt*> clear{&current_stmt_};
  switch (stmt.kind) {
    case Stmt::Kind::kCreate:
    case Stmt::Kind::kDrop:
    case Stmt::Kind::kConstraint:
    case Stmt::Kind::kDropConstraint:
      return Status::TxnError(
          "DDL statements are top-level only (line " +
          std::to_string(stmt.line) + ")");
    case Stmt::Kind::kAnalyze:
      // Statistics describe committed state; collecting them against a
      // transaction's writes would persist uncommitted numbers.
      return Status::TxnError(
          "analyze is top-level only (line " + std::to_string(stmt.line) +
          ")");
    case Stmt::Kind::kSet:
      // Config changes take effect between statements, not inside a
      // bracket whose earlier statements already ran under the old knobs.
      return Status::TxnError("set is top-level only (line " +
                              std::to_string(stmt.line) + ")");
    case Stmt::Kind::kInsert: {
      MRA_ASSIGN_OR_RETURN(Relation delta, EvaluateExpr(*stmt.expr, txn));
      return txn.Insert(stmt.target, delta);
    }
    case Stmt::Kind::kDelete: {
      MRA_ASSIGN_OR_RETURN(Relation delta, EvaluateExpr(*stmt.expr, txn));
      return txn.Delete(stmt.target, delta);
    }
    case Stmt::Kind::kUpdate: {
      MRA_ASSIGN_OR_RETURN(Relation matched, EvaluateExpr(*stmt.expr, txn));
      return txn.Update(stmt.target, matched, stmt.alpha);
    }
    case Stmt::Kind::kAssign: {
      MRA_ASSIGN_OR_RETURN(Relation value, EvaluateExpr(*stmt.expr, txn));
      return txn.Assign(stmt.target, std::move(value));
    }
    case Stmt::Kind::kQuery: {
      MRA_ASSIGN_OR_RETURN(Relation result, EvaluateExpr(*stmt.expr, txn));
      if (on_query) on_query(stmt.ToString(), result);
      return Status::OK();
    }
    case Stmt::Kind::kExplain: {
      MRA_ASSIGN_OR_RETURN(std::string text,
                           ExplainExpr(*stmt.expr, txn, stmt.analyze));
      if (on_query) {
        // The plan text travels as a one-tuple relation so it flows through
        // the ordinary query channel (a multi-row rendering would lose line
        // order: relations are unordered bags).
        Relation rel(
            RelationSchema("explain", {Attribute{"plan", Type::String()}}));
        rel.InsertUnchecked(Tuple({Value::Str(text)}), 1);
        on_query(stmt.ToString(), rel);
      }
      return Status::OK();
    }
  }
  return Status::Internal("bad statement kind");
}

Status Interpreter::ExecuteItem(const Script::Item& item,
                                const QueryCallback& on_query) {
  // Top-level DDL runs outside transaction brackets.
  if (!item.is_transaction && item.stmts.size() == 1) {
    const Stmt& stmt = item.stmts[0];
    if (stmt.kind == Stmt::Kind::kCreate) {
      return db_->CreateRelation(stmt.schema);
    }
    if (stmt.kind == Stmt::Kind::kDrop) {
      return db_->DropRelation(stmt.target);
    }
    if (stmt.kind == Stmt::Kind::kConstraint) {
      PlanPtr violation_query;
      {
        // Bind against a stable committed state; AddConstraint re-locks
        // exclusively, so the read lock must not outlive the binding.
        auto read_lock = db_->ReadLock();
        MRA_ASSIGN_OR_RETURN(violation_query,
                             BindRelExpr(*stmt.expr, db_->catalog()));
      }
      return db_->AddConstraint(stmt.target, std::move(violation_query));
    }
    if (stmt.kind == Stmt::Kind::kDropConstraint) {
      return db_->DropConstraint(stmt.target);
    }
    if (stmt.kind == Stmt::Kind::kSet) {
      return SetOption(stmt.target, stmt.value);
    }
    if (stmt.kind == Stmt::Kind::kAnalyze) {
      MRA_ASSIGN_OR_RETURN(stats::TableStatistics stats,
                           db_->Analyze(stmt.target));
      if (on_query) {
        // The collection summary travels the query channel as a one-tuple
        // relation, like EXPLAIN's plan text.
        Relation rel(RelationSchema(
            "analyze", {Attribute{"summary", Type::String()}}));
        rel.InsertUnchecked(
            Tuple({Value::Str(stmt.target + ": " + stats.ToString())}), 1);
        on_query(stmt.ToString(), rel);
      }
      return Status::OK();
    }
  }

  MRA_ASSIGN_OR_RETURN(std::unique_ptr<Transaction> txn,
                       db_->Begin(options_.session.block_on_txn_slot));
  for (const Stmt& stmt : item.stmts) {
    Status s = ExecuteStmt(stmt, *txn, on_query);
    if (!s.ok()) {
      // Atomicity (Definition 4.3): the whole bracket rolls back.
      (void)txn->Abort();
      return s;
    }
  }
  return txn->Commit();
}

Status Interpreter::ExecuteScript(std::string_view source,
                                  const QueryCallback& on_query) {
  // The whole script shares one query id unless the caller (e.g. the
  // network server, which binds the wire-provided id) set one already.
  std::optional<obs::ScopedQueryId> qid;
  if (obs::CurrentQueryId() == 0) qid.emplace(obs::NextQueryId());
  obs::ScopedSpan script_span("script");
  Script script;
  {
    obs::ScopedSpan span("parse");
    MRA_ASSIGN_OR_RETURN(script, ParseScript(source));
  }
  for (const Script::Item& item : script.items) {
    MRA_RETURN_IF_ERROR(ExecuteItem(item, on_query));
  }
  return Status::OK();
}

Result<std::vector<Relation>> Interpreter::ExecuteScriptCollect(
    std::string_view source) {
  std::vector<Relation> results;
  MRA_RETURN_IF_ERROR(ExecuteScript(
      source, [&results](const std::string&, const Relation& r) {
        results.push_back(r);
      }));
  return results;
}

Result<Relation> Interpreter::Query(std::string_view rel_expr_source) {
  std::optional<obs::ScopedQueryId> qid;
  if (obs::CurrentQueryId() == 0) qid.emplace(obs::NextQueryId());
  current_source_ = rel_expr_source;
  ClearOnExit<std::string_view> clear{&current_source_};
  obs::ScopedSpan query_span("query");
  RelExprPtr expr;
  {
    obs::ScopedSpan span("parse");
    MRA_ASSIGN_OR_RETURN(expr, ParseRelExpr(rel_expr_source));
  }
  // Bind-through-execute pins relation instances from the committed
  // catalog, so the whole evaluation runs under the shared read lock —
  // concurrent with other queries, serialized against commits.
  auto read_lock = db_->ReadLock();
  return EvaluateExpr(*expr, db_->catalog());
}

Result<std::string> Interpreter::Explain(std::string_view rel_expr_source) {
  MRA_ASSIGN_OR_RETURN(RelExprPtr expr, ParseRelExpr(rel_expr_source));
  auto read_lock = db_->ReadLock();
  return ExplainExpr(*expr, db_->catalog(), /*analyze=*/false);
}

Result<std::string> Interpreter::ExplainAnalyze(
    std::string_view rel_expr_source) {
  MRA_ASSIGN_OR_RETURN(RelExprPtr expr, ParseRelExpr(rel_expr_source));
  auto read_lock = db_->ReadLock();
  return ExplainExpr(*expr, db_->catalog(), /*analyze=*/true);
}

Result<std::string> Interpreter::ExplainExpr(const RelExpr& expr,
                                             const RelationProvider& provider,
                                             bool analyze) {
  std::string text;
  Result<Relation> result = Evaluate(
      expr, provider, analyze ? Mode::kExplainAnalyze : Mode::kExplain, &text);
  MRA_RETURN_IF_ERROR(result.status());
  return text;
}

}  // namespace lang
}  // namespace mra
