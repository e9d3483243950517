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
                    obs::QueryStats* stats) {
  stats->operators.push_back(obs::QueryStats::OpStats{
      std::string(op.name()), depth, op.estimated_rows(), op.metrics()});
  for (const exec::PhysicalOperator* child : op.children()) {
    HarvestOpStats(*child, depth + 1, stats);
  }
}

// Act outside any bracket: DDL, `analyze` (statistics describe committed
// state) and `set` (knobs change between statements, not mid-bracket).
bool IsTopLevelOnly(Stmt::Kind kind) {
  using K = Stmt::Kind;
  return kind == K::kCreate || kind == K::kDrop || kind == K::kConstraint ||
         kind == K::kDropConstraint || kind == K::kAnalyze || kind == K::kSet;
}

// A one-tuple relation that carries text through the query channel (more
// rows would lose line order: relations are unordered bags).
Relation TextRelation(const char* name, const char* attr, std::string text) {
  Relation rel(RelationSchema(name, {Attribute{attr, Type::String()}}));
  rel.InsertUnchecked(Tuple({Value::Str(std::move(text))}), 1);
  return rel;
}

Status RefuseInBracket(Stmt::Kind kind) {
  const char* what = kind == Stmt::Kind::kAnalyze ? "analyze"
                     : kind == Stmt::Kind::kSet   ? "set"
                                                  : "DDL";
  return Status::TxnError(std::string(what) +
                          " is top-level only, not inside a bracket");
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
    last_query_stats_ = obs::QueryStats{};
  }
  obs::QueryStats stats;
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
  if (result.ok()) {
    stats.result_rows = result->size();
    stats.valid = true;
  }
  QueryLatency()->Observe(stats.total_us);

  obs::SlowQueryLog& slow_log = obs::SlowQueryLog::Global();
  // A governed kill is always log-worthy while the log is enabled — the
  // entry's "killed:<reason>" event tag is how an operator finds out
  // after the fact why a query died (cancel, deadline or budget).
  const exec::KillReason kill_reason = gctx->kill_reason();
  const bool governed_kill =
      !result.ok() && kill_reason != exec::KillReason::kNone;
  if ((result.ok() && slow_log.ShouldLog(stats.total_us)) ||
      (governed_kill && slow_log.enabled())) {
    obs::SlowQueryEntry entry;
    // Copied before the harvest: the entry renders its plan instead of
    // keeping the operator list.
    entry.stats = stats;
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
  HarvestOpStats(*root, 0, &stats);
  last_query_stats_ = std::move(stats);
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
  if (IsTopLevelOnly(stmt.kind)) return RefuseInBracket(stmt.kind);
  if (stmt.kind == Stmt::Kind::kQuery || stmt.kind == Stmt::Kind::kExplain) {
    MRA_ASSIGN_OR_RETURN(Relation result, RunQuery(stmt, txn));
    if (on_query) on_query(stmt.ToString(), result);
    return Status::OK();
  }
  MRA_ASSIGN_OR_RETURN(Relation operand, EvaluateExpr(*stmt.expr, txn));
  switch (stmt.kind) {
    case Stmt::Kind::kInsert:
      return txn.Insert(stmt.target, operand);
    case Stmt::Kind::kDelete:
      return txn.Delete(stmt.target, operand);
    case Stmt::Kind::kUpdate:
      return txn.Update(stmt.target, operand, stmt.alpha);
    default:
      return txn.Assign(stmt.target, std::move(operand));
  }
}

Result<Relation> Interpreter::RunQuery(const Stmt& stmt,
                                       const RelationProvider& view) {
  if (stmt.kind == Stmt::Kind::kQuery) return EvaluateExpr(*stmt.expr, view);
  std::string text;
  MRA_RETURN_IF_ERROR(
      Evaluate(*stmt.expr, view,
               stmt.analyze ? Mode::kExplainAnalyze : Mode::kExplain, &text)
          .status());
  return TextRelation("explain", "plan", std::move(text));
}

Status Interpreter::InBracket(
    const std::function<Status(Transaction&)>& body) {
  MRA_ASSIGN_OR_RETURN(std::unique_ptr<Transaction> txn,
                       db_->Begin(options_.session.block_on_txn_slot));
  Status s = body(*txn);
  if (!s.ok()) {
    // Atomicity (Definition 4.3): the whole bracket rolls back.
    (void)txn->Abort();
    return s;
  }
  return txn->Commit();
}

Status Interpreter::ExecuteItem(Stmt::Kind kind, const StmtBuilder& build,
                                const QueryCallback& on_query,
                                Transaction* open) {
  auto write = [&](Transaction& txn) -> Status {
    MRA_ASSIGN_OR_RETURN(Stmt stmt, build(txn));
    return ExecuteStmt(stmt, txn, on_query);
  };
  if (open != nullptr) {
    // Refused before it is built, so the caller's bracket stays open.
    if (IsTopLevelOnly(kind)) return RefuseInBracket(kind);
    Status s = write(*open);
    if (!s.ok()) (void)open->Abort();
    return s;
  }
  if (kind == Stmt::Kind::kQuery || kind == Stmt::Kind::kExplain) {
    // A query changes no relation (Definition 4.1), so it is no
    // transition: it reads D_t as Query does, and time does not move.
    Stmt stmt;
    ClearOnExit<const Stmt*> clear{&current_stmt_};
    Result<Relation> result =
        ReadCommitted([&](const RelationProvider& committed)
                          -> Result<Relation> {
          MRA_ASSIGN_OR_RETURN(stmt, build(committed));
          current_stmt_ = &stmt;
          return RunQuery(stmt, committed);
        });
    MRA_RETURN_IF_ERROR(result.status());
    if (on_query) on_query(stmt.ToString(), *result);
    return Status::OK();
  }
  if (!IsTopLevelOnly(kind)) return InBracket(write);

  Stmt stmt;
  PlanPtr violation_query;
  MRA_RETURN_IF_ERROR(
      ReadCommitted([&](const RelationProvider& committed) -> Status {
        MRA_ASSIGN_OR_RETURN(stmt, build(committed));
        // Bound here: AddConstraint re-locks exclusively.
        if (kind != Stmt::Kind::kConstraint) return Status::OK();
        MRA_ASSIGN_OR_RETURN(violation_query,
                             BindRelExpr(*stmt.expr, committed));
        return Status::OK();
      }));
  switch (kind) {
    case Stmt::Kind::kCreate:
      return db_->CreateRelation(stmt.schema);
    case Stmt::Kind::kDrop:
      return db_->DropRelation(stmt.target);
    case Stmt::Kind::kConstraint:
      return db_->AddConstraint(stmt.target, std::move(violation_query));
    case Stmt::Kind::kDropConstraint:
      return db_->DropConstraint(stmt.target);
    case Stmt::Kind::kSet:
      return SetOption(stmt.target, stmt.value);
    default: {
      MRA_ASSIGN_OR_RETURN(stats::TableStatistics stats,
                           db_->Analyze(stmt.target));
      if (on_query) {
        on_query(stmt.ToString(),
                 TextRelation("analyze", "summary",
                              stmt.target + ": " + stats.ToString()));
      }
      return Status::OK();
    }
  }
}

Status Interpreter::ExecuteScript(std::string_view source,
                                  const QueryCallback& on_query) {
  // The whole script shares one query id unless the caller (e.g. the
  // network server, which binds the wire-provided id) set one already.
  std::optional<obs::ScopedQueryId> qid;
  if (obs::CurrentQueryId() == 0) qid.emplace(obs::NextQueryId());
  last_query_stats_ = obs::QueryStats{};
  obs::ScopedSpan script_span("script");
  Script script;
  {
    obs::ScopedSpan span("parse");
    MRA_ASSIGN_OR_RETURN(script, ParseScript(source));
  }
  for (const Script::Item& item : script.items) {
    if (item.is_transaction) {
      MRA_RETURN_IF_ERROR(InBracket([&](Transaction& txn) -> Status {
        for (const Stmt& stmt : item.stmts) {
          MRA_RETURN_IF_ERROR(ExecuteStmt(stmt, txn, on_query));
        }
        return Status::OK();
      }));
      continue;
    }
    // A bare statement: parsed already, so it ignores the view.
    const Stmt& stmt = item.stmts.front();
    auto parsed = [&stmt](const RelationProvider&) -> Result<Stmt> {
      return stmt;
    };
    MRA_RETURN_IF_ERROR(ExecuteItem(stmt.kind, parsed, on_query));
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
  return ReadCommitted([&](const RelationProvider& committed) {
    return EvaluateExpr(*expr, committed);
  });
}

Result<std::string> Interpreter::Explain(std::string_view rel_expr_source) {
  return ExplainCommitted(rel_expr_source, /*analyze=*/false);
}

Result<std::string> Interpreter::ExplainAnalyze(
    std::string_view rel_expr_source) {
  return ExplainCommitted(rel_expr_source, /*analyze=*/true);
}

Result<std::string> Interpreter::ExplainCommitted(std::string_view source,
                                                  bool analyze) {
  MRA_ASSIGN_OR_RETURN(RelExprPtr expr, ParseRelExpr(source));
  std::string text;
  MRA_RETURN_IF_ERROR(ReadCommitted([&](const RelationProvider& committed) {
    return Evaluate(*expr, committed,
                    analyze ? Mode::kExplainAnalyze : Mode::kExplain, &text)
        .status();
  }));
  return text;
}

}  // namespace lang
}  // namespace mra
