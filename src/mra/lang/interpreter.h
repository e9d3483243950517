// Executes XRA scripts against a Database: the complete sequential data
// manipulation language of §4 (statements → programs → transactions).
//
// Execution model:
//  * `begin s1; …; sn end` runs as one transaction bracket: any statement
//    failure aborts the whole bracket (atomicity, Definition 4.3) and
//    aborts script execution with the error;
//  * a bare top-level statement runs as a single-statement transaction;
//  * `create`/`drop` are top-level only (DDL extension, see DESIGN.md);
//  * `? E` results are delivered through the query callback.

#ifndef MRA_LANG_INTERPRETER_H_
#define MRA_LANG_INTERPRETER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>

#include "mra/common/config.h"
#include "mra/exec/exec_context.h"
#include "mra/lang/ast.h"
#include "mra/obs/op_metrics.h"
#include "mra/opt/optimizer.h"
#include "mra/txn/database.h"
#include "mra/txn/transaction.h"

namespace mra {
namespace lang {

/// Not itself thread-safe: use one Interpreter per thread/session.  Many
/// interpreters may share one Database — Query/Explain evaluate under the
/// database's shared read lock, transaction brackets serialize on its
/// transaction slot (see the thread-model note in txn/database.h).
class Interpreter {
 public:
  using Options = ExecConfig;

  /// Receives each `? E` result, with the statement's source text form.
  using QueryCallback =
      std::function<void(const std::string& query, const Relation& result)>;

  explicit Interpreter(Database* db, Options options = {})
      : db_(db), options_(options) {
    MRA_CHECK(db != nullptr);
  }

  /// Parses and executes a whole script.  Statements after a failing
  /// transaction do not run; the failing bracket leaves D_t unchanged.
  Status ExecuteScript(std::string_view source, const QueryCallback& on_query);

  /// Convenience: execute a script, collecting the query results.
  Result<std::vector<Relation>> ExecuteScriptCollect(std::string_view source);

  /// Evaluates one relation expression against the committed state,
  /// outside any transaction (a read-only query).
  Result<Relation> Query(std::string_view rel_expr_source);

  /// Renders the bound logical plan, the optimized plan (when `optimize`
  /// is on) and the lowered physical plan of a relation expression: the
  /// plan Query would run (EXPLAIN).
  Result<std::string> Explain(std::string_view rel_expr_source);

  /// EXPLAIN ANALYZE: runs the expression as Query would, with per-call
  /// timing enabled, and renders the plans with the physical tree
  /// annotated per operator — estimated vs. actual cardinality, estimation
  /// error, wall time and hash-table peaks.  Fills last_query_stats() and
  /// the slow log as a query does.
  Result<std::string> ExplainAnalyze(std::string_view rel_expr_source);

  /// Shared EXPLAIN body over an already-parsed expression and an
  /// arbitrary view (the SQL front end explains against its transaction).
  Result<std::string> ExplainExpr(const RelExpr& expr,
                                  const RelationProvider& provider,
                                  bool analyze);

  /// Stats of the most recent query run through the physical executor
  /// (`valid` is false before the first one).
  const obs::QueryStats& last_query_stats() const {
    return last_query_stats_;
  }

  /// The session's live configuration.  SetOption backs the `SET
  /// <knob> = <value>;` statement (XRA and SQL) and the REPL's `\set`:
  /// changes take effect for the next statement.
  const ExecConfig& options() const { return options_; }
  Status SetOption(std::string_view knob, std::string_view value) {
    return options_.Set(knob, value);
  }

  /// Executes one already-parsed DML/query statement inside an open
  /// transaction (used by the SQL front end, which manages its own
  /// bracketing).  DDL statements are rejected here.
  Status ExecuteStmt(const Stmt& stmt, Transaction& txn,
                     const QueryCallback& on_query);

  /// Binds, optimizes and evaluates a relation expression against an
  /// arbitrary view (committed state or transaction overlay).
  Result<Relation> EvaluateExpr(const RelExpr& expr,
                                const RelationProvider& provider);

  /// Requests cooperative cancellation of the running query.  Safe to call
  /// from any thread (this is the one cross-thread entry point of the
  /// otherwise single-threaded Interpreter): if `query_id` names the query
  /// currently executing — or is 0, meaning "whatever is running" — its
  /// governance context is tripped and the plan unwinds with kCancelled at
  /// its next batch boundary.  A non-zero id that is not running yet is
  /// remembered and applied when that query starts (cancel-before-open);
  /// the pending id is dropped as stale when a different query starts.
  void CancelQuery(uint64_t query_id);

 private:
  Status ExecuteItem(const Script::Item& item, const QueryCallback& on_query);

  /// How far an evaluation goes: a query, EXPLAIN (stops once lowered) or
  /// EXPLAIN ANALYZE (a query with per-call timing).
  enum class Mode { kQuery, kExplain, kExplainAnalyze };
  /// The one query pipeline behind EvaluateExpr and ExplainExpr: bind,
  /// optimize, lower, execute, harvest the stats and feed the slow log,
  /// governed from the start.  EXPLAIN appends its rendering of each step
  /// to *text (null for a query) and physically lowers even when
  /// use_physical_exec is off.
  Result<Relation> Evaluate(const RelExpr& expr,
                            const RelationProvider& provider, Mode mode,
                            std::string* text);

  /// Builds, registers (for CancelQuery) and returns the governance
  /// context for one evaluation; EndGoverned() deregisters it.
  std::shared_ptr<exec::ExecContext> BeginGoverned();
  void EndGoverned();

  Database* db_;
  Options options_;
  obs::QueryStats last_query_stats_;
  /// What the slow-query log names as the source of the evaluation in
  /// progress: the statement ExecuteStmt runs (rendered only when an entry
  /// is recorded), else the text Query was given.  Each is set for the
  /// duration of that call only; the interpreter is single-threaded.
  const Stmt* current_stmt_ = nullptr;
  std::string_view current_source_;
  /// Guards the two members below against CancelQuery from other threads.
  std::mutex govern_mutex_;
  std::shared_ptr<exec::ExecContext> current_ctx_;
  uint64_t pending_cancel_id_ = 0;
};

}  // namespace lang
}  // namespace mra

#endif  // MRA_LANG_INTERPRETER_H_
