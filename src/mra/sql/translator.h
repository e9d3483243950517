// SQL → extended relational algebra translation, in the spirit the paper
// describes (§1, §5: "a formal background for other multi-set languages
// like SQL", citing Ceri & Gottlob's SQL-to-algebra translation).
//
// The translator maps each SQL statement to an XRA statement (lang::Stmt):
//
//   SELECT … FROM t1, t2 WHERE p            → ? project(…, select(p',
//                                                product(t1, t2)))
//   SELECT DISTINCT …                       → ? unique(project(…))
//   SELECT c, AVG(x) … GROUP BY c           → ? groupby([c'], avg(x'), …)
//                                             — Example 3.2's translation
//   INSERT INTO t VALUES …                  → insert(t, {…})
//   UPDATE t SET c = e WHERE p              → update(t, select(p', t), α)
//                                             — exactly Example 4.1
//   DELETE FROM t WHERE p                   → delete(t, select(p', t))
//   CREATE TABLE / DROP TABLE               → create / drop
//   ANALYZE t / SET knob = v                → analyze t / set knob = v
//
// Named column references resolve to positional %i over the ⊕-concatenated
// FROM schema.  SqlSession hands each statement to Interpreter::ExecuteItem,
// which runs it as it runs the XRA statement it translates to; SQL's
// BEGIN/COMMIT/ROLLBACK map onto the paper's transaction brackets.

#ifndef MRA_SQL_TRANSLATOR_H_
#define MRA_SQL_TRANSLATOR_H_

#include <memory>

#include "mra/lang/ast.h"
#include "mra/lang/interpreter.h"
#include "mra/sql/sql_ast.h"

namespace mra {
namespace sql {

/// Resolves [table.]column names to 0-based positions over the concatenated
/// schema of a FROM list.
class NameScope {
 public:
  /// Builds a scope for `tables`, resolving each through `provider`.
  static Result<NameScope> ForTables(const std::vector<std::string>& tables,
                                     const RelationProvider& provider);

  /// Global attribute index of `ref`; ambiguous or unknown names error.
  Result<size_t> Resolve(const ColumnRef& ref) const;

  /// The ⊕-concatenation of the table schemas, in FROM order.
  const RelationSchema& combined() const { return combined_; }

 private:
  struct TableEntry {
    std::string name;
    size_t offset;
    size_t arity;
  };
  std::vector<TableEntry> tables_;
  RelationSchema combined_;
};

/// Translates a SQL scalar expression to a positional algebra expression.
Result<ExprPtr> TranslateExpr(const SqlExpr& expr, const NameScope& scope);

/// Translates a SELECT into an XRA relation expression.
Result<lang::RelExprPtr> TranslateSelect(const SelectStmt& stmt,
                                         const RelationProvider& provider);

/// Translates one non-transaction-control SQL statement into an XRA
/// statement.  The provider supplies schemas for name resolution.
Result<lang::Stmt> TranslateStatement(const SqlStatement& stmt,
                                      const RelationProvider& provider);

/// Widening coercion of an INSERT literal to a column domain: exact match,
/// int → real, int → decimal.  Anything else is a TypeError.
Result<Value> CoerceValue(const Value& v, Type target);

/// Executes SQL against a Database through the XRA pipeline: a statement
/// runs as its translation would in an XRA script, and BEGIN … COMMIT or
/// ROLLBACK keeps one bracket open across Execute calls (a statement failure
/// aborts it, Definition 4.3).  BEGIN honours block_on_txn_slot.
class SqlSession {
 public:
  explicit SqlSession(Database* db, ExecConfig options = {})
      : db_(db), interp_(db, options) {}

  ~SqlSession();

  /// Parses and executes `sql_text`; SELECT results go to `on_query`.
  Status Execute(std::string_view sql_text,
                 const lang::Interpreter::QueryCallback& on_query = nullptr);

  /// Convenience: collect SELECT results.
  Result<std::vector<Relation>> ExecuteCollect(std::string_view sql_text);

  bool in_transaction() const { return txn_ != nullptr; }

 private:
  Status ExecuteOne(const SqlStatement& stmt,
                    const lang::Interpreter::QueryCallback& on_query);

  Database* db_;
  lang::Interpreter interp_;
  std::unique_ptr<Transaction> txn_;
};

}  // namespace sql
}  // namespace mra

#endif  // MRA_SQL_TRANSLATOR_H_
