// Abstract syntax for the SQL subset the paper positions the algebra as a
// formal background for (§1, §5; Examples 3.2 and 4.1 give the SQL forms):
// SELECT [DISTINCT] … FROM … WHERE … GROUP BY …, INSERT INTO … VALUES,
// UPDATE … SET … WHERE, DELETE FROM … WHERE, CREATE TABLE, DROP TABLE and
// BEGIN/COMMIT/ROLLBACK.
//
// SQL scalar expressions carry *named* column references; the translator
// (translator.h) resolves them to positional %i references over the FROM
// product schema, exactly in the spirit of the paper's translation.

#ifndef MRA_SQL_SQL_AST_H_
#define MRA_SQL_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "mra/algebra/aggregate.h"
#include "mra/core/schema.h"
#include "mra/core/value.h"
#include "mra/expr/scalar_expr.h"

namespace mra {
namespace sql {

struct SqlExpr;
using SqlExprPtr = std::shared_ptr<const SqlExpr>;

/// A (possibly qualified) column reference: [table.]column.
struct ColumnRef {
  std::string table;  // empty when unqualified
  std::string column;

  std::string ToString() const {
    return table.empty() ? column : table + "." + column;
  }
};

/// SQL scalar expression.  Aggregate calls (kAggregate) are only legal in
/// select lists and HAVING clauses; the translator rejects them elsewhere.
struct SqlExpr {
  enum class Kind : uint8_t { kColumn, kLiteral, kUnary, kBinary, kAggregate };

  Kind kind;
  ColumnRef column;          // kColumn
  Value literal;             // kLiteral
  UnaryOp unary_op{};        // kUnary
  BinaryOp binary_op{};      // kBinary
  SqlExprPtr lhs, rhs;       // kUnary/kAggregate use lhs only
  AggKind agg{};             // kAggregate; lhs null means COUNT(*)
  uint32_t height = 1;       // nodes on the longest path down to a leaf

  std::string ToString() const;
};

SqlExprPtr SqlColumn(ColumnRef ref);
SqlExprPtr SqlLiteral(Value v);
SqlExprPtr SqlUnary(UnaryOp op, SqlExprPtr operand);
SqlExprPtr SqlBinary(BinaryOp op, SqlExprPtr lhs, SqlExprPtr rhs);
SqlExprPtr SqlAggregate(AggKind agg, SqlExprPtr arg_or_null);

/// One item of a select list.
struct SelectItem {
  enum class Kind : uint8_t { kStar, kExpr, kAggregate };

  Kind kind;
  SqlExprPtr expr;            // kExpr; kAggregate argument (null for COUNT(*))
  AggKind agg{};              // kAggregate
  std::string alias;          // AS name (optional)

  std::string ToString() const;
};

/// One ORDER BY item: a column of the *output* (a select-list alias, a
/// projected column, or a group key / aggregate alias), with direction.
struct OrderItem {
  ColumnRef column;
  bool desc = false;
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<std::string> tables;  // FROM t1, t2, …
  SqlExprPtr where;                 // nullable
  std::vector<ColumnRef> group_by;
  SqlExprPtr having;                // nullable; may contain aggregates
  std::vector<OrderItem> order_by;  // empty = no ordering requested
  uint64_t limit = 0;               // multiplicity-weighted LIMIT; 0 = none
};

struct InsertStmt {
  std::string table;
  std::vector<std::vector<Value>> rows;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, SqlExprPtr>> assignments;
  SqlExprPtr where;  // nullable
};

struct DeleteStmt {
  std::string table;
  SqlExprPtr where;  // nullable
};

struct CreateTableStmt {
  RelationSchema schema;
};

struct DropTableStmt {
  std::string table;
};

/// ANALYZE table — collects and stores a statistics snapshot.
struct AnalyzeStmt {
  std::string table;
};

/// SET knob = value — a per-session ExecConfig override (the same knob
/// registry as the XRA `set` statement and the REPL's `\set`).
struct SetStmt {
  std::string knob;
  std::string value;
};

enum class TxnControl : uint8_t { kBegin, kCommit, kRollback };

/// EXPLAIN [ANALYZE] SELECT … — renders the translated plans; with ANALYZE
/// the query also executes and the physical tree carries actual vs.
/// estimated cardinalities and wall time.
struct ExplainStmt {
  bool analyze = false;
  std::shared_ptr<SelectStmt> select;
};

using SqlStatement =
    std::variant<SelectStmt, InsertStmt, UpdateStmt, DeleteStmt,
                 CreateTableStmt, DropTableStmt, AnalyzeStmt, SetStmt,
                 TxnControl, ExplainStmt>;

}  // namespace sql
}  // namespace mra

#endif  // MRA_SQL_SQL_AST_H_
