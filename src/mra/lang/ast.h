// Abstract syntax of XRA scripts.
//
// Scalar sub-expressions need no name resolution (XRA addresses attributes
// positionally with %i, as the paper does), so the parser produces ExprPtr
// trees directly.  Relation expressions reference database relations by
// name and are bound to logical plans per statement execution by the
// binder, against the executing transaction's view.

#ifndef MRA_LANG_AST_H_
#define MRA_LANG_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "mra/algebra/aggregate.h"
#include "mra/core/relation.h"
#include "mra/expr/scalar_expr.h"

namespace mra {
namespace lang {

struct RelExpr;
using RelExprPtr = std::shared_ptr<const RelExpr>;

/// A relation-valued expression (Definitions 3.1/3.2/3.4 in textual form).
struct RelExpr {
  enum class Kind : uint8_t {
    kName,      // database relation or temporary
    kLiteral,   // {(…) : n, …} with inferred schema, or empty(a: t, …)
    kUnion,
    kDiff,
    kIntersect,
    kProduct,
    kJoin,
    kSelect,
    kProject,
    kUnique,
    kGroupBy,
    kSort,     // ordered emission + optional weighted limit (practical ext.)
    kClosure,  // §5 extension
  };

  Kind kind;
  int line = 0;

  std::string name;                // kName
  Relation literal;                // kLiteral
  ExprPtr condition;               // kJoin, kSelect
  std::vector<ExprPtr> projections;  // kProject
  std::vector<size_t> keys;        // kGroupBy, kSort (0-based)
  std::vector<AggSpec> aggs;       // kGroupBy
  std::vector<bool> sort_desc;     // kSort: per-key descending flag
  uint64_t limit = 0;              // kSort: weighted LIMIT, 0 = none
  std::vector<RelExprPtr> children;

  /// Source-like rendering (used in error messages and the REPL).
  std::string ToString() const;
};

/// One statement (Definition 4.1 plus the DDL extension).
struct Stmt {
  enum class Kind : uint8_t {
    kCreate,  // create name(attr: type, …)      [extension]
    kDrop,    // drop name                        [extension]
    kInsert,  // insert(name, E)
    kDelete,  // delete(name, E)
    kUpdate,  // update(name, E, [e1, …, en])
    kAssign,          // name := E
    kQuery,           // ? E
    kConstraint,      // constraint name (E)   [extension: §4.3 correctness]
    kDropConstraint,  // drop constraint name   [extension]
    kExplain,         // explain [analyze] E    [extension: observability]
    kAnalyze,         // analyze name           [extension: statistics]
    kSet,             // set knob = value       [extension: session config]
  };

  Kind kind;
  int line = 0;
  std::string target;              // relation / temporary name; kSet knob
  RelationSchema schema;           // kCreate
  RelExprPtr expr;                 // kInsert/kDelete/kUpdate/kAssign/kQuery/kExplain
  std::vector<ExprPtr> alpha;      // kUpdate attribute expression list
  bool analyze = false;            // kExplain: execute and report actuals
  std::string value;               // kSet: the knob's new value, verbatim

  std::string ToString() const;
};

/// A parsed script: a sequence of transactions and bare statements.
/// `begin p end` brackets a program (Definition 4.3); a bare query reads
/// the committed state, a bare write is a single-statement transaction.
struct Script {
  struct Item {
    bool is_transaction = false;
    std::vector<Stmt> stmts;
  };
  std::vector<Item> items;
};

}  // namespace lang
}  // namespace mra

#endif  // MRA_LANG_AST_H_
