#include "mra/sql/sql_ast.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace mra {
namespace sql {

SqlExprPtr SqlColumn(ColumnRef ref) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = SqlExpr::Kind::kColumn;
  e->column = std::move(ref);
  return e;
}

SqlExprPtr SqlLiteral(Value v) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = SqlExpr::Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

SqlExprPtr SqlUnary(UnaryOp op, SqlExprPtr operand) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = SqlExpr::Kind::kUnary;
  e->unary_op = op;
  e->height = operand->height + 1;
  e->lhs = std::move(operand);
  return e;
}

SqlExprPtr SqlBinary(BinaryOp op, SqlExprPtr lhs, SqlExprPtr rhs) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = SqlExpr::Kind::kBinary;
  e->binary_op = op;
  e->height = std::max(lhs->height, rhs->height) + 1;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

SqlExprPtr SqlAggregate(AggKind agg, SqlExprPtr arg_or_null) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = SqlExpr::Kind::kAggregate;
  e->agg = agg;
  if (arg_or_null != nullptr) e->height = arg_or_null->height + 1;
  e->lhs = std::move(arg_or_null);
  return e;
}

std::string SqlExpr::ToString() const {
  switch (kind) {
    case Kind::kColumn:
      return column.ToString();
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kUnary:
      return unary_op == UnaryOp::kNeg ? "(-" + lhs->ToString() + ")"
                                       : "(NOT " + lhs->ToString() + ")";
    case Kind::kBinary: {
      std::ostringstream out;
      out << "(" << lhs->ToString() << " " << BinaryOpName(binary_op) << " "
          << rhs->ToString() << ")";
      return out.str();
    }
    case Kind::kAggregate: {
      std::string name(AggKindName(agg));
      for (char& c : name) c = static_cast<char>(std::toupper(c));
      return name + "(" + (lhs ? lhs->ToString() : "*") + ")";
    }
  }
  return "?";
}

std::string SelectItem::ToString() const {
  std::string out;
  switch (kind) {
    case Kind::kStar:
      out = "*";
      break;
    case Kind::kExpr:
      out = expr->ToString();
      break;
    case Kind::kAggregate: {
      std::string name(AggKindName(agg));
      for (char& c : name) c = static_cast<char>(std::toupper(c));
      out = name + "(" + (expr ? expr->ToString() : "*") + ")";
      break;
    }
  }
  if (!alias.empty()) out += " AS " + alias;
  return out;
}

}  // namespace sql
}  // namespace mra
