// Scalar expressions over the attributes of one tuple.
//
// These realise two constructs of the paper: the selection condition φ of
// Definition 3.1 ("a function from dom(ℰ) into the boolean domain") and the
// arithmetic expressions e_i of the extended projection of Definition 3.4
// ("functions from dom(ℰ) into a basic domain").
//
// Expression trees are immutable and shared (ExprPtr = shared_ptr<const …>);
// the optimizer rewrites by rebuilding.

#ifndef MRA_EXPR_SCALAR_EXPR_H_
#define MRA_EXPR_SCALAR_EXPR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "mra/common/result.h"
#include "mra/core/schema.h"
#include "mra/core/tuple.h"
#include "mra/core/value.h"

namespace mra {

class ScalarExpr;
/// Shared immutable expression handle.
using ExprPtr = std::shared_ptr<const ScalarExpr>;

enum class ExprKind : uint8_t { kAttrRef, kLiteral, kUnary, kBinary };

enum class UnaryOp : uint8_t { kNeg, kNot };

enum class BinaryOp : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

/// True for =, <>, <, <=, >, >=.
bool IsComparison(BinaryOp op);
/// True for +, -, *, /, %.
bool IsArithmetic(BinaryOp op);
/// Display form: "+", "<=", "and", ….
std::string_view BinaryOpName(BinaryOp op);

/// Abstract scalar expression node.
class ScalarExpr {
 public:
  virtual ~ScalarExpr() = default;

  ExprKind kind() const { return kind_; }

  /// Nodes on the longest path from here down to a leaf (1 for a leaf).
  uint32_t height() const { return height_; }

  /// Static type of this expression over tuples of `input`; TypeError /
  /// InvalidArgument on mismatch.
  virtual Result<Type> Infer(const RelationSchema& input) const = 0;

  /// Evaluates over one tuple.  The tuple must conform to the schema this
  /// expression was type-checked against; runtime failures (division by
  /// zero) return EvalError.
  virtual Result<Value> Eval(const Tuple& tuple) const = 0;

  /// Display form using the paper's 1-based %i attribute notation.
  virtual std::string ToString() const = 0;

 protected:
  explicit ScalarExpr(ExprKind kind, uint32_t height = 1)
      : kind_(kind), height_(height) {}

 private:
  ExprKind kind_;
  uint32_t height_;
};

/// %i — reference to the i-th attribute of the input tuple (0-based here;
/// printed 1-based as in the paper).
class AttrRefExpr final : public ScalarExpr {
 public:
  explicit AttrRefExpr(size_t index)
      : ScalarExpr(ExprKind::kAttrRef), index_(index) {}

  size_t index() const { return index_; }

  Result<Type> Infer(const RelationSchema& input) const override;
  Result<Value> Eval(const Tuple& tuple) const override;
  std::string ToString() const override;

 private:
  size_t index_;
};

/// A constant of one of the atomic domains.
class LiteralExpr final : public ScalarExpr {
 public:
  explicit LiteralExpr(Value value)
      : ScalarExpr(ExprKind::kLiteral), value_(std::move(value)) {}

  const Value& value() const { return value_; }

  Result<Type> Infer(const RelationSchema& input) const override;
  Result<Value> Eval(const Tuple& tuple) const override;
  std::string ToString() const override;

 private:
  Value value_;
};

/// Unary minus (numeric) and logical not.
class UnaryExpr final : public ScalarExpr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : ScalarExpr(ExprKind::kUnary, operand->height() + 1),
        op_(op),
        operand_(std::move(operand)) {}

  UnaryOp op() const { return op_; }
  const ExprPtr& operand() const { return operand_; }

  Result<Type> Infer(const RelationSchema& input) const override;
  Result<Value> Eval(const Tuple& tuple) const override;
  std::string ToString() const override;

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

/// Arithmetic, comparison and boolean connectives.
///
/// Typing rules: arithmetic requires numeric operands and promotes through
/// int < decimal < real (plus date ± int and date − date); comparisons
/// require two numerics or two values of one domain; and/or require
/// booleans.  Integer division truncates; division by zero is an EvalError.
class BinaryExpr final : public ScalarExpr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : ScalarExpr(ExprKind::kBinary,
                   std::max(lhs->height(), rhs->height()) + 1),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  BinaryOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  Result<Type> Infer(const RelationSchema& input) const override;
  Result<Value> Eval(const Tuple& tuple) const override;
  std::string ToString() const override;

 private:
  BinaryOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

// --- Construction helpers (the public builder API). ---

/// %(\p index + 1) — 0-based attribute reference.
ExprPtr Attr(size_t index);
ExprPtr Lit(Value value);
ExprPtr Lit(int64_t v);
ExprPtr Lit(double v);
ExprPtr Lit(const char* v);
ExprPtr Lit(bool v);
ExprPtr Neg(ExprPtr e);
ExprPtr Not(ExprPtr e);
ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr Mul(ExprPtr a, ExprPtr b);
ExprPtr Div(ExprPtr a, ExprPtr b);
ExprPtr Mod(ExprPtr a, ExprPtr b);
ExprPtr Eq(ExprPtr a, ExprPtr b);
ExprPtr Ne(ExprPtr a, ExprPtr b);
ExprPtr Lt(ExprPtr a, ExprPtr b);
ExprPtr Le(ExprPtr a, ExprPtr b);
ExprPtr Gt(ExprPtr a, ExprPtr b);
ExprPtr Ge(ExprPtr a, ExprPtr b);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);

// --- Analysis and rewriting helpers used by the optimizer. ---

/// Collects the 0-based attribute indexes referenced by `expr`.
void CollectAttrs(const ExprPtr& expr, std::set<size_t>* out);
std::set<size_t> AttrsUsed(const ExprPtr& expr);

/// True when the expression references no attributes.
bool IsConstantExpr(const ExprPtr& expr);

/// Rebuilds `expr` with every attribute index i replaced by mapping[i].
/// Indexes missing from the mapping are a checked error (callers must
/// establish coverage first via AttrsUsed).
ExprPtr RemapAttrs(const ExprPtr& expr,
                   const std::vector<size_t>& mapping);

/// Rebuilds `expr` with every attribute index shifted by `delta` (may be
/// negative; underflow is a checked error).
ExprPtr ShiftAttrs(const ExprPtr& expr, int64_t delta);

/// Rebuilds `expr` substituting each attribute reference %i by
/// substitutions[i] (used to push a selection through an extended
/// projection).
ExprPtr SubstituteAttrs(const ExprPtr& expr,
                        const std::vector<ExprPtr>& substitutions);

/// Splits a conjunction a AND b AND … into its conjuncts.
void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);
/// Rebuilds a conjunction from conjuncts; empty input yields literal true.
ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts);

/// Evaluates constant sub-expressions.  Type errors and runtime errors
/// (e.g. division by zero) are left in place for normal evaluation to
/// report; folding never changes semantics.
ExprPtr FoldConstants(const ExprPtr& expr);

/// Structural equality of expression trees.
bool ExprEquals(const ExprPtr& a, const ExprPtr& b);

}  // namespace mra

#endif  // MRA_EXPR_SCALAR_EXPR_H_
