// Evaluation conveniences layered over ScalarExpr::Eval, plus the
// batch-amortized fast paths the chunked executor compiles once per
// operator and applies per row without re-walking the expression tree.

#ifndef MRA_EXPR_EVAL_H_
#define MRA_EXPR_EVAL_H_

#include <optional>
#include <string>
#include <vector>

#include "mra/expr/scalar_expr.h"

namespace mra {

/// Evaluates a selection condition φ over one tuple (Definition 3.1 treats φ
/// as a function into the boolean domain; a non-boolean result here means the
/// caller skipped type checking and is reported as TypeError).
Result<bool> EvalPredicate(const ScalarExpr& pred, const Tuple& tuple);

/// Type-checks `pred` against `input` and verifies it is boolean.
Status CheckPredicate(const ExprPtr& pred, const RelationSchema& input);

/// Infers the output schema of an extended projection π_(e1,…,en)
/// (Definition 3.4): one attribute per expression.  Attribute names are
/// taken from `names` when provided, else synthesised ("e1", "e2", … with
/// plain attribute references keeping their input names).
Result<RelationSchema> InferProjectionSchema(
    const std::vector<ExprPtr>& exprs, const RelationSchema& input,
    const std::vector<std::string>& names = {});

/// Applies an extended projection to one tuple: [e1(x), …, en(x)]
/// (Definition 3.4, square-bracket tuple construction).
Result<Tuple> ProjectTuple(const std::vector<ExprPtr>& exprs,
                           const Tuple& tuple);

/// A selection condition pre-lowered to a flat list of `%i op literal`
/// comparisons, for the batch executor's hot loop.  Compile() accepts
/// conjunctions of comparisons between an attribute reference and a
/// literal of the *same* domain (so Value::Compare applies directly, with
/// no numeric promotion and no per-row type dispatch); anything else —
/// disjunctions, attr-attr comparisons, arithmetic, mixed-domain
/// comparisons needing promotion — declines, and the caller falls back to
/// EvalPredicate on the full tree.  Matching a compiled predicate cannot
/// fail: every condition Compile() accepts is total over schema-conformant
/// tuples, which is what lets the batch loop skip Result plumbing per row.
class CompiledPredicate {
 public:
  /// Lowers `pred` (type-checked against `input`) into comparison terms;
  /// nullopt when the shape or domains do not fit the fast path.
  static std::optional<CompiledPredicate> Compile(const ExprPtr& pred,
                                                  const RelationSchema& input);

  /// True when the tuple satisfies every term.
  bool Matches(const Tuple& tuple) const {
    for (const Term& term : terms_) {
      int c = tuple.at(term.attr).Compare(term.literal);
      bool ok;
      switch (term.op) {
        case BinaryOp::kEq: ok = c == 0; break;
        case BinaryOp::kNe: ok = c != 0; break;
        case BinaryOp::kLt: ok = c < 0; break;
        case BinaryOp::kLe: ok = c <= 0; break;
        case BinaryOp::kGt: ok = c > 0; break;
        case BinaryOp::kGe: ok = c >= 0; break;
        default: ok = false; break;
      }
      if (!ok) return false;
    }
    return true;
  }

 private:
  struct Term {
    size_t attr;
    BinaryOp op;  // A comparison; the literal is the right operand.
    Value literal;
  };

  explicit CompiledPredicate(std::vector<Term> terms)
      : terms_(std::move(terms)) {}

  std::vector<Term> terms_;
};

/// The attribute indexes of a projection whose expressions are all plain
/// %i references (so applying it is Tuple::Project — no evaluation, no
/// failure path); nullopt as soon as any expression computes.  Indexes are
/// validated against `input_arity`.
std::optional<std::vector<size_t>> AttrOnlyProjection(
    const std::vector<ExprPtr>& exprs, size_t input_arity);

}  // namespace mra

#endif  // MRA_EXPR_EVAL_H_
