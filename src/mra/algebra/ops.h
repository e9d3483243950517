// The multi-set relational operators, as direct transcriptions of
// Definitions 3.1 (basic algebra), 3.2 (standard algebra) and 3.4 (extended
// algebra).  These materialising functions are the library's *definitional*
// semantics: the physical executor (mra/exec) and the optimizer are tested
// against them.
//
// Multiplicity semantics (for x in the appropriate domain):
//   (E1 ⊎ E2)(x) = E1(x) + E2(x)                          union
//   (E1 −  E2)(x) = max(0, E1(x) − E2(x))                 difference
//   (E1 ×  E3)(x1 ⊕ x3) = E1(x1) · E3(x3)                 product
//   (σ_φ E)(x)  = E(x) if φ(x), else 0                    selection
//   (π_α E)(y)  = Σ_{x : π_α(x) = y} E(x)                 projection
//   (E1 ∩  E2)(x) = min(E1(x), E2(x))                     intersection
//   (E1 ⋈_φ E2) = σ_φ(E1 × E2)                            join
//   (δE)(x)     = 1 if E(x) > 0, else 0                   unique
//   Γ_{α,f,p} E = per-group aggregation                    groupby

#ifndef MRA_ALGEBRA_OPS_H_
#define MRA_ALGEBRA_OPS_H_

#include <string>
#include <vector>

#include "mra/algebra/aggregate.h"
#include "mra/core/relation.h"
#include "mra/expr/eval.h"
#include "mra/expr/scalar_expr.h"

namespace mra {
namespace ops {

/// The operand check of ⊎, −, ∩: InvalidArgument naming `op` unless the
/// two schemas are compatible.  Shared with the transaction layer, whose
/// in-place insert/delete must fail exactly as Union/Difference do.
Status CheckCompatible(const Relation& left, const Relation& right,
                       const char* op);

/// E1 ⊎ E2 — additive multi-set union (Definition 3.1).  Operands must have
/// compatible schemas.
Result<Relation> Union(const Relation& left, const Relation& right);

/// E1 − E2 — clamped multi-set difference (Definition 3.1).
Result<Relation> Difference(const Relation& left, const Relation& right);

/// E1 × E3 — Cartesian product; multiplicities multiply (Definition 3.1).
Result<Relation> Product(const Relation& left, const Relation& right);

/// σ_φ E — selection by a boolean condition on individual tuples
/// (Definition 3.1).  The condition is type-checked against the schema.
Result<Relation> Select(const ExprPtr& condition, const Relation& input);

/// π_α E — extended projection (Definitions 3.1 and 3.4): each output
/// attribute is an arithmetic expression over the input tuple; plain
/// attribute lists are the special case where every expression is %i.
/// Projection is additive: it does NOT remove duplicates.
Result<Relation> Project(const std::vector<ExprPtr>& exprs,
                         const Relation& input,
                         const std::vector<std::string>& names = {});

/// π with a plain 0-based attribute index list (Definition 3.1 form).
Result<Relation> ProjectIndexes(const std::vector<size_t>& indexes,
                                const Relation& input);

/// E1 ∩ E2 — multi-set intersection (Definition 3.2).
Result<Relation> Intersect(const Relation& left, const Relation& right);

/// E1 ⋈_φ E2 — theta join (Definition 3.2).  Definitionally σ_φ(E1 × E2);
/// implemented directly without materialising the product.
Result<Relation> Join(const ExprPtr& condition, const Relation& left,
                      const Relation& right);

/// δE — duplicate removal (Definition 3.4).
Result<Relation> Unique(const Relation& input);

/// Γ_{α,f,p} E — groupby (Definition 3.4), generalised to a list of
/// aggregates (the paper's operator is the single-element case).  `keys`
/// are 0-based grouping attribute indexes and must be duplicate-free; the
/// output schema is π_keys(ℰ) ⊕ one attribute per aggregate.  With empty
/// `keys` the result is the single all-tuples aggregate row, matching the
/// paper's "one single attribute tuple" case — note that for CNT/SUM this
/// yields a row even over an empty input, while AVG/MIN/MAX over an empty
/// input are undefined (partial functions).
Result<Relation> GroupBy(const std::vector<size_t>& keys,
                         const std::vector<AggSpec>& aggs,
                         const Relation& input);

/// Checks groupby arguments against an input schema and computes the output
/// schema (shared by the definitional operator, the plan builder and the
/// physical operator).
Result<RelationSchema> GroupBySchema(const std::vector<size_t>& keys,
                                     const std::vector<AggSpec>& aggs,
                                     const RelationSchema& input);

/// Three-way comparison of two tuples under the sort total order: the listed
/// keys in order (desc[i] flips key i), then the *whole* tuple in canonical
/// order (Tuple::Compare) as the tiebreak.  The tiebreak makes the order
/// total, which is what lets the weighted LIMIT below (and the physical
/// Top-K) be deterministic.
int CompareForSort(const Tuple& a, const Tuple& b,
                   const std::vector<size_t>& keys,
                   const std::vector<bool>& desc);

/// sort_[keys],limit E — the definitional semantics of the sort node.  A
/// Definition 2.1 relation is an unordered multiset, so with limit = 0 the
/// operator is the identity on bags (ordering is a property of the emitted
/// stream, checked separately against the physical operator).  With
/// limit = k > 0 it is the deterministic multiplicity-weighted Top-K under
/// CompareForSort: tuples are taken in sort order until k total multiplicity
/// is reached, the boundary tuple keeping the clamped remainder.
Result<Relation> Sort(const std::vector<size_t>& keys,
                      const std::vector<bool>& desc, uint64_t limit,
                      const Relation& input);

}  // namespace ops
}  // namespace mra

#endif  // MRA_ALGEBRA_OPS_H_
