// Tuples (Definition 2.4): elements of dom(ℛ), with attribute access r.i,
// tuple projection π_a(r), concatenation r1 ⊕ r2, and equality.

#ifndef MRA_CORE_TUPLE_H_
#define MRA_CORE_TUPLE_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "mra/common/result.h"
#include "mra/core/schema.h"
#include "mra/core/value.h"

namespace mra {

/// An ordered list of atomic values.  Tuples do not carry their schema; the
/// containing Relation (or operator) does, matching the paper's treatment of
/// tuples as bare elements of dom(ℛ).
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  /// #r — the number of attributes (Definition 2.4).
  size_t arity() const { return values_.size(); }

  /// r.i with 0-based i (the paper's r.i is 1-based; callers working from
  /// textual %i notation subtract one).
  const Value& at(size_t i) const {
    MRA_CHECK_LT(i, values_.size());
    return values_[i];
  }
  const std::vector<Value>& values() const { return values_; }

  /// Tuple concatenation r1 ⊕ r2 (Definition 2.4).
  Tuple Concat(const Tuple& other) const;

  /// Overwrites this tuple with a ⊕ b, reusing this tuple's value storage
  /// (no allocation when the combined arity fits the existing capacity).
  /// Neither operand may alias this tuple.
  void AssignConcat(const Tuple& a, const Tuple& b);

  /// Tuple projection π_a(r): concatenates the attributes named by the
  /// 0-based index list `a` into a new tuple; indexes may repeat
  /// (Definition 2.4).  Out-of-range indexes are checked errors — validate
  /// against the schema first via RelationSchema::Project.
  Tuple Project(const std::vector<size_t>& indexes) const;

  /// Overwrites this tuple with π_indexes(src), reusing this tuple's value
  /// storage (no allocation when the arity fits the existing capacity).
  /// `src` must not alias this tuple — the executor projects through a
  /// scratch tuple and swaps.
  void AssignProjection(const Tuple& src, const std::vector<size_t>& indexes);

  /// Exchanges value storage with `other` in O(1), allocation-free.
  void Swap(Tuple& other) { values_.swap(other.values_); }
  /// The same exchange with a bare value vector, for decoders that build
  /// a tuple in recycled storage.
  void Swap(std::vector<Value>& values) { values_.swap(values); }

  /// Attribute-wise equality (Definition 2.4).  Only meaningful between
  /// tuples of one schema; arity mismatch is a checked error.
  bool Equals(const Tuple& other) const;
  bool operator==(const Tuple& other) const { return Equals(other); }
  bool operator!=(const Tuple& other) const { return !Equals(other); }

  /// The canonical order on dom(ℛ): attribute by attribute under
  /// Value::Compare, returning -1, 0 or +1.  Typed and column-wise (so
  /// 9 < 10 and NaN sorts last); 0 exactly when Equals.  Every
  /// deterministic walk of a relation — printing, encoders, checkpoints,
  /// the sort tiebreak — uses this one order.  A shorter tuple sorts
  /// first, though tuples of one schema always share an arity.
  int Compare(const Tuple& other) const;

  size_t Hash() const;

  /// Hash of π_attrs(*this) without materialising the projection; equal to
  /// Project(attrs).Hash() by construction, so probe-side rows can be
  /// hashed against stored key tuples allocation-free.
  size_t HashKey(const std::vector<size_t>& attrs) const;

  /// π_attrs(*this) == π_other_attrs(other) without materialising either
  /// projection (the lists pair up by position and must have one length;
  /// values of different kinds are never equal).
  bool KeysEqual(const std::vector<size_t>& attrs, const Tuple& other,
                 const std::vector<size_t>& other_attrs) const;
  /// π_attrs(*this) == key, a whole stored key tuple.
  bool KeysEqual(const std::vector<size_t>& attrs, const Tuple& key) const;

  /// Heap bytes of the values: arity × sizeof(Value) (16) plus the block
  /// of each string longer than Value::kInlineStringMax; shorter strings
  /// live inside their Value.  Budget charges add their own struct sizes.
  size_t HeapBytes() const;

  /// Checks that this tuple inhabits dom(schema): arity and domains match.
  Status ConformsTo(const RelationSchema& schema) const;

  /// "(v1, v2, …)".
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

/// Hash/equality functors for unordered containers keyed by Tuple.
struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};
struct TupleEq {
  bool operator()(const Tuple& a, const Tuple& b) const {
    return a.arity() == b.arity() && a.Equals(b);
  }
};

}  // namespace mra

#endif  // MRA_CORE_TUPLE_H_
