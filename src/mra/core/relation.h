// Multi-set relations (Definition 2.2): a relation instance R of schema ℛ is
// a function R : dom(ℛ) → ℕ.  We store the support of that function — the
// tuples with non-zero multiplicity — as the (r, R(r)) pair notation the
// paper introduces after Definition 2.4, which makes duplicate tuples O(1)
// in space and time.
//
// Layout: the pairs sit in one dense vector (slots 0 … distinct_size() − 1,
// each with its stored 64-bit hash), indexed by slot through a TagIndex
// (core/tag_index.h), so growth re-places slots from the stored hashes and
// never calls Tuple::Hash again.  Removing a tuple swap-moves the last
// entry into its slot, and the index re-points that entry's word.  Slot
// order is not part of the value: every order-sensitive walk goes through
// SortedView.  Reserve(n) sizes the entries and the index for n tuples in
// one step — an executor filling a result of planned size, a bulk load
// into a known image — and growth past it doubles as before.

#ifndef MRA_CORE_RELATION_H_
#define MRA_CORE_RELATION_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mra/common/result.h"
#include "mra/core/schema.h"
#include "mra/core/tag_index.h"
#include "mra/core/tuple.h"

namespace mra {

/// A multi-set of tuples over one schema.
class Relation {
 public:
  /// One (tuple, multiplicity) pair of the support.
  using Entry = std::pair<Tuple, uint64_t>;
  /// Walks the support in slot order; random access by slot, so lanes can
  /// split [begin(), end()) into disjoint slot ranges.
  using const_iterator = std::vector<Entry>::const_iterator;

  Relation() = default;
  explicit Relation(RelationSchema schema) : schema_(std::move(schema)) {}

  const RelationSchema& schema() const { return schema_; }
  void set_schema_name(std::string name) { schema_.set_name(std::move(name)); }

  /// Adds `count` occurrences of `tuple` after validating that the tuple
  /// inhabits dom(schema).  count == 0 is a no-op.
  Status Insert(const Tuple& tuple, uint64_t count = 1);

  /// Adds occurrences without schema validation.  For operator internals
  /// whose outputs conform by construction.
  void InsertUnchecked(const Tuple& tuple, uint64_t count = 1);
  void InsertUnchecked(Tuple&& tuple, uint64_t count = 1);

  /// Removes up to `count` occurrences (clamped at zero, like the multi-set
  /// difference of Definition 3.1).  Returns how many were actually removed.
  uint64_t Remove(const Tuple& tuple, uint64_t count = 1);

  /// R(x) ← count: sets the absolute multiplicity of `tuple`, without
  /// schema validation; count == 0 removes it.  WAL replay applies logged
  /// per-tuple multiplicities through this.
  void SetMultiplicity(const Tuple& tuple, uint64_t count);

  /// R(x): the multiplicity of `tuple` (0 when absent) — Definition 2.2.
  uint64_t Multiplicity(const Tuple& tuple) const;

  /// x ∈ R ⇔ R(x) > 0 (Definition 2.4).
  bool Contains(const Tuple& tuple) const { return Multiplicity(tuple) > 0; }

  /// Total cardinality counting duplicates: Σ_x R(x).
  uint64_t size() const { return total_; }
  /// Number of distinct tuples: |{x | R(x) > 0}|.
  size_t distinct_size() const { return entries_.size(); }
  bool empty() const { return total_ == 0; }
  /// Buckets of the index (a power of two, or 0 before the first insert).
  size_t index_capacity() const { return index_.capacity(); }
  /// Entries the dense storage holds room for (>= distinct_size(); growth
  /// and removals leave spare room, which Clear() keeps too).
  size_t entry_capacity() const {
    return std::max(entries_.capacity(), hashes_.capacity());
  }

  /// Makes room for n distinct tuples, so inserting up to n leaves
  /// index_capacity() and entry_capacity() unchanged: the entries as
  /// ReserveAmortised, the index as TagIndex::Reserve (core/tag_index.h),
  /// so repeated reserves stay amortised.  Never shrinks, and n within the
  /// current room is a no-op.
  void Reserve(size_t n);

  void Clear();

  /// Approximate heap bytes held, for budget charges: the dense storage at
  /// its capacity (spare room included), an entry and its stored hash
  /// each, the index words, and each live tuple's values.
  uint64_t ApproxBytes() const;

  /// R1 = R2 (Definition 2.3): pointwise-equal multiplicity functions.
  /// Relations over incompatible schemas are never equal.
  bool Equals(const Relation& other) const;
  bool operator==(const Relation& other) const { return Equals(other); }
  bool operator!=(const Relation& other) const { return !Equals(other); }

  /// R1 ⊑ R2 (Definition 2.3): R1(x) ≤ R2(x) for all x.
  bool MultiSubsetOf(const Relation& other) const;

  /// Iteration over (tuple, multiplicity) pairs in slot order, which is
  /// unspecified.  Iterators and entry references are valid until the
  /// relation is next modified.
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  /// The support in the canonical order of Tuple::Compare, as pointers
  /// into this relation's entries: valid until the relation is next
  /// modified.  Every deterministic walk (ToString, the storage and wire
  /// encoders, the printer, CSV export) goes through this view, so equal
  /// bags yield identical output whatever their insertion history.
  std::vector<const Entry*> SortedView() const;

  /// All tuples with duplicates materialised (Σ R(x) entries), in
  /// canonical order.  Intended for tests and small results.
  std::vector<Tuple> ExpandedTuples() const;

  /// A copy of the support in canonical order (see SortedView).
  std::vector<std::pair<Tuple, uint64_t>> SortedEntries() const;

  /// "{(a, b) : 2, (c, d) : 1}" — the paper's pair notation, sorted.
  std::string ToString() const;

 private:
  /// The slot of `tuple` (hashing to `hash`; TagIndex::kNotFound when
  /// absent) and its index bucket.
  TagIndex::Hit Find(const Tuple& tuple, uint64_t hash) const;
  /// R(tuple) given its hash: the other relation's stored hashes probe
  /// this index directly (both use Tuple::Hash), so Equals and
  /// MultiSubsetOf rehash nothing.
  uint64_t CountAt(const Tuple& tuple, uint64_t hash) const;
  /// The multiplicity slot of `tuple`, appending a zero-count entry when it
  /// is absent.
  template <typename T>
  uint64_t& CountFor(T&& tuple, uint64_t hash);

  RelationSchema schema_;
  std::vector<Entry> entries_;
  std::vector<uint64_t> hashes_;  // hashes_[s] == entries_[s].first.Hash().
  TagIndex index_;                // Tuple → slot.
  uint64_t total_ = 0;
};

}  // namespace mra

#endif  // MRA_CORE_RELATION_H_
