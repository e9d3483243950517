// Multi-set relations (Definition 2.2): a relation instance R of schema ℛ is
// a function R : dom(ℛ) → ℕ.  We store the support of that function — the
// tuples with non-zero multiplicity — in a hash map, which makes duplicate
// tuples O(1) in space and time.  This representation is exactly the
// (r, R(r)) pair notation the paper introduces after Definition 2.4.

#ifndef MRA_CORE_RELATION_H_
#define MRA_CORE_RELATION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mra/common/result.h"
#include "mra/core/schema.h"
#include "mra/core/tuple.h"

namespace mra {

/// A multi-set of tuples over one schema.
class Relation {
 public:
  using Map = std::unordered_map<Tuple, uint64_t, TupleHash, TupleEq>;
  using const_iterator = Map::const_iterator;
  /// One (tuple, multiplicity) pair of the support.
  using Entry = Map::value_type;

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
  size_t distinct_size() const { return map_.size(); }
  bool empty() const { return total_ == 0; }

  void Clear();

  /// R1 = R2 (Definition 2.3): pointwise-equal multiplicity functions.
  /// Relations over incompatible schemas are never equal.
  bool Equals(const Relation& other) const;
  bool operator==(const Relation& other) const { return Equals(other); }
  bool operator!=(const Relation& other) const { return !Equals(other); }

  /// R1 ⊑ R2 (Definition 2.3): R1(x) ≤ R2(x) for all x.
  bool MultiSubsetOf(const Relation& other) const;

  // Iteration over (tuple, multiplicity) pairs, unspecified order.
  const_iterator begin() const { return map_.begin(); }
  const_iterator end() const { return map_.end(); }

  /// Range access for lane-parallel scans: iterators to every `stride`-th
  /// pair of the support in iteration order, then end(), so lanes that
  /// claim disjoint ranges [splits[k], splits[k + 1]) see every (tuple,
  /// multiplicity) pair exactly once (a bag is the ⊎ of any split of its
  /// support).  One walk of the support builds it on first use; it stays
  /// cached until the relation next changes.  Safe for concurrent readers.
  using Splits = std::vector<const_iterator>;
  std::shared_ptr<const Splits> RangeSplits(size_t stride) const;

  /// The support in the canonical order of Tuple::Compare, as pointers
  /// into this relation's map: valid until the relation is next modified.
  /// Every deterministic walk (ToString, the storage and wire encoders,
  /// the printer, CSV export) goes through this view, so equal bags yield
  /// identical output whatever their insertion history.
  std::vector<const Entry*> SortedView() const;

  /// All tuples with duplicates materialised (Σ R(x) entries), in
  /// canonical order.  Intended for tests and small results.
  std::vector<Tuple> ExpandedTuples() const;

  /// A copy of the support in canonical order (see SortedView).
  std::vector<std::pair<Tuple, uint64_t>> SortedEntries() const;

  /// "{(a, b) : 2, (c, d) : 1}" — the paper's pair notation, sorted.
  std::string ToString() const;

 private:
  /// RangeSplits' cache.  Not part of the value: a copied, moved or
  /// assigned relation starts without one, and every mutator drops it
  /// (writers have the relation to themselves, so that needs no lock).
  class SplitCache {
   public:
    SplitCache() = default;
    SplitCache(const SplitCache&) noexcept {}
    SplitCache(SplitCache&& from) noexcept { from.Drop(); }
    SplitCache& operator=(const SplitCache&) noexcept {
      Drop();
      return *this;
    }
    SplitCache& operator=(SplitCache&& from) noexcept {
      Drop();
      from.Drop();
      return *this;
    }
    void Drop() {
      if (splits_ != nullptr) splits_.reset();
    }

   private:
    friend class Relation;
    std::mutex mu_;
    size_t stride_ = 0;
    std::shared_ptr<const Splits> splits_;
  };

  RelationSchema schema_;
  Map map_;
  uint64_t total_ = 0;
  mutable SplitCache split_cache_;
};

}  // namespace mra

#endif  // MRA_CORE_RELATION_H_
