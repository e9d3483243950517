// A recycled open-addressing hash index over tuple keys — the shared core
// of the hash-based physical operators: the hash join's build table, hash
// group-by's group table and hash δ's seen-set all reduce to "map the key
// projection of a tuple to a dense id".
//
// Design points:
//  * Keys live in a dense arena (`id` indexes it), the slot array holds
//    (hash tag | id) words — a probe rejects almost every other key by
//    its tag without touching the arena, and growth rehashes by stored
//    hash, never re-touching key tuples.
//  * Storage is recycled across Open()s the same way RowBatch recycles
//    rows: Reset() zeroes the logical size but parks the key tuples and
//    keeps the slot array, so a reopened operator (or the next query run
//    through a pooled operator tree) rebuilds without reallocating.
//    Inserts AssignProjection into the parked tuples, reusing their value
//    buffers.
//  * Probing hashes the key attributes of the probe row in place
//    (Tuple::HashKey / KeyEquals): the probe path never materialises a key
//    tuple, which is where the hash join's per-row allocation used to go.
//  * ApproxBytes() reports the arena's heap footprint (slot array + key
//    tuples; string payloads counted, allocator slack not) for the
//    operator memory accounting surfaced by EXPLAIN ANALYZE and the
//    `hash.peak_bytes` gauge.

#ifndef MRA_EXEC_HASH_TABLE_H_
#define MRA_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "mra/core/tuple.h"

namespace mra {
namespace exec {

class HashKeyIndex {
 public:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  /// Number of distinct keys currently held.
  size_t size() const { return num_keys_; }

  /// Logical reset; parked keys keep their tuple storage, the slot array
  /// keeps its capacity.
  void Reset();

  /// Finds the dense id of π_attrs(row), inserting it if absent;
  /// *inserted reports which happened.  Ids are assigned 0, 1, 2, … in
  /// first-occurrence order.
  size_t InsertKey(const Tuple& row, const std::vector<size_t>& attrs,
                   bool* inserted) {
    return InsertKey(row, attrs, row.HashKey(attrs), inserted);
  }
  /// As above with `hash` == row.HashKey(attrs) already computed (a radix
  /// kernel hashes once to route the row, then reuses the hash here).
  size_t InsertKey(const Tuple& row, const std::vector<size_t>& attrs,
                   size_t hash, bool* inserted);

  /// Lookup without insertion: the id of π_attrs(row), or kNotFound.
  size_t FindKey(const Tuple& row, const std::vector<size_t>& attrs) const {
    return FindKey(row, attrs, row.HashKey(attrs));
  }
  size_t FindKey(const Tuple& row, const std::vector<size_t>& attrs,
                 size_t hash) const;

  /// The stored key tuple for a dense id in [0, size()).
  const Tuple& key(size_t id) const {
    MRA_CHECK_LT(id, num_keys_);
    return keys_[id];
  }
  /// Swaps the stored key for `id` with `t`: emits a key without copying
  /// it, once the index is done being probed (the key is then stale).
  void SwapKey(size_t id, Tuple& t) {
    MRA_CHECK_LT(id, num_keys_);
    keys_[id].Swap(t);
  }
  /// Its stored hash — equal to HashKey over the key's own attributes, so
  /// re-keying a stored key into another index needs no rehash.
  size_t hash(size_t id) const {
    MRA_CHECK_LT(id, num_keys_);
    return hashes_[id];
  }

  /// Approximate heap bytes held by the index (see header comment).
  size_t ApproxBytes() const;

 private:
  void Grow();

  static constexpr size_t kInitialSlots = 64;  // Power of two.

  size_t num_keys_ = 0;
  std::vector<Tuple> keys_;       // Dense arena; parked past num_keys_.
  std::vector<size_t> hashes_;    // Stored hash per key id.
  std::vector<uint64_t> slots_;   // Linear-probed (tag | id + 1); 0 = free.
  size_t key_bytes_ = 0;          // Approximate bytes of the live keys.
};

}  // namespace exec
}  // namespace mra

#endif  // MRA_EXEC_HASH_TABLE_H_
