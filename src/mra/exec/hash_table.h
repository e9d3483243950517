// A recycled hash index over owned tuple keys: the key store of the hash
// kernels that must keep their keys, hash group-by's group table and the
// δ/−/∩ key sets.  Keys live in a dense arena (`id` indexes it) with a
// stored hash each, under a TagIndex (core/tag_index.h).  Probing hashes
// and compares the probe row's key attributes in place (Tuple::HashKey /
// KeysEqual), never materialising a key tuple.
//
// Storage is recycled across Open()s the same way RowBatch recycles rows:
// Reset() zeroes the logical size but parks the key tuples and keeps the
// index's capacity, and inserts AssignProjection into the parked tuples,
// so a reopened operator rebuilds without reallocating.  Reserve(n) sizes
// the arena and the index for n keys in one step, from the kernel's
// planned size (exec::PlannedRows), so a build fills without doubling;
// growth past it doubles as before.  ApproxBytes()
// reports the heap footprint (index words, stored hashes and key tuples;
// string payloads counted, allocator slack not) for the memory accounting
// surfaced by EXPLAIN ANALYZE and the `hash.peak_bytes` gauge.

#ifndef MRA_EXEC_HASH_TABLE_H_
#define MRA_EXEC_HASH_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mra/core/tag_index.h"
#include "mra/core/tuple.h"

namespace mra {
namespace exec {

class HashKeyIndex {
 public:
  /// Number of distinct keys currently held.
  size_t size() const { return num_keys_; }

  /// Logical reset; parked keys keep their tuple storage, the index keeps
  /// its capacity.
  void Reset() {
    num_keys_ = 0;
    key_bytes_ = 0;
    index_.Clear();
  }

  /// Makes room for n keys, so inserting up to n grows nothing: the arena
  /// as ReserveAmortised, the index as TagIndex::Reserve.  Never shrinks,
  /// and n within the current room is a no-op.
  void Reserve(size_t n) {
    ReserveAmortised(keys_, n);
    ReserveAmortised(hashes_, n);
    index_.Reserve(n, num_keys_, [this](size_t k) { return hashes_[k]; });
  }

  /// Index buckets and key slots the index has room for, for tests.
  size_t index_capacity() const { return index_.capacity(); }
  size_t key_capacity() const {
    return std::min(keys_.capacity(), hashes_.capacity());
  }

  /// Finds the dense id of π_attrs(row), whose hash is `hash` ==
  /// row.HashKey(attrs), inserting it if absent; *inserted reports which
  /// happened.  Ids are assigned 0, 1, 2, … in first-occurrence order.
  size_t InsertKey(const Tuple& row, const std::vector<size_t>& attrs,
                   size_t hash, bool* inserted);

  /// Lookup without insertion: the id of π_attrs(row), or
  /// TagIndex::kNotFound.
  size_t FindKey(const Tuple& row, const std::vector<size_t>& attrs,
                 size_t hash) const {
    return index_.Find(
        hash, [&](size_t k) { return row.KeysEqual(attrs, keys_[k]); }).id;
  }
  /// As above for a whole key tuple, such as another index's key(id).
  size_t FindKey(const Tuple& key, size_t hash) const {
    return index_.Find(hash, [&](size_t k) { return keys_[k] == key; }).id;
  }

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
  size_t ApproxBytes() const {
    return index_.capacity() * sizeof(uint64_t) +
           hashes_.capacity() * sizeof(size_t) +
           keys_.capacity() * sizeof(Tuple) + key_bytes_;
  }

 private:
  TagIndex index_;
  size_t num_keys_ = 0;
  std::vector<Tuple> keys_;     // Dense arena; parked past num_keys_.
  std::vector<size_t> hashes_;  // Stored hash per key id.
  size_t key_bytes_ = 0;        // Approximate bytes of the live keys.
};

}  // namespace exec
}  // namespace mra

#endif  // MRA_EXEC_HASH_TABLE_H_
