// One open-addressing index of (hash tag | id + 1) words: the "tuple key →
// dense id" map under a Relation's support, the hash join's key chains,
// Γ's groups and the δ/−/∩ key sets.  It holds only words, never a key:
// the caller keeps dense ids [0, size), each with its key and stored hash,
// and answers same(id) — is id's key the one looked for — and hash_of(id).
//
// The tag is the hash's top 32 bits, so a probe rejects almost every other
// key before same() runs; buckets (a power of two) are picked by the low
// bits and probed linearly at load ≤ 7/8.  Growth re-places ids from
// hash_of, never rehashing a key; erase shifts later words back, so churn
// leaves no tombstones.  Reserve(n) sizes the word array for n ids in one
// step, so a caller that knows its planned size fills without doubling
// from 8 buckets; inserts then grow by doubling past it, as without one.

#ifndef MRA_CORE_TAG_INDEX_H_
#define MRA_CORE_TAG_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mra/common/check.h"

namespace mra {

/// Makes room for n elements in a dense store over a TagIndex: the power
/// of two that doubling reaches for n, or twice the capacity when that is
/// more, so a store sized from an estimate holds no more than growth would
/// for it, an under-estimate up to that power moves nothing, and repeated
/// calls stay amortised.  Never shrinks.
template <typename T>
void ReserveAmortised(std::vector<T>& v, size_t n) {
  if (n > v.capacity()) {
    v.reserve(std::max(std::bit_ceil(n), 2 * v.capacity()));
  }
}

class TagIndex {
 public:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  /// Buckets: a power of two, or 0 before the first insert.
  size_t capacity() const { return words_.size(); }

  /// The capacity an index reaches while n ids are inserted into it; n is
  /// below 2^59, so that neither n * 8 nor the bucket count overflows.
  static size_t CapacityFor(size_t n) {
    MRA_CHECK_LT(n, size_t{1} << 59) << "CapacityFor beyond 64-bit range";
    size_t buckets = 0;
    while (OverLoaded(n, buckets)) buckets = Grown(buckets);
    return buckets;
  }

  /// Makes room for n ids without growing, re-placing the ids [0, size)
  /// from hash_of: the index grows to the larger of CapacityFor(n) — the
  /// buckets growth reaches for n — and twice its buckets, so repeated
  /// reserves stay amortised.  Never shrinks; n within the current room
  /// is a no-op.
  template <typename HashOf>
  void Reserve(size_t n, size_t size, HashOf&& hash_of) {
    if (!OverLoaded(n, words_.size())) return;
    Rebuild(std::max(CapacityFor(n), Grown(words_.size())), size, hash_of);
  }

  /// Frees every bucket, keeping the capacity.
  void Clear() { std::fill(words_.begin(), words_.end(), 0); }

  /// A lookup's result: the id found, or kNotFound, and the bucket of
  /// its word, for Erase.
  struct Hit { size_t id, bucket; };

  /// The id under `hash` for which same(id) holds.
  template <typename Same>
  Hit Find(uint64_t hash, Same&& same) const {
    if (words_.empty()) return {kNotFound, 0};
    const size_t b = Probe(hash, same);
    return {words_[b] == 0 ? kNotFound : IdOf(words_[b]), b};
  }

  /// As Find; when no id matches, records `size` — the caller's next
  /// dense id, which it then appends — under `hash`.  *inserted says
  /// which happened.  hash_of answers for the ids [0, size) if the index
  /// grows first.
  template <typename Same, typename HashOf>
  size_t Insert(uint64_t hash, size_t size, Same&& same, HashOf&& hash_of,
                bool* inserted) {
    if (OverLoaded(size + 1, words_.size())) {
      Rebuild(Grown(words_.size()), size, hash_of);
    }
    uint64_t& word = words_[Probe(hash, same)];
    *inserted = word == 0;
    if (*inserted) {
      MRA_CHECK_LT(size, kIdMask) << "hash index too large";
      word = Word(hash, size);
    }
    return IdOf(word);
  }

  /// Deletes the word of the id Find found, `hit.id`; then, when
  /// last != hit.id, re-points the word of `last` at hit.id, because the
  /// caller moves its last id into the freed one.  hash_of answers for the
  /// ids [0, last] during the call.
  template <typename HashOf>
  void Erase(Hit hit, size_t last, HashOf&& hash_of) {
    const size_t mask = words_.size() - 1;
    // Backward shift: pull each later word of the probe run into the hole
    // unless the hole lies before its home bucket, so every remaining word
    // stays reachable from its home.
    size_t hole = hit.bucket;
    for (size_t b = (hole + 1) & mask; words_[b] != 0; b = (b + 1) & mask) {
      const size_t home = hash_of(IdOf(words_[b])) & mask;
      if (((b - home) & mask) >= ((b - hole) & mask)) {
        words_[hole] = words_[b];
        hole = b;
      }
    }
    words_[hole] = 0;
    if (last != hit.id) {
      const uint64_t hash = hash_of(last);
      words_[BucketOf(last, hash)] = Word(hash, hit.id);
    }
  }

 private:
  static constexpr uint64_t kTagMask = 0xFFFFFFFF00000000ULL;
  static constexpr uint64_t kIdMask = 0x00000000FFFFFFFFULL;
  static constexpr size_t kMinBuckets = 8;

  static uint64_t Word(uint64_t hash, size_t id) {
    return (hash & kTagMask) | (id + 1);
  }
  static size_t IdOf(uint64_t word) { return (word & kIdMask) - 1; }
  static bool OverLoaded(size_t ids, size_t buckets) {
    return ids * 8 > buckets * 7;
  }
  static size_t Grown(size_t buckets) {
    return buckets == 0 ? kMinBuckets : buckets * 2;
  }

  /// The one probe loop: from the hash's home bucket, the bucket of the
  /// first word with the hash's tag whose id same() accepts, else the
  /// free bucket that ends the run.
  template <typename Same>
  size_t Probe(uint64_t hash, Same&& same) const {
    const size_t mask = words_.size() - 1;
    for (size_t b = hash & mask;; b = (b + 1) & mask) {
      const uint64_t word = words_[b];
      if (word == 0 ||
          ((word & kTagMask) == (hash & kTagMask) && same(IdOf(word)))) {
        return b;
      }
    }
  }

  /// The bucket that holds id's word.
  size_t BucketOf(size_t id, uint64_t hash) const {
    return Probe(hash, [id](size_t other) { return other == id; });
  }

  /// Re-places the ids [0, size) into `buckets` fresh buckets.
  template <typename HashOf>
  void Rebuild(size_t buckets, size_t size, HashOf& hash_of) {
    words_.assign(buckets, 0);
    for (size_t id = 0; id < size; ++id) {
      const uint64_t hash = hash_of(id);
      words_[Probe(hash, [](size_t) { return false; })] = Word(hash, id);
    }
  }

  std::vector<uint64_t> words_;  // 0 = free.
};

}  // namespace mra

#endif  // MRA_CORE_TAG_INDEX_H_
