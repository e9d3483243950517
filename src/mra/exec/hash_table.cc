#include "mra/exec/hash_table.h"

namespace mra {
namespace exec {

namespace {

// A slot word is (tag | id + 1): the hash's top 32 bits over the key id
// (offset by one so that 0 marks a free slot).  Slots are picked by the
// hash's low bits, so the tag filters almost every non-matching probe
// before the key arena is touched.
constexpr uint64_t kTagMask = 0xFFFFFFFF00000000ULL;
constexpr uint64_t kIdMask = 0x00000000FFFFFFFFULL;

uint64_t Word(size_t hash, size_t id) { return (hash & kTagMask) | (id + 1); }

size_t IdOf(uint64_t word) { return (word & kIdMask) - 1; }

/// Out-of-line heap bytes of one key tuple: the value vector plus string
/// payloads (the Tuple object itself is counted via the arena's capacity).
size_t ApproxTupleBytes(const Tuple& t) {
  size_t bytes = t.arity() * sizeof(Value);
  for (const Value& v : t.values()) {
    if (v.kind() == TypeKind::kString) bytes += v.string_value().capacity();
  }
  return bytes;
}

}  // namespace

void HashKeyIndex::Reset() {
  num_keys_ = 0;
  key_bytes_ = 0;
  std::fill(slots_.begin(), slots_.end(), 0);
}

void HashKeyIndex::Grow() {
  size_t new_size = slots_.empty() ? kInitialSlots : slots_.size() * 2;
  slots_.assign(new_size, 0);
  size_t mask = new_size - 1;
  for (size_t id = 0; id < num_keys_; ++id) {
    size_t pos = hashes_[id] & mask;
    while (slots_[pos] != 0) pos = (pos + 1) & mask;
    slots_[pos] = Word(hashes_[id], id);
  }
}

size_t HashKeyIndex::InsertKey(const Tuple& row,
                               const std::vector<size_t>& attrs, size_t h,
                               bool* inserted) {
  // Grow at 70% load so linear probing stays short.
  if (slots_.empty() || (num_keys_ + 1) * 10 >= slots_.size() * 7) Grow();
  const size_t mask = slots_.size() - 1;
  const uint64_t tag = h & kTagMask;
  for (size_t pos = h & mask;; pos = (pos + 1) & mask) {
    const uint64_t word = slots_[pos];
    if (word == 0) {
      MRA_CHECK_LT(num_keys_, kIdMask) << "hash key index too large";
      if (num_keys_ == keys_.size()) {
        keys_.emplace_back();
        hashes_.emplace_back();
      }
      // Assign into the (possibly parked) arena slot: a recycled tuple's
      // value buffer is reused, so a steady-state rebuild is
      // allocation-free.
      keys_[num_keys_].AssignProjection(row, attrs);
      hashes_[num_keys_] = h;
      key_bytes_ += ApproxTupleBytes(keys_[num_keys_]);
      slots_[pos] = Word(h, num_keys_);
      *inserted = true;
      return num_keys_++;
    }
    const size_t id = IdOf(word);
    if ((word & kTagMask) == tag && row.KeyEquals(keys_[id], attrs)) {
      *inserted = false;
      return id;
    }
  }
}

size_t HashKeyIndex::FindKey(const Tuple& row,
                             const std::vector<size_t>& attrs,
                             size_t h) const {
  if (slots_.empty() || num_keys_ == 0) return kNotFound;
  const size_t mask = slots_.size() - 1;
  const uint64_t tag = h & kTagMask;
  for (size_t pos = h & mask;; pos = (pos + 1) & mask) {
    const uint64_t word = slots_[pos];
    if (word == 0) return kNotFound;
    if ((word & kTagMask) == tag && row.KeyEquals(keys_[IdOf(word)], attrs)) {
      return IdOf(word);
    }
  }
}

size_t HashKeyIndex::ApproxBytes() const {
  return slots_.capacity() * sizeof(size_t) +
         hashes_.capacity() * sizeof(size_t) +
         keys_.capacity() * sizeof(Tuple) + key_bytes_;
}

}  // namespace exec
}  // namespace mra
