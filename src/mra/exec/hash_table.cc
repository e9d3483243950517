#include "mra/exec/hash_table.h"

namespace mra {
namespace exec {

namespace {

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
  std::fill(slots_.begin(), slots_.end(), kEmpty);
}

void HashKeyIndex::Grow() {
  size_t new_size = slots_.empty() ? kInitialSlots : slots_.size() * 2;
  slots_.assign(new_size, kEmpty);
  size_t mask = new_size - 1;
  for (size_t id = 0; id < num_keys_; ++id) {
    size_t pos = hashes_[id] & mask;
    while (slots_[pos] != kEmpty) pos = (pos + 1) & mask;
    slots_[pos] = id;
  }
}

size_t HashKeyIndex::InsertKey(const Tuple& row,
                               const std::vector<size_t>& attrs, size_t h,
                               bool* inserted) {
  // Grow at 70% load so linear probing stays short.
  if (slots_.empty() || (num_keys_ + 1) * 10 >= slots_.size() * 7) Grow();
  size_t mask = slots_.size() - 1;
  size_t pos = h & mask;
  while (true) {
    size_t id = slots_[pos];
    if (id == kEmpty) {
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
      slots_[pos] = num_keys_;
      *inserted = true;
      return num_keys_++;
    }
    if (hashes_[id] == h && row.KeyEquals(keys_[id], attrs)) {
      *inserted = false;
      return id;
    }
    pos = (pos + 1) & mask;
  }
}

size_t HashKeyIndex::FindKey(const Tuple& row,
                             const std::vector<size_t>& attrs,
                             size_t h) const {
  if (slots_.empty() || num_keys_ == 0) return kNotFound;
  size_t mask = slots_.size() - 1;
  size_t pos = h & mask;
  while (true) {
    size_t id = slots_[pos];
    if (id == kEmpty) return kNotFound;
    if (hashes_[id] == h && row.KeyEquals(keys_[id], attrs)) return id;
    pos = (pos + 1) & mask;
  }
}

size_t HashKeyIndex::ApproxBytes() const {
  return slots_.capacity() * sizeof(size_t) +
         hashes_.capacity() * sizeof(size_t) +
         keys_.capacity() * sizeof(Tuple) + key_bytes_;
}

}  // namespace exec
}  // namespace mra
