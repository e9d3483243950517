#include "mra/exec/hash_table.h"

namespace mra {
namespace exec {

size_t HashKeyIndex::InsertKey(const Tuple& row,
                               const std::vector<size_t>& attrs, size_t h,
                               bool* inserted) {
  const size_t id = index_.Insert(
      h, num_keys_, [&](size_t k) { return row.KeysEqual(attrs, keys_[k]); },
      [this](size_t k) { return hashes_[k]; }, inserted);
  if (*inserted) {
    if (num_keys_ == keys_.size()) {
      keys_.emplace_back();
      hashes_.emplace_back();
    }
    // Assign into the (possibly parked) arena slot: a recycled tuple's
    // value buffer is reused, so a steady-state rebuild is allocation-free.
    keys_[id].AssignProjection(row, attrs);
    hashes_[id] = h;
    key_bytes_ += keys_[id].HeapBytes();
    ++num_keys_;
  }
  return id;
}

}  // namespace exec
}  // namespace mra
