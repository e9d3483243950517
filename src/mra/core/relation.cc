#include "mra/core/relation.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "mra/common/check.h"

namespace mra {

namespace {

// An index word is (tag | slot + 1): the hash's top 32 bits over the slot
// (offset by one so that 0 marks a free bucket).  Buckets are picked by the
// hash's low bits, so the tag filters almost every non-matching probe
// before any tuple is compared.
constexpr uint64_t kTagMask = 0xFFFFFFFF00000000ULL;
constexpr uint64_t kSlotMask = 0x00000000FFFFFFFFULL;
constexpr size_t kMinBuckets = 8;

uint64_t Word(uint64_t hash, size_t slot) {
  return (hash & kTagMask) | (slot + 1);
}

size_t SlotOf(uint64_t word) { return (word & kSlotMask) - 1; }

}  // namespace

Status Relation::Insert(const Tuple& tuple, uint64_t count) {
  MRA_RETURN_IF_ERROR(tuple.ConformsTo(schema_));
  InsertUnchecked(tuple, count);
  return Status::OK();
}

void Relation::InsertUnchecked(const Tuple& tuple, uint64_t count) {
  if (count == 0) return;
  CountFor(tuple, tuple.Hash()) += count;
  total_ += count;
}

void Relation::InsertUnchecked(Tuple&& tuple, uint64_t count) {
  if (count == 0) return;
  const uint64_t hash = tuple.Hash();
  CountFor(std::move(tuple), hash) += count;
  total_ += count;
}

uint64_t Relation::Remove(const Tuple& tuple, uint64_t count) {
  const size_t bucket = FindBucket(tuple, tuple.Hash());
  if (bucket == kNotFound) return 0;
  uint64_t& have = entries_[SlotOf(index_[bucket])].second;
  const uint64_t removed = std::min(count, have);
  have -= removed;
  total_ -= removed;
  if (have == 0) EraseAt(bucket);
  return removed;
}

void Relation::SetMultiplicity(const Tuple& tuple, uint64_t count) {
  if (count == 0) {
    Remove(tuple, UINT64_MAX);
    return;
  }
  uint64_t& have = CountFor(tuple, tuple.Hash());
  total_ = total_ - have + count;
  have = count;
}

uint64_t Relation::Multiplicity(const Tuple& tuple) const {
  return CountAt(tuple, tuple.Hash());
}

void Relation::Clear() {
  entries_.clear();
  hashes_.clear();
  std::fill(index_.begin(), index_.end(), 0);
  total_ = 0;
}

size_t Relation::FindBucket(const Tuple& tuple, uint64_t hash) const {
  if (entries_.empty()) return kNotFound;
  const size_t mask = index_.size() - 1;
  const uint64_t tag = hash & kTagMask;
  for (size_t b = hash & mask;; b = (b + 1) & mask) {
    const uint64_t word = index_[b];
    if (word == 0) return kNotFound;
    if ((word & kTagMask) == tag &&
        TupleEq()(entries_[SlotOf(word)].first, tuple)) {
      return b;
    }
  }
}

uint64_t Relation::CountAt(const Tuple& tuple, uint64_t hash) const {
  const size_t bucket = FindBucket(tuple, hash);
  return bucket == kNotFound ? 0 : entries_[SlotOf(index_[bucket])].second;
}

template <typename T>
uint64_t& Relation::CountFor(T&& tuple, uint64_t hash) {
  if ((entries_.size() + 1) * 8 > index_.size() * 7) GrowIndex();
  const size_t mask = index_.size() - 1;
  const uint64_t tag = hash & kTagMask;
  for (size_t b = hash & mask;; b = (b + 1) & mask) {
    const uint64_t word = index_[b];
    if (word == 0) {
      MRA_CHECK_LT(entries_.size(), kSlotMask) << "relation support too large";
      index_[b] = Word(hash, entries_.size());
      hashes_.push_back(hash);
      entries_.emplace_back(std::forward<T>(tuple), 0);
      return entries_.back().second;
    }
    if ((word & kTagMask) == tag) {
      Entry& entry = entries_[SlotOf(word)];
      if (TupleEq()(entry.first, tuple)) return entry.second;
    }
  }
}

void Relation::EraseAt(size_t bucket) {
  const size_t mask = index_.size() - 1;
  const size_t slot = SlotOf(index_[bucket]);
  // Backward shift: pull each later word of the probe run into the hole
  // unless the hole lies before its home bucket, so every remaining word
  // stays reachable from its home without tombstones.
  size_t hole = bucket;
  for (size_t b = (hole + 1) & mask; index_[b] != 0; b = (b + 1) & mask) {
    const size_t home = hashes_[SlotOf(index_[b])] & mask;
    if (((b - home) & mask) >= ((b - hole) & mask)) {
      index_[hole] = index_[b];
      hole = b;
    }
  }
  index_[hole] = 0;
  // Swap-move the last entry into the freed slot and re-point its word.
  const size_t last = entries_.size() - 1;
  if (slot != last) {
    const uint64_t hash = hashes_[last];
    size_t b = hash & mask;
    while ((index_[b] & kSlotMask) != last + 1) b = (b + 1) & mask;
    index_[b] = Word(hash, slot);
    entries_[slot] = std::move(entries_[last]);
    hashes_[slot] = hash;
  }
  entries_.pop_back();
  hashes_.pop_back();
}

void Relation::GrowIndex() {
  const size_t buckets = index_.empty() ? kMinBuckets : index_.size() * 2;
  index_.assign(buckets, 0);
  const size_t mask = buckets - 1;
  for (size_t slot = 0; slot < hashes_.size(); ++slot) {
    size_t b = hashes_[slot] & mask;
    while (index_[b] != 0) b = (b + 1) & mask;
    index_[b] = Word(hashes_[slot], slot);
  }
}

bool Relation::Equals(const Relation& other) const {
  if (!schema_.CompatibleWith(other.schema_)) return false;
  if (total_ != other.total_ || distinct_size() != other.distinct_size()) {
    return false;
  }
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    if (other.CountAt(entries_[slot].first, hashes_[slot]) !=
        entries_[slot].second) {
      return false;
    }
  }
  return true;
}

bool Relation::MultiSubsetOf(const Relation& other) const {
  if (!schema_.CompatibleWith(other.schema_)) return false;
  if (total_ > other.total_) return false;
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    if (other.CountAt(entries_[slot].first, hashes_[slot]) <
        entries_[slot].second) {
      return false;
    }
  }
  return true;
}

std::vector<const Relation::Entry*> Relation::SortedView() const {
  std::vector<const Entry*> view;
  view.reserve(entries_.size());
  for (const Entry& entry : entries_) view.push_back(&entry);
  std::sort(view.begin(), view.end(), [](const Entry* a, const Entry* b) {
    return a->first.Compare(b->first) < 0;
  });
  return view;
}

std::vector<std::pair<Tuple, uint64_t>> Relation::SortedEntries() const {
  std::vector<std::pair<Tuple, uint64_t>> entries;
  entries.reserve(entries_.size());
  for (const Entry* entry : SortedView()) entries.emplace_back(*entry);
  return entries;
}

std::vector<Tuple> Relation::ExpandedTuples() const {
  std::vector<Tuple> tuples;
  tuples.reserve(total_);
  for (const Entry* entry : SortedView()) {
    for (uint64_t i = 0; i < entry->second; ++i) tuples.push_back(entry->first);
  }
  return tuples;
}

std::string Relation::ToString() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const Entry* entry : SortedView()) {
    if (!first) out << ", ";
    first = false;
    out << entry->first.ToString() << " : " << entry->second;
  }
  out << "}";
  return out.str();
}

}  // namespace mra
