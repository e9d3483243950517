#include "mra/core/relation.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

namespace mra {

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
  const TagIndex::Hit hit = Find(tuple, tuple.Hash());
  const size_t slot = hit.id;
  if (slot == TagIndex::kNotFound) return 0;
  uint64_t& have = entries_[slot].second;
  const uint64_t removed = std::min(count, have);
  have -= removed;
  total_ -= removed;
  if (have == 0) {
    // The last entry moves into the freed slot.
    const size_t last = entries_.size() - 1;
    index_.Erase(hit, last, [this](size_t s) { return hashes_[s]; });
    if (slot != last) {
      entries_[slot] = std::move(entries_[last]);
      hashes_[slot] = hashes_[last];
    }
    entries_.pop_back();
    hashes_.pop_back();
  }
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

void Relation::Reserve(size_t n) {
  ReserveAmortised(entries_, n);
  ReserveAmortised(hashes_, n);
  index_.Reserve(n, entries_.size(), [this](size_t s) { return hashes_[s]; });
}

void Relation::Clear() {
  entries_.clear();
  hashes_.clear();
  index_.Clear();
  total_ = 0;
}

uint64_t Relation::ApproxBytes() const {
  uint64_t bytes = sizeof(Relation) + index_.capacity() * sizeof(uint64_t) +
                   entry_capacity() * (sizeof(Entry) + sizeof(uint64_t));
  for (const Entry& entry : entries_) bytes += entry.first.HeapBytes();
  return bytes;
}

TagIndex::Hit Relation::Find(const Tuple& tuple, uint64_t hash) const {
  return index_.Find(hash, [&](size_t slot) {
    return TupleEq()(entries_[slot].first, tuple);
  });
}

uint64_t Relation::CountAt(const Tuple& tuple, uint64_t hash) const {
  const size_t slot = Find(tuple, hash).id;
  return slot == TagIndex::kNotFound ? 0 : entries_[slot].second;
}

template <typename T>
uint64_t& Relation::CountFor(T&& tuple, uint64_t hash) {
  bool inserted = false;
  const size_t slot = index_.Insert(
      hash, entries_.size(),
      [&](size_t s) { return TupleEq()(entries_[s].first, tuple); },
      [this](size_t s) { return hashes_[s]; }, &inserted);
  if (inserted) {
    hashes_.push_back(hash);
    entries_.emplace_back(std::forward<T>(tuple), 0);
  }
  return entries_[slot].second;
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
