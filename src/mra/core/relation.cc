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
  split_cache_.Drop();
  map_[tuple] += count;
  total_ += count;
}

void Relation::InsertUnchecked(Tuple&& tuple, uint64_t count) {
  if (count == 0) return;
  split_cache_.Drop();
  map_[std::move(tuple)] += count;
  total_ += count;
}

uint64_t Relation::Remove(const Tuple& tuple, uint64_t count) {
  auto it = map_.find(tuple);
  if (it == map_.end()) return 0;
  uint64_t removed = std::min(count, it->second);
  it->second -= removed;
  total_ -= removed;
  if (it->second == 0) {
    split_cache_.Drop();
    map_.erase(it);
  }
  return removed;
}

void Relation::SetMultiplicity(const Tuple& tuple, uint64_t count) {
  if (count == 0) {
    Remove(tuple, UINT64_MAX);
    return;
  }
  split_cache_.Drop();
  uint64_t& slot = map_[tuple];
  total_ = total_ - slot + count;
  slot = count;
}

uint64_t Relation::Multiplicity(const Tuple& tuple) const {
  auto it = map_.find(tuple);
  return it == map_.end() ? 0 : it->second;
}

void Relation::Clear() {
  split_cache_.Drop();
  map_.clear();
  total_ = 0;
}

std::shared_ptr<const Relation::Splits> Relation::RangeSplits(
    size_t stride) const {
  stride = std::max<size_t>(1, stride);
  std::lock_guard<std::mutex> lock(split_cache_.mu_);
  if (split_cache_.splits_ == nullptr || split_cache_.stride_ != stride) {
    auto splits = std::make_shared<Splits>();
    splits->reserve(map_.size() / stride + 2);
    size_t n = 0;
    for (auto it = map_.begin(); it != map_.end(); ++it, ++n) {
      if (n % stride == 0) splits->push_back(it);
    }
    splits->push_back(map_.end());
    split_cache_.stride_ = stride;
    split_cache_.splits_ = std::move(splits);
  }
  return split_cache_.splits_;
}

bool Relation::Equals(const Relation& other) const {
  if (!schema_.CompatibleWith(other.schema_)) return false;
  if (total_ != other.total_ || map_.size() != other.map_.size()) return false;
  for (const auto& [tuple, count] : map_) {
    if (other.Multiplicity(tuple) != count) return false;
  }
  return true;
}

bool Relation::MultiSubsetOf(const Relation& other) const {
  if (!schema_.CompatibleWith(other.schema_)) return false;
  if (total_ > other.total_) return false;
  for (const auto& [tuple, count] : map_) {
    if (other.Multiplicity(tuple) < count) return false;
  }
  return true;
}

std::vector<const Relation::Entry*> Relation::SortedView() const {
  std::vector<const Entry*> view;
  view.reserve(map_.size());
  for (const Entry& entry : map_) view.push_back(&entry);
  std::sort(view.begin(), view.end(), [](const Entry* a, const Entry* b) {
    return a->first.Compare(b->first) < 0;
  });
  return view;
}

std::vector<std::pair<Tuple, uint64_t>> Relation::SortedEntries() const {
  std::vector<std::pair<Tuple, uint64_t>> entries;
  entries.reserve(map_.size());
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
