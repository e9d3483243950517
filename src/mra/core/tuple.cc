#include "mra/core/tuple.h"

#include <algorithm>
#include <sstream>

#include "mra/common/hash.h"

namespace mra {

Tuple Tuple::Concat(const Tuple& other) const {
  std::vector<Value> values;
  values.reserve(values_.size() + other.values_.size());
  values.insert(values.end(), values_.begin(), values_.end());
  values.insert(values.end(), other.values_.begin(), other.values_.end());
  return Tuple(std::move(values));
}

void Tuple::AssignConcat(const Tuple& a, const Tuple& b) {
  MRA_CHECK(this != &a && this != &b) << "AssignConcat must not alias";
  values_.resize(a.values_.size() + b.values_.size());
  for (size_t i = 0; i < a.values_.size(); ++i) values_[i] = a.values_[i];
  for (size_t i = 0; i < b.values_.size(); ++i) {
    values_[a.values_.size() + i] = b.values_[i];
  }
}

Tuple Tuple::Project(const std::vector<size_t>& indexes) const {
  std::vector<Value> values;
  values.reserve(indexes.size());
  for (size_t i : indexes) {
    MRA_CHECK_LT(i, values_.size()) << "tuple projection index out of range";
    values.push_back(values_[i]);
  }
  return Tuple(std::move(values));
}

void Tuple::AssignProjection(const Tuple& src,
                             const std::vector<size_t>& indexes) {
  MRA_CHECK(this != &src) << "AssignProjection must not alias its source";
  values_.resize(indexes.size());
  for (size_t k = 0; k < indexes.size(); ++k) {
    MRA_CHECK_LT(indexes[k], src.values_.size())
        << "tuple projection index out of range";
    values_[k] = src.values_[indexes[k]];
  }
}

bool Tuple::Equals(const Tuple& other) const {
  MRA_CHECK_EQ(values_.size(), other.values_.size())
      << "Tuple::Equals across schemas";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i].kind() != other.values_[i].kind() ||
        !values_[i].Equals(other.values_[i])) {
      return false;
    }
  }
  return true;
}

int Tuple::Compare(const Tuple& other) const {
  const size_t n = std::min(values_.size(), other.values_.size());
  for (size_t i = 0; i < n; ++i) {
    int c = values_[i].Compare(other.values_[i]);
    if (c != 0) return c;
  }
  if (values_.size() == other.values_.size()) return 0;
  return values_.size() < other.values_.size() ? -1 : 1;
}

size_t Tuple::Hash() const {
  size_t h = Mix64(values_.size());
  for (const Value& v : values_) h = HashCombine(h, v.Hash());
  return h;
}

size_t Tuple::HashKey(const std::vector<size_t>& attrs) const {
  size_t h = Mix64(attrs.size());
  for (size_t i : attrs) {
    MRA_CHECK_LT(i, values_.size()) << "key attribute out of range";
    h = HashCombine(h, values_[i].Hash());
  }
  return h;
}

bool Tuple::KeysEqual(const std::vector<size_t>& attrs, const Tuple& other,
                      const std::vector<size_t>& other_attrs) const {
  MRA_CHECK_EQ(attrs.size(), other_attrs.size()) << "KeysEqual arity mismatch";
  for (size_t k = 0; k < attrs.size(); ++k) {
    const Value& mine = values_[attrs[k]];
    const Value& theirs = other.values_[other_attrs[k]];
    if (mine.kind() != theirs.kind() || !mine.Equals(theirs)) return false;
  }
  return true;
}

bool Tuple::KeysEqual(const std::vector<size_t>& attrs,
                      const Tuple& key) const {
  MRA_CHECK_EQ(attrs.size(), key.arity()) << "KeysEqual arity mismatch";
  for (size_t k = 0; k < attrs.size(); ++k) {
    const Value& mine = values_[attrs[k]];
    if (mine.kind() != key.values_[k].kind() || !mine.Equals(key.values_[k])) {
      return false;
    }
  }
  return true;
}

size_t Tuple::HeapBytes() const {
  size_t bytes = values_.size() * sizeof(Value);
  for (const Value& v : values_) bytes += v.heap_bytes();
  return bytes;
}

Status Tuple::ConformsTo(const RelationSchema& schema) const {
  if (values_.size() != schema.arity()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(values_.size()) +
        " does not match schema " + schema.ToString());
  }
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i].type() != schema.TypeOf(i)) {
      return Status::TypeError("attribute %" + std::to_string(i + 1) +
                               " of tuple " + ToString() + " has domain " +
                               values_[i].type().ToString() +
                               ", schema expects " +
                               schema.TypeOf(i).ToString());
    }
  }
  return Status::OK();
}

std::string Tuple::ToString() const {
  std::ostringstream out;
  out << "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out << ", ";
    out << values_[i].ToString();
  }
  out << ")";
  return out.str();
}

}  // namespace mra
