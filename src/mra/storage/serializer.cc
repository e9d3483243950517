#include "mra/storage/serializer.h"

#include <array>
#include <cstring>

#include "mra/catalog/catalog.h"

namespace mra {
namespace storage {

namespace {

// Arbitrary but checked: refuses absurd sizes instead of bad_alloc on
// corrupt input.
constexpr uint32_t kMaxStringLen = 1u << 30;

// The fewest bytes one encoded item can occupy, for Decoder::GetCount.
constexpr size_t kMinValueBytes = 2;       // kind tag + a bool
constexpr size_t kMinAttributeBytes = 5;   // empty name + type tag
constexpr size_t kMinEntryBytes = 12;      // empty tuple + multiplicity
constexpr size_t kMinColumnBytes = 37;     // ColumnStatistics, no buckets
constexpr size_t kBucketBytes = 32;        // one HistogramBucket

}  // namespace

void Encoder::PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

void Encoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Encoder::PatchU32(size_t offset, uint32_t v) {
  MRA_CHECK_LE(offset + 4, buffer_.size());
  for (int i = 0; i < 4; ++i) {
    buffer_[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void Encoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Encoder::PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

void Encoder::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Encoder::PutString(std::string_view v) {
  PutU32(static_cast<uint32_t>(v.size()));
  buffer_.append(v.data(), v.size());
}

void Encoder::PutValue(const Value& v) {
  PutU8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case TypeKind::kBool:
      PutU8(v.bool_value() ? 1 : 0);
      return;
    case TypeKind::kInt:
      PutI64(v.int_value());
      return;
    case TypeKind::kDecimal:
      PutI64(v.decimal_scaled());
      return;
    case TypeKind::kReal:
      PutDouble(v.real_value());
      return;
    case TypeKind::kString:
      PutString(v.string_view());
      return;
    case TypeKind::kDate:
      PutI64(v.date_days());
      return;
  }
}

void Encoder::PutTuple(const Tuple& t) {
  PutU32(static_cast<uint32_t>(t.arity()));
  for (const Value& v : t.values()) PutValue(v);
}

void Encoder::PutSchema(const RelationSchema& s) {
  PutString(s.name());
  PutU32(static_cast<uint32_t>(s.arity()));
  for (const Attribute& a : s.attributes()) {
    PutString(a.name);
    PutU8(static_cast<uint8_t>(a.type.kind()));
  }
}

void Encoder::PutRelation(const Relation& r) {
  PutSchema(r.schema());
  PutU64(r.distinct_size());
  for (const Relation::Entry* entry : r.SortedView()) {
    PutTuple(entry->first);
    PutU64(entry->second);
  }
}

void Encoder::PutStatistics(const stats::TableStatistics& s) {
  PutU64(s.row_count);
  PutU64(s.distinct_count);
  PutU64(s.collected_at);
  PutU32(static_cast<uint32_t>(s.columns.size()));
  for (const stats::ColumnStatistics& c : s.columns) {
    PutU64(c.distinct);
    PutDouble(c.null_fraction);
    PutU8(c.has_range ? 1 : 0);
    PutDouble(c.min);
    PutDouble(c.max);
    const auto& buckets = c.histogram.buckets();
    PutU32(static_cast<uint32_t>(buckets.size()));
    for (const stats::HistogramBucket& b : buckets) {
      PutDouble(b.lo);
      PutDouble(b.hi);
      PutU64(b.rows);
      PutU64(b.distinct);
    }
  }
}

Status Decoder::Need(size_t n) const {
  if (pos_ + n > data_.size()) {
    return Status::Corruption("serialized data truncated at offset " +
                              std::to_string(pos_));
  }
  return Status::OK();
}

Status Decoder::CheckCount(uint64_t count, size_t min_item_bytes) const {
  if (min_item_bytes > 0 && count > remaining() / min_item_bytes) {
    return Status::Corruption("element count " + std::to_string(count) +
                              " exceeds the " + std::to_string(remaining()) +
                              " bytes left at offset " + std::to_string(pos_));
  }
  return Status::OK();
}

Result<uint32_t> Decoder::GetCount(size_t min_item_bytes) {
  MRA_ASSIGN_OR_RETURN(uint32_t count, GetU32());
  MRA_RETURN_IF_ERROR(CheckCount(count, min_item_bytes));
  return count;
}

Result<uint8_t> Decoder::GetU8() {
  MRA_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> Decoder::GetU32() {
  MRA_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> Decoder::GetU64() {
  MRA_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> Decoder::GetI64() {
  MRA_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> Decoder::GetDouble() {
  MRA_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> Decoder::GetString() {
  MRA_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (len > kMaxStringLen) {
    return Status::Corruption("implausible string length");
  }
  MRA_RETURN_IF_ERROR(Need(len));
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

Result<Value> Decoder::GetValue() {
  MRA_ASSIGN_OR_RETURN(uint8_t kind, GetU8());
  switch (static_cast<TypeKind>(kind)) {
    case TypeKind::kBool: {
      MRA_ASSIGN_OR_RETURN(uint8_t b, GetU8());
      return Value::Bool(b != 0);
    }
    case TypeKind::kInt: {
      MRA_ASSIGN_OR_RETURN(int64_t v, GetI64());
      return Value::Int(v);
    }
    case TypeKind::kDecimal: {
      MRA_ASSIGN_OR_RETURN(int64_t v, GetI64());
      return Value::DecimalScaled(v);
    }
    case TypeKind::kReal: {
      MRA_ASSIGN_OR_RETURN(double v, GetDouble());
      return Value::Real(v);
    }
    case TypeKind::kString: {
      MRA_ASSIGN_OR_RETURN(std::string v, GetString());
      return Value::Str(v);
    }
    case TypeKind::kDate: {
      MRA_ASSIGN_OR_RETURN(int64_t v, GetI64());
      return Value::Date(static_cast<int32_t>(v));
    }
  }
  return Status::Corruption("unknown value kind tag " + std::to_string(kind));
}

Result<Tuple> Decoder::GetTuple() {
  Tuple t;
  MRA_RETURN_IF_ERROR(GetTuple(&t));
  return t;
}

Status Decoder::GetTuple(Tuple* out) {
  MRA_ASSIGN_OR_RETURN(uint32_t arity, GetCount(kMinValueBytes));
  std::vector<Value> values;
  out->Swap(values);
  values.clear();
  values.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    MRA_ASSIGN_OR_RETURN(Value v, GetValue());
    values.push_back(std::move(v));
  }
  out->Swap(values);
  return Status::OK();
}

Result<RelationSchema> Decoder::GetSchema() {
  MRA_ASSIGN_OR_RETURN(std::string name, GetString());
  MRA_ASSIGN_OR_RETURN(uint32_t arity, GetCount(kMinAttributeBytes));
  std::vector<Attribute> attrs;
  attrs.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    MRA_ASSIGN_OR_RETURN(std::string attr_name, GetString());
    MRA_ASSIGN_OR_RETURN(uint8_t kind, GetU8());
    if (kind > static_cast<uint8_t>(TypeKind::kDate)) {
      return Status::Corruption("unknown type kind tag");
    }
    attrs.push_back({std::move(attr_name), Type(static_cast<TypeKind>(kind))});
  }
  return RelationSchema(std::move(name), std::move(attrs));
}

Result<Relation> Decoder::GetRelation() {
  MRA_ASSIGN_OR_RETURN(RelationSchema schema, GetSchema());
  MRA_ASSIGN_OR_RETURN(uint64_t distinct, GetU64());
  MRA_RETURN_IF_ERROR(CheckCount(distinct, kMinEntryBytes));
  Relation out(std::move(schema));
  for (uint64_t i = 0; i < distinct; ++i) {
    MRA_ASSIGN_OR_RETURN(Tuple t, GetTuple());
    MRA_ASSIGN_OR_RETURN(uint64_t count, GetU64());
    if (count == 0) return Status::Corruption("zero multiplicity on disk");
    MRA_RETURN_IF_ERROR(out.Insert(std::move(t), count));
  }
  return out;
}

Result<stats::TableStatistics> Decoder::GetStatistics() {
  stats::TableStatistics out;
  MRA_ASSIGN_OR_RETURN(out.row_count, GetU64());
  MRA_ASSIGN_OR_RETURN(out.distinct_count, GetU64());
  MRA_ASSIGN_OR_RETURN(out.collected_at, GetU64());
  MRA_ASSIGN_OR_RETURN(uint32_t columns, GetCount(kMinColumnBytes));
  out.columns.resize(columns);
  for (uint32_t i = 0; i < columns; ++i) {
    stats::ColumnStatistics& c = out.columns[i];
    MRA_ASSIGN_OR_RETURN(c.distinct, GetU64());
    MRA_ASSIGN_OR_RETURN(c.null_fraction, GetDouble());
    MRA_ASSIGN_OR_RETURN(uint8_t has_range, GetU8());
    c.has_range = has_range != 0;
    MRA_ASSIGN_OR_RETURN(c.min, GetDouble());
    MRA_ASSIGN_OR_RETURN(c.max, GetDouble());
    MRA_ASSIGN_OR_RETURN(uint32_t buckets_n, GetCount(kBucketBytes));
    std::vector<stats::HistogramBucket> buckets(buckets_n);
    for (stats::HistogramBucket& b : buckets) {
      MRA_ASSIGN_OR_RETURN(b.lo, GetDouble());
      MRA_ASSIGN_OR_RETURN(b.hi, GetDouble());
      MRA_ASSIGN_OR_RETURN(b.rows, GetU64());
      MRA_ASSIGN_OR_RETURN(b.distinct, GetU64());
    }
    c.histogram = stats::EquiDepthHistogram(std::move(buckets));
  }
  return out;
}

uint32_t Crc32(std::string_view data) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xffffffffu;
  for (char ch : data) {
    crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::string EncodeCatalog(const Catalog& catalog) {
  Encoder enc;
  enc.PutU64(catalog.logical_time());
  std::vector<std::string> names = catalog.RelationNames();
  enc.PutU32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    const Relation* rel = catalog.GetRelation(name).value();
    enc.PutRelation(*rel);
  }
  // Trailing statistics section.  Pre-statistics images simply end here,
  // which DecodeCatalog treats as "no snapshots".
  enc.PutU32(static_cast<uint32_t>(catalog.statistics().size()));
  for (const auto& [name, stats] : catalog.statistics()) {
    enc.PutString(name);
    enc.PutStatistics(stats);
  }
  return enc.TakeBuffer();
}

Result<Catalog> DecodeCatalog(std::string_view data) {
  Decoder dec(data);
  Catalog catalog;
  MRA_ASSIGN_OR_RETURN(uint64_t time, dec.GetU64());
  catalog.set_logical_time(time);
  MRA_ASSIGN_OR_RETURN(uint32_t n, dec.GetU32());
  for (uint32_t i = 0; i < n; ++i) {
    MRA_ASSIGN_OR_RETURN(Relation rel, dec.GetRelation());
    RelationSchema schema = rel.schema();
    MRA_RETURN_IF_ERROR(catalog.CreateRelation(schema));
    MRA_RETURN_IF_ERROR(catalog.SetRelation(schema.name(), std::move(rel)));
  }
  if (!dec.AtEnd()) {
    MRA_ASSIGN_OR_RETURN(uint32_t stats_n, dec.GetU32());
    for (uint32_t i = 0; i < stats_n; ++i) {
      MRA_ASSIGN_OR_RETURN(std::string name, dec.GetString());
      MRA_ASSIGN_OR_RETURN(stats::TableStatistics stats, dec.GetStatistics());
      MRA_RETURN_IF_ERROR(catalog.SetStatistics(name, std::move(stats)));
    }
  }
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes after catalog image");
  }
  return catalog;
}

}  // namespace storage
}  // namespace mra
