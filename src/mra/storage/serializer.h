// Binary serialization of values, tuples, schemas, relations and whole
// database states.  Fixed-width little-endian encoding with length-prefixed
// strings; used by the write-ahead log and checkpoint files.

#ifndef MRA_STORAGE_SERIALIZER_H_
#define MRA_STORAGE_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "mra/common/result.h"
#include "mra/core/relation.h"
#include "mra/stats/table_statistics.h"

namespace mra {

class Catalog;

namespace storage {

/// Appends encoded data to an owned byte buffer.
class Encoder {
 public:
  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutDouble(double v);
  void PutString(std::string_view v);

  void PutValue(const Value& v);
  void PutTuple(const Tuple& t);
  void PutSchema(const RelationSchema& s);
  /// Schema + (tuple, multiplicity) pairs in canonical order
  /// (Relation::SortedView), so equal bags encode to identical bytes.
  void PutRelation(const Relation& r);
  /// An ANALYZE snapshot (cardinalities, per-column sketches, histograms).
  void PutStatistics(const stats::TableStatistics& s);

  /// Overwrites the four bytes a PutU32 wrote at `offset`, for a length
  /// prefix known only once its payload is encoded.
  void PatchU32(size_t offset, uint32_t v);

  const std::string& buffer() const { return buffer_; }
  std::string TakeBuffer() { return std::move(buffer_); }
  /// Empties the buffer but keeps its capacity for the next encoding.
  void Clear() { buffer_.clear(); }

 private:
  std::string buffer_;
};

/// Reads encoded data from a borrowed byte range.  All getters return
/// Corruption on underflow or malformed content.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();

  Result<Value> GetValue();
  Result<Tuple> GetTuple();
  /// GetTuple into `*out`, reusing its value storage.
  Status GetTuple(Tuple* out);
  Result<RelationSchema> GetSchema();
  Result<Relation> GetRelation();
  Result<stats::TableStatistics> GetStatistics();

  /// Reads a u32 element count and refuses it (Corruption) unless `count`
  /// elements of at least `min_item_bytes` each fit in the bytes that
  /// remain — so a corrupted count fails here, before any reserve() or
  /// resize() sized by it can allocate.
  Result<uint32_t> GetCount(size_t min_item_bytes);
  /// The same bound for a count read some other way (a u64 count, or one
  /// that is validated later).
  Status CheckCount(uint64_t count, size_t min_item_bytes) const;

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Need(size_t n) const;

  std::string_view data_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial) of `data` — frames WAL records.
uint32_t Crc32(std::string_view data);

/// Serializes a full database state (all relations + logical time),
/// followed by the stored ANALYZE statistics snapshots.
std::string EncodeCatalog(const Catalog& catalog);
/// Inverse of EncodeCatalog.  Images written before the statistics
/// subsystem existed lack the trailing statistics section and decode to a
/// catalog with no snapshots.
Result<Catalog> DecodeCatalog(std::string_view data);

}  // namespace storage
}  // namespace mra

#endif  // MRA_STORAGE_SERIALIZER_H_
