// Atomic values (Definition 2.1).  A Value is an element of exactly one
// domain; cross-domain operations are programming errors at this layer
// (numeric promotion is handled by the expression evaluator).

#ifndef MRA_CORE_VALUE_H_
#define MRA_CORE_VALUE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <string_view>

#include "mra/common/result.h"
#include "mra/core/type.h"

namespace mra {

/// Fixed-point decimals carry 4 fractional digits: the stored integer is the
/// numeric value multiplied by kDecimalScale.
inline constexpr int64_t kDecimalScale = 10000;

/// One atomic value, 16 bytes.  Immutable after construction except via
/// assignment.
///
/// Layout: bytes 0-7 are the payload word (an int, bool, date or scaled
/// decimal as int64, a real's IEEE bits), bytes 8-13 are zero, byte 14 is
/// zero and byte 15 is the kind.  A string of at most kInlineStringMax
/// bytes sits inline in bytes 0-13, zero padded, with its length in byte
/// 14; a longer one is an owned heap block (a uint64 length, then the
/// bytes) whose pointer is the payload word, with byte 14 set to
/// kHeapTag.  Every value has exactly one image, so two non-heap values
/// of one kind are equal exactly when their 16 bytes are (reals aside).
/// Copies are deep, moves take the block and leave the source "".
class Value {
 public:
  /// The longest string held without a heap block.
  static constexpr size_t kInlineStringMax = 14;

  /// Default-constructed value: int 0.  Needed for container resizing only.
  Value() : Value(TypeKind::kInt, 0) {}

  Value(const Value& other) {
    std::memcpy(bytes_, other.bytes_, kSize);
    if (is_heap()) AllocateHeap(other.StringBytes());
  }
  Value(Value&& other) noexcept {
    std::memcpy(bytes_, other.bytes_, kSize);
    other.LeaveMovedFrom();
  }
  Value& operator=(const Value& other) {
    if (is_heap() || other.is_heap()) return *this = Value(other);
    std::memcpy(bytes_, other.bytes_, kSize);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      std::memcpy(bytes_, other.bytes_, kSize);
      other.LeaveMovedFrom();
    }
    return *this;
  }
  ~Value() { FreeHeap(); }

  static Value Bool(bool v) { return Value(TypeKind::kBool, v ? 1 : 0); }
  static Value Int(int64_t v) {
    return Value(TypeKind::kInt, static_cast<uint64_t>(v));
  }
  static Value Real(double v) {
    return Value(TypeKind::kReal, std::bit_cast<uint64_t>(v));
  }
  static Value Str(std::string_view v) {
    Value out(TypeKind::kString, 0);
    if (v.size() > kInlineStringMax) {
      out.AllocateHeap(v);
    } else if (!v.empty()) {
      std::memcpy(out.bytes_, v.data(), v.size());
      out.bytes_[kTagByte] = static_cast<unsigned char>(v.size());
    }
    return out;
  }

  /// Decimal from a raw scaled integer: `DecimalScaled(123400)` is 12.34.
  static Value DecimalScaled(int64_t scaled) {
    return Value(TypeKind::kDecimal, static_cast<uint64_t>(scaled));
  }
  /// Decimal from a whole number of units: `Decimal(12)` is 12.0000.
  static Value Decimal(int64_t units) {
    return DecimalScaled(units * kDecimalScale);
  }
  /// Parses "[-]digits[.digits]" with at most 4 fractional digits.
  static Result<Value> DecimalFromString(std::string_view text);

  /// Date from a count of days since 1970-01-01 (may be negative).
  static Value Date(int32_t days) {
    return Value(TypeKind::kDate, static_cast<uint64_t>(int64_t{days}));
  }
  /// Parses "YYYY-MM-DD" (proleptic Gregorian).
  static Result<Value> DateFromString(std::string_view text);
  /// Builds a date from civil year/month/day; validates the calendar day.
  static Result<Value> DateFromCivil(int year, int month, int day);

  TypeKind kind() const { return static_cast<TypeKind>(bytes_[kKindByte]); }
  Type type() const { return Type(kind()); }

  // Accessors.  Calling the accessor of the wrong kind is a checked error.
  bool bool_value() const {
    MRA_CHECK(kind() == TypeKind::kBool);
    return word() != 0;
  }
  int64_t int_value() const {
    MRA_CHECK(kind() == TypeKind::kInt);
    return static_cast<int64_t>(word());
  }
  /// The raw scaled integer of a decimal (value * 10^4).
  int64_t decimal_scaled() const {
    MRA_CHECK(kind() == TypeKind::kDecimal);
    return static_cast<int64_t>(word());
  }
  double real_value() const {
    MRA_CHECK(kind() == TypeKind::kReal);
    return std::bit_cast<double>(word());
  }
  /// A copy of the string; string_view() reads it in place.
  std::string string_value() const { return std::string(string_view()); }
  /// The string's bytes, valid while this value lives unassigned.
  std::string_view string_view() const {
    MRA_CHECK(kind() == TypeKind::kString);
    return StringBytes();
  }
  int32_t date_days() const {
    MRA_CHECK(kind() == TypeKind::kDate);
    return static_cast<int32_t>(word());
  }

  /// Bytes this value holds off its 16: a long string's block, else 0.
  size_t heap_bytes() const {
    return is_heap() ? sizeof(uint64_t) + StringBytes().size() : 0;
  }

  /// Numeric value widened to double (int, decimal or real only).
  double AsReal() const;

  /// Equality per Definition 2.4: only defined between values of the same
  /// domain (tuples compared attribute-wise share a schema).  Agrees with
  /// Compare: NaN equals NaN and -0.0 equals 0.0.
  bool Equals(const Value& other) const;

  /// Three-way comparison within one domain: -1, 0 or +1 — the canonical
  /// order, a strict weak order on every domain.  Booleans order
  /// false < true; strings lexicographically (bytewise); others
  /// numerically, with NaN after every real and -0.0 tied with 0.0.
  int Compare(const Value& other) const;
  bool Less(const Value& other) const { return Compare(other) < 0; }

  bool operator==(const Value& other) const { return Equals(other); }
  bool operator!=(const Value& other) const { return !Equals(other); }

  size_t Hash() const;

  /// Display form: `true`, `42`, `12.34`, `3.5`, `'text'`, `1994-02-14`.
  std::string ToString() const;

  // --- Civil-calendar helpers (public: reused by the SQL/XRA parsers). ---

  /// Days since 1970-01-01 of a civil date (Howard Hinnant's algorithm).
  static int64_t DaysFromCivil(int year, int month, int day);
  /// Inverse of DaysFromCivil.
  static void CivilFromDays(int64_t days, int* year, int* month, int* day);

 private:
  static constexpr size_t kSize = 16;
  static constexpr size_t kTagByte = 14;
  static constexpr size_t kKindByte = 15;
  static constexpr unsigned char kHeapTag = 0xFF;

  Value(TypeKind kind, uint64_t word) {
    std::memcpy(bytes_, &word, sizeof(word));
    std::memset(bytes_ + sizeof(word), 0, kKindByte - sizeof(word));
    bytes_[kKindByte] = static_cast<unsigned char>(kind);
  }

  uint64_t word() const {
    uint64_t w = 0;
    std::memcpy(&w, bytes_, sizeof(w));
    return w;
  }
  bool is_heap() const { return bytes_[kTagByte] == kHeapTag; }
  unsigned char* heap_block() const {
    unsigned char* block = nullptr;
    std::memcpy(&block, bytes_, sizeof(block));
    return block;
  }
  /// The string bytes, inline or in the block; the kind is not checked.
  std::string_view StringBytes() const {
    if (!is_heap()) {
      return std::string_view(reinterpret_cast<const char*>(bytes_),
                              bytes_[kTagByte]);
    }
    const unsigned char* block = heap_block();
    uint64_t size = 0;
    std::memcpy(&size, block, sizeof(size));
    return std::string_view(
        reinterpret_cast<const char*>(block + sizeof(size)), size);
  }

  void FreeHeap() {
    if (is_heap()) ::operator delete(heap_block());
  }
  /// A moved-from long string keeps its kind as the empty string.
  void LeaveMovedFrom() {
    if (is_heap()) std::memset(bytes_, 0, kKindByte);
  }
  /// Points this string at a new block holding `v`, overwriting (not
  /// freeing) the payload word.
  void AllocateHeap(std::string_view v);

  alignas(uint64_t) unsigned char bytes_[kSize];
};

static_assert(sizeof(Value) == 16);

}  // namespace mra

#endif  // MRA_CORE_VALUE_H_
