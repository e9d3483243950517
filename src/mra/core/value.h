// Atomic values (Definition 2.1).  A Value is an element of exactly one
// domain; cross-domain operations are programming errors at this layer
// (numeric promotion is handled by the expression evaluator).

#ifndef MRA_CORE_VALUE_H_
#define MRA_CORE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "mra/common/result.h"
#include "mra/core/type.h"

namespace mra {

/// Fixed-point decimals carry 4 fractional digits: the stored integer is the
/// numeric value multiplied by kDecimalScale.
inline constexpr int64_t kDecimalScale = 10000;

/// One atomic value.  Immutable after construction except via assignment.
class Value {
 public:
  /// Default-constructed value: int 0.  Needed for container resizing only.
  Value() : kind_(TypeKind::kInt), rep_(int64_t{0}) {}

  static Value Bool(bool v) { return Value(TypeKind::kBool, int64_t{v}); }
  static Value Int(int64_t v) { return Value(TypeKind::kInt, v); }
  static Value Real(double v) { return Value(TypeKind::kReal, v); }
  static Value Str(std::string v) {
    return Value(TypeKind::kString, std::move(v));
  }

  /// Decimal from a raw scaled integer: `DecimalScaled(123400)` is 12.34.
  static Value DecimalScaled(int64_t scaled) {
    return Value(TypeKind::kDecimal, scaled);
  }
  /// Decimal from a whole number of units: `Decimal(12)` is 12.0000.
  static Value Decimal(int64_t units) {
    return Value(TypeKind::kDecimal, units * kDecimalScale);
  }
  /// Parses "[-]digits[.digits]" with at most 4 fractional digits.
  static Result<Value> DecimalFromString(std::string_view text);

  /// Date from a count of days since 1970-01-01 (may be negative).
  static Value Date(int32_t days) {
    return Value(TypeKind::kDate, int64_t{days});
  }
  /// Parses "YYYY-MM-DD" (proleptic Gregorian).
  static Result<Value> DateFromString(std::string_view text);
  /// Builds a date from civil year/month/day; validates the calendar day.
  static Result<Value> DateFromCivil(int year, int month, int day);

  TypeKind kind() const { return kind_; }
  Type type() const { return Type(kind_); }

  // Accessors.  Calling the accessor of the wrong kind is a checked error.
  bool bool_value() const {
    MRA_CHECK(kind_ == TypeKind::kBool);
    return std::get<int64_t>(rep_) != 0;
  }
  int64_t int_value() const {
    MRA_CHECK(kind_ == TypeKind::kInt);
    return std::get<int64_t>(rep_);
  }
  /// The raw scaled integer of a decimal (value * 10^4).
  int64_t decimal_scaled() const {
    MRA_CHECK(kind_ == TypeKind::kDecimal);
    return std::get<int64_t>(rep_);
  }
  double real_value() const {
    MRA_CHECK(kind_ == TypeKind::kReal);
    return std::get<double>(rep_);
  }
  const std::string& string_value() const {
    MRA_CHECK(kind_ == TypeKind::kString);
    return std::get<std::string>(rep_);
  }
  int32_t date_days() const {
    MRA_CHECK(kind_ == TypeKind::kDate);
    return static_cast<int32_t>(std::get<int64_t>(rep_));
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
  Value(TypeKind kind, int64_t v) : kind_(kind), rep_(v) {}
  Value(TypeKind kind, double v) : kind_(kind), rep_(v) {}
  Value(TypeKind kind, std::string v) : kind_(kind), rep_(std::move(v)) {}

  TypeKind kind_;
  std::variant<int64_t, double, std::string> rep_;
};

}  // namespace mra

#endif  // MRA_CORE_VALUE_H_
