// Domains (Definition 2.1): sets of atomic values.
//
// The paper names integers, reals, booleans and strings as common domains and
// notes that more specialised atomic domains such as date and money are
// possible; we provide all six.

#ifndef MRA_CORE_TYPE_H_
#define MRA_CORE_TYPE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "mra/common/result.h"

namespace mra {

/// The atomic domains of the data model (Definition 2.1).
enum class TypeKind : uint8_t {
  kBool = 0,
  kInt = 1,
  /// Fixed-point numeric with 4 fractional digits ("money" in the paper).
  kDecimal = 2,
  kReal = 3,
  kString = 4,
  /// Calendar day, stored as days since 1970-01-01.
  kDate = 5,
};

/// A domain.  Currently a thin wrapper over TypeKind; kept as a class so that
/// parameterised domains (e.g. varchar(n)) can be added without API breaks.
class Type {
 public:
  constexpr Type() : kind_(TypeKind::kInt) {}
  constexpr explicit Type(TypeKind kind) : kind_(kind) {}

  static constexpr Type Bool() { return Type(TypeKind::kBool); }
  static constexpr Type Int() { return Type(TypeKind::kInt); }
  static constexpr Type Decimal() { return Type(TypeKind::kDecimal); }
  static constexpr Type Real() { return Type(TypeKind::kReal); }
  static constexpr Type String() { return Type(TypeKind::kString); }
  static constexpr Type Date() { return Type(TypeKind::kDate); }

  constexpr TypeKind kind() const { return kind_; }

  /// True for int, decimal and real — the domains on which SUM/AVG and
  /// arithmetic are defined (Definition 3.3 requires "a numeric domain").
  constexpr bool IsNumeric() const {
    return kind_ == TypeKind::kInt || kind_ == TypeKind::kDecimal ||
           kind_ == TypeKind::kReal;
  }

  constexpr bool operator==(const Type& other) const {
    return kind_ == other.kind_;
  }
  constexpr bool operator!=(const Type& other) const {
    return kind_ != other.kind_;
  }

  /// Lower-case name as used in XRA schema syntax: "int", "real", ….
  std::string_view name() const;
  std::string ToString() const { return std::string(name()); }

  /// Parses an XRA type name ("bool", "int", "decimal", "real", "string",
  /// "date").  Case-sensitive.
  static Result<Type> FromName(std::string_view name);

  /// Numeric promotion for mixed arithmetic/comparison:
  /// int < decimal < real.  Both inputs must be numeric.
  static Type CommonNumeric(Type a, Type b);

 private:
  TypeKind kind_;
};

}  // namespace mra

#endif  // MRA_CORE_TYPE_H_
