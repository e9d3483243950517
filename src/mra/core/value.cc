#include "mra/core/value.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "mra/common/hash.h"

namespace mra {

namespace {

// Formats a double so that integral values still read as reals ("3.0") and
// round-trips typical literals without noise digits.
std::string FormatReal(double v) {
  std::ostringstream out;
  out.precision(15);
  out << v;
  std::string s = out.str();
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
    s += ".0";
  }
  return s;
}

std::string FormatDecimalScaled(int64_t scaled) {
  bool negative = scaled < 0;
  // Careful with INT64_MIN: split before negation.
  uint64_t magnitude =
      negative ? ~static_cast<uint64_t>(scaled) + 1 : static_cast<uint64_t>(scaled);
  uint64_t whole = magnitude / kDecimalScale;
  uint64_t frac = magnitude % kDecimalScale;
  std::string out;
  if (negative) out += '-';
  out += std::to_string(whole);
  if (frac != 0) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%04llu",
                  static_cast<unsigned long long>(frac));
    std::string digits(buf);
    while (!digits.empty() && digits.back() == '0') digits.pop_back();
    out += '.';
    out += digits;
  }
  return out;
}

}  // namespace

Result<Value> Value::DecimalFromString(std::string_view text) {
  if (text.empty()) return Status::ParseError("empty decimal literal");
  size_t pos = 0;
  bool negative = false;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    pos = 1;
  }
  int64_t whole = 0;
  size_t whole_digits = 0;
  while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) {
    whole = whole * 10 + (text[pos] - '0');
    ++pos;
    ++whole_digits;
  }
  int64_t frac = 0;
  size_t frac_digits = 0;
  if (pos < text.size() && text[pos] == '.') {
    ++pos;
    while (pos < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[pos]))) {
      if (frac_digits == 4) {
        return Status::ParseError("decimal literal has more than 4 fractional "
                                  "digits: " +
                                  std::string(text));
      }
      frac = frac * 10 + (text[pos] - '0');
      ++pos;
      ++frac_digits;
    }
  }
  if (pos != text.size() || (whole_digits == 0 && frac_digits == 0)) {
    return Status::ParseError("malformed decimal literal: " + std::string(text));
  }
  while (frac_digits < 4) {
    frac *= 10;
    ++frac_digits;
  }
  int64_t scaled = whole * kDecimalScale + frac;
  if (negative) scaled = -scaled;
  return Value::DecimalScaled(scaled);
}

Result<Value> Value::DateFromString(std::string_view text) {
  int year = 0, month = 0, day = 0;
  // Expect exactly YYYY-MM-DD (4-2-2 digits).
  if (text.size() != 10 || text[4] != '-' || text[7] != '-') {
    return Status::ParseError("malformed date literal (want YYYY-MM-DD): " +
                              std::string(text));
  }
  auto parse_int = [&](size_t from, size_t len, int* out) {
    const char* begin = text.data() + from;
    auto [ptr, ec] = std::from_chars(begin, begin + len, *out);
    return ec == std::errc() && ptr == begin + len;
  };
  if (!parse_int(0, 4, &year) || !parse_int(5, 2, &month) ||
      !parse_int(8, 2, &day)) {
    return Status::ParseError("malformed date literal (want YYYY-MM-DD): " +
                              std::string(text));
  }
  return DateFromCivil(year, month, day);
}

Result<Value> Value::DateFromCivil(int year, int month, int day) {
  if (month < 1 || month > 12 || day < 1 || day > 31) {
    return Status::InvalidArgument("invalid civil date");
  }
  int64_t days = DaysFromCivil(year, month, day);
  // Round-trip to reject e.g. Feb 30.
  int y2, m2, d2;
  CivilFromDays(days, &y2, &m2, &d2);
  if (y2 != year || m2 != month || d2 != day) {
    return Status::InvalidArgument("invalid civil date");
  }
  return Value::Date(static_cast<int32_t>(days));
}

void Value::AllocateHeap(std::string_view v) {
  const uint64_t size = v.size();
  auto* block =
      static_cast<unsigned char*>(::operator new(sizeof(size) + v.size()));
  std::memcpy(block, &size, sizeof(size));
  std::memcpy(block + sizeof(size), v.data(), v.size());
  std::memcpy(bytes_, &block, sizeof(block));
  bytes_[kTagByte] = kHeapTag;
}

double Value::AsReal() const {
  switch (kind()) {
    case TypeKind::kInt:
      return static_cast<double>(int_value());
    case TypeKind::kDecimal:
      return static_cast<double>(decimal_scaled()) / kDecimalScale;
    case TypeKind::kReal:
      return real_value();
    default:
      MRA_CHECK(false) << "AsReal on non-numeric value" << ToString();
      return 0.0;
  }
}

bool Value::Equals(const Value& other) const {
  MRA_CHECK(kind() == other.kind())
      << "Value::Equals across domains:" << ToString() << "vs"
      << other.ToString();
  if (kind() == TypeKind::kReal) {
    // Agrees with Compare and Hash: -0.0 = 0.0 (IEEE says so) and
    // NaN = NaN (IEEE says not).
    double a = real_value(), b = other.real_value();
    return a == b || (std::isnan(a) && std::isnan(b));
  }
  // Two long strings compare their blocks; otherwise each value has one
  // image, and a long string never equals a short one.
  if (is_heap() && other.is_heap()) {
    return StringBytes() == other.StringBytes();
  }
  return std::memcmp(bytes_, other.bytes_, kSize) == 0;
}

int Value::Compare(const Value& other) const {
  MRA_CHECK(kind() == other.kind())
      << "Value::Compare across domains:" << ToString() << "vs"
      << other.ToString();
  switch (kind()) {
    case TypeKind::kReal: {
      double a = real_value(), b = other.real_value();
      if (a < b) return -1;
      if (a > b) return 1;
      if (a == b) return 0;  // -0.0 ties with 0.0.
      // Unordered, so at least one is NaN.  A strict weak order needs NaN
      // somewhere: it sorts after every number and ties with NaN.
      return std::isnan(a) == std::isnan(b) ? 0 : (std::isnan(a) ? 1 : -1);
    }
    case TypeKind::kString: {
      int c = StringBytes().compare(other.StringBytes());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default: {
      int64_t a = static_cast<int64_t>(word());
      int64_t b = static_cast<int64_t>(other.word());
      return a < b ? -1 : (a > b ? 1 : 0);
    }
  }
}

size_t Value::Hash() const {
  size_t h = Mix64(static_cast<uint64_t>(kind()));
  switch (kind()) {
    case TypeKind::kReal: {
      double v = real_value();
      // Normalise -0.0 and every NaN payload so equal reals hash equally.
      if (v == 0.0) v = 0.0;
      if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
      return HashCombine(h, Mix64(std::bit_cast<uint64_t>(v)));
    }
    case TypeKind::kString:
      return HashCombine(h, std::hash<std::string_view>{}(StringBytes()));
    default:
      return HashCombine(h, Mix64(word()));
  }
}

std::string Value::ToString() const {
  switch (kind()) {
    case TypeKind::kBool:
      return bool_value() ? "true" : "false";
    case TypeKind::kInt:
      return std::to_string(int_value());
    case TypeKind::kDecimal:
      return FormatDecimalScaled(decimal_scaled());
    case TypeKind::kReal:
      return FormatReal(real_value());
    case TypeKind::kString:
      return "'" + string_value() + "'";
    case TypeKind::kDate: {
      int y, m, d;
      CivilFromDays(date_days(), &y, &m, &d);
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
      return buf;
    }
  }
  return "?";
}

// Howard Hinnant's days_from_civil / civil_from_days (public domain
// algorithms), specialised to int64.
int64_t Value::DaysFromCivil(int year, int month, int day) {
  int64_t y = year;
  y -= month <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);          // [0,399]
  const unsigned doy =
      (153u * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1;      // [0,365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;         // [0,146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void Value::CivilFromDays(int64_t days, int* year, int* month, int* day) {
  days += 719468;
  const int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(days - era * 146097);    // [0,146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;          // [0,399]
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);       // [0,365]
  const unsigned mp = (5 * doy + 2) / 153;                            // [0,11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;                    // [1,31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                         // [1,12]
  *year = static_cast<int>(y + (m <= 2));
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

}  // namespace mra
