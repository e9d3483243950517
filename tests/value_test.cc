// Tests for the atomic value domains (Definition 2.1).

#include "mra/core/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "mra/common/hash.h"
#include "test_util.h"

namespace mra {
namespace {

TEST(TypeTest, NamesRoundTrip) {
  for (Type t : {Type::Bool(), Type::Int(), Type::Decimal(), Type::Real(),
                 Type::String(), Type::Date()}) {
    auto parsed = Type::FromName(t.name());
    ASSERT_OK(parsed);
    EXPECT_EQ(*parsed, t);
  }
}

TEST(TypeTest, FromNameRejectsUnknown) {
  EXPECT_EQ(Type::FromName("float").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Type::FromName("INT").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TypeTest, NumericClassification) {
  EXPECT_TRUE(Type::Int().IsNumeric());
  EXPECT_TRUE(Type::Real().IsNumeric());
  EXPECT_TRUE(Type::Decimal().IsNumeric());
  EXPECT_FALSE(Type::Bool().IsNumeric());
  EXPECT_FALSE(Type::String().IsNumeric());
  EXPECT_FALSE(Type::Date().IsNumeric());
}

TEST(TypeTest, CommonNumericPromotion) {
  EXPECT_EQ(Type::CommonNumeric(Type::Int(), Type::Int()), Type::Int());
  EXPECT_EQ(Type::CommonNumeric(Type::Int(), Type::Decimal()),
            Type::Decimal());
  EXPECT_EQ(Type::CommonNumeric(Type::Decimal(), Type::Real()), Type::Real());
  EXPECT_EQ(Type::CommonNumeric(Type::Real(), Type::Int()), Type::Real());
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Int(-7).int_value(), -7);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).real_value(), 2.5);
  EXPECT_EQ(Value::Str("abc").string_value(), "abc");
  EXPECT_EQ(Value::Date(100).date_days(), 100);
  EXPECT_EQ(Value::Decimal(12).decimal_scaled(), 120000);
  EXPECT_EQ(Value::DecimalScaled(123456).decimal_scaled(), 123456);
}

TEST(ValueTest, EqualitySameKind) {
  EXPECT_TRUE(Value::Int(3).Equals(Value::Int(3)));
  EXPECT_FALSE(Value::Int(3).Equals(Value::Int(4)));
  EXPECT_TRUE(Value::Str("x").Equals(Value::Str("x")));
  EXPECT_FALSE(Value::Str("x").Equals(Value::Str("y")));
  EXPECT_TRUE(Value::Bool(false) == Value::Bool(false));
  EXPECT_TRUE(Value::Real(1.5) != Value::Real(1.6));
}

TEST(ValueTest, CompareOrdersWithinDomain) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Int(5).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_LT(Value::Str("abc").Compare(Value::Str("abd")), 0);
  EXPECT_LT(Value::Bool(false).Compare(Value::Bool(true)), 0);
  EXPECT_LT(Value::Real(-1.0).Compare(Value::Real(0.0)), 0);
  EXPECT_LT(Value::Date(10).Compare(Value::Date(11)), 0);
  EXPECT_LT(Value::DecimalScaled(100).Compare(Value::DecimalScaled(200)), 0);
}

TEST(ValueTest, HashEqualForEqualValues) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Int(42).Hash());
  EXPECT_EQ(Value::Str("beer").Hash(), Value::Str("beer").Hash());
  EXPECT_EQ(Value::Real(0.0).Hash(), Value::Real(-0.0).Hash());
}

TEST(ValueTest, HashDistinguishesKinds) {
  // int 1 and bool true share representation; kinds must separate them.
  EXPECT_NE(Value::Int(1).Hash(), Value::Bool(true).Hash());
  EXPECT_NE(Value::Int(5).Hash(), Value::Date(5).Hash());
}

TEST(ValueTest, AsRealWidensNumerics) {
  EXPECT_DOUBLE_EQ(Value::Int(3).AsReal(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Real(2.25).AsReal(), 2.25);
  EXPECT_DOUBLE_EQ(Value::DecimalScaled(123400).AsReal(), 12.34);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Int(-12).ToString(), "-12");
  EXPECT_EQ(Value::Real(3.5).ToString(), "3.5");
  EXPECT_EQ(Value::Real(4.0).ToString(), "4.0");
  EXPECT_EQ(Value::Str("ale").ToString(), "'ale'");
}

TEST(DecimalTest, ParsePlain) {
  auto v = Value::DecimalFromString("12.34");
  ASSERT_OK(v);
  EXPECT_EQ(v->decimal_scaled(), 123400);
  EXPECT_EQ(v->ToString(), "12.34");
}

TEST(DecimalTest, ParseWholeAndFractionOnly) {
  EXPECT_EQ(Value::DecimalFromString("7")->decimal_scaled(), 70000);
  EXPECT_EQ(Value::DecimalFromString("0.5")->decimal_scaled(), 5000);
  EXPECT_EQ(Value::DecimalFromString(".25")->decimal_scaled(), 2500);
}

TEST(DecimalTest, ParseNegative) {
  EXPECT_EQ(Value::DecimalFromString("-3.1")->decimal_scaled(), -31000);
  EXPECT_EQ(Value::DecimalFromString("-3.1")->ToString(), "-3.1");
}

TEST(DecimalTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Value::DecimalFromString("").ok());
  EXPECT_FALSE(Value::DecimalFromString("abc").ok());
  EXPECT_FALSE(Value::DecimalFromString("1.23456").ok());  // > 4 digits
  EXPECT_FALSE(Value::DecimalFromString("1.2.3").ok());
  EXPECT_FALSE(Value::DecimalFromString("-").ok());
}

TEST(DecimalTest, ToStringTrimsTrailingZeros) {
  EXPECT_EQ(Value::DecimalScaled(50000).ToString(), "5");
  EXPECT_EQ(Value::DecimalScaled(51000).ToString(), "5.1");
  EXPECT_EQ(Value::DecimalScaled(50100).ToString(), "5.01");
  EXPECT_EQ(Value::DecimalScaled(1).ToString(), "0.0001");
}

TEST(DateTest, EpochIsDayZero) {
  EXPECT_EQ(Value::DaysFromCivil(1970, 1, 1), 0);
  int y, m, d;
  Value::CivilFromDays(0, &y, &m, &d);
  EXPECT_EQ(y, 1970);
  EXPECT_EQ(m, 1);
  EXPECT_EQ(d, 1);
}

TEST(DateTest, KnownDates) {
  // The paper appeared at ICDE, February 1994.
  EXPECT_EQ(Value::DaysFromCivil(1994, 2, 14), 8810);
  EXPECT_EQ(Value::DaysFromCivil(2000, 3, 1), 11017);
  EXPECT_EQ(Value::DaysFromCivil(1969, 12, 31), -1);
}

TEST(DateTest, CivilRoundTripAcrossLeapYears) {
  for (int64_t days = -1000; days <= 25000; days += 13) {
    int y, m, d;
    Value::CivilFromDays(days, &y, &m, &d);
    EXPECT_EQ(Value::DaysFromCivil(y, m, d), days);
  }
}

TEST(DateTest, ParseAndPrint) {
  auto v = Value::DateFromString("1994-02-14");
  ASSERT_OK(v);
  EXPECT_EQ(v->date_days(), 8810);
  EXPECT_EQ(v->ToString(), "1994-02-14");
}

TEST(DateTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Value::DateFromString("1994/02/14").ok());
  EXPECT_FALSE(Value::DateFromString("94-02-14").ok());
  EXPECT_FALSE(Value::DateFromString("1994-13-01").ok());
  EXPECT_FALSE(Value::DateFromString("1994-02-30").ok());
  EXPECT_FALSE(Value::DateFromString("").ok());
}

TEST(DateTest, LeapDayValidation) {
  EXPECT_OK(Value::DateFromCivil(2000, 2, 29));  // 400-year leap
  EXPECT_FALSE(Value::DateFromCivil(1900, 2, 29).ok());  // century non-leap
  EXPECT_FALSE(Value::DateFromCivil(1994, 2, 29).ok());
}

TEST(StatusTest, CodesAndMessages) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status err = Status::TypeError("bad domain");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kTypeError);
  EXPECT_EQ(err.ToString(), "TypeError: bad domain");
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  Result<int> bad = Status::NotFound("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(good.value_or(-1), 42);
}

// The message outgrows the small-string buffer, so reading it through a
// Result temporary that has already been destroyed is a heap
// use-after-free that the sanitize build reports.
Result<int> FailsWithLongMessage() {
  return Status::NotFound("no relation named lineitem_archive in the catalog");
}

Status ForwardsTheStatusOfATemporary() {
  MRA_RETURN_IF_ERROR(FailsWithLongMessage().status());
  return Status::OK();
}

TEST(ResultTest, StatusOfATemporaryOutlivesIt) {
  static_assert(
      std::is_same_v<decltype(std::declval<Result<int>>().status()), Status>);
  static_assert(std::is_same_v<decltype(std::declval<Result<int>&>().status()),
                               const Status&>);
  Status s = ForwardsTheStatusOfATemporary();
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no relation named lineitem_archive in the catalog");
}

TEST(ValueTest, RealCompareIsAStrictWeakOrder) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Ascending canonical classes: -inf < -1 < {-0.0, 0.0} < 2 < inf < NaN.
  const std::vector<std::vector<double>> classes = {
      {-inf}, {-1.0}, {-0.0, 0.0}, {2.0}, {inf}, {nan, -nan}};
  for (size_t i = 0; i < classes.size(); ++i) {
    for (size_t j = 0; j < classes.size(); ++j) {
      for (double a : classes[i]) {
        for (double b : classes[j]) {
          const int want = i < j ? -1 : (i > j ? 1 : 0);
          EXPECT_EQ(Value::Real(a).Compare(Value::Real(b)), want)
              << a << " vs " << b;
          EXPECT_EQ(Value::Real(a).Equals(Value::Real(b)), want == 0)
              << a << " vs " << b;
          if (want == 0) {
            EXPECT_EQ(Value::Real(a).Hash(), Value::Real(b).Hash())
                << a << " vs " << b;
          }
        }
      }
    }
  }
  // std::sort over NaN-bearing input is well defined and puts NaN last.
  std::vector<Value> values;
  for (double v : {nan, 3.0, -inf, nan, 0.0, inf, -0.0}) {
    values.push_back(Value::Real(v));
  }
  std::sort(values.begin(), values.end(),
            [](const Value& a, const Value& b) { return a.Less(b); });
  EXPECT_EQ(values.front().real_value(), -inf);
  EXPECT_EQ(values[4].real_value(), inf);
  EXPECT_TRUE(std::isnan(values[5].real_value()));
  EXPECT_TRUE(std::isnan(values[6].real_value()));
}

// --- The 16-byte layout: short strings inline, long ones in a block. ----

// A string of `n` bytes with an embedded NUL (from 3 bytes on), so no
// path can stop at a terminator.
std::string StringOf(size_t n, char fill = 's') {
  std::string s(n, fill);
  if (n >= 3) s[n / 2] = '\0';
  return s;
}

TEST(ValueLayoutTest, SixteenBytesWithNoThrowMoves) {
  static_assert(sizeof(Value) == 16);
  static_assert(std::is_nothrow_move_constructible_v<Value>);
  static_assert(std::is_nothrow_move_assignable_v<Value>);
  EXPECT_EQ(Value::kInlineStringMax, 14u);
  EXPECT_EQ(Value().int_value(), 0);
}

TEST(ValueLayoutTest, StringsOnBothSidesOfTheInlineLimitSurviveCopies) {
  for (size_t n : {0, 1, 13, 14, 15, 16, 100}) {
    SCOPED_TRACE(n);
    const std::string s = StringOf(n);
    Value v = Value::Str(s);
    EXPECT_EQ(v.kind(), TypeKind::kString);
    EXPECT_EQ(v.string_view(), s);
    EXPECT_EQ(v.string_value(), s);
    EXPECT_EQ(v.heap_bytes() > 0, n > Value::kInlineStringMax);

    Value copy(v);
    EXPECT_EQ(copy.string_view(), s);
    EXPECT_TRUE(copy.Equals(v));
    EXPECT_EQ(copy.Hash(), v.Hash());
    if (n > Value::kInlineStringMax) {
      EXPECT_NE(copy.string_view().data(), v.string_view().data())
          << "a copy shares the original's block";
    }

    // Copy-assignment over every shape of target, including itself.
    for (Value target : {Value::Int(7), Value::Str("short"),
                         Value::Str(StringOf(40, 't'))}) {
      target = v;
      EXPECT_EQ(target.string_view(), s);
      const Value& alias = target;
      target = alias;
      EXPECT_EQ(target.string_view(), s);
    }

    // Moves, and a self-move through an alias, keep the bytes.
    Value moved(std::move(copy));
    EXPECT_EQ(moved.string_view(), s);
    Value& alias = moved;
    moved = std::move(alias);
    EXPECT_EQ(moved.string_view(), s);
    Value over_long = Value::Str(StringOf(40, 'u'));
    over_long = std::move(moved);
    EXPECT_EQ(over_long.string_view(), s);

    // A moved-from value is a valid string: it reads, compares, copies and
    // takes a new value.
    for (Value* from : {&copy, &moved}) {
      EXPECT_EQ(from->kind(), TypeKind::kString);
      const std::string_view left = from->string_view();
      EXPECT_TRUE(left.empty() || left == s);
      Value again(*from);
      EXPECT_TRUE(again.Equals(*from));
      *from = Value::Str(StringOf(20, 'w'));
      EXPECT_EQ(from->string_view(), StringOf(20, 'w'));
    }
  }
}

TEST(ValueLayoutTest, StringCompareIsBytewiseAcrossInlineAndHeap) {
  const std::string p14 = "abcdefghijklmn";  // Inline: 14 bytes.
  ASSERT_EQ(p14.size(), Value::kInlineStringMax);
  const Value inline14 = Value::Str(p14);
  const Value heap15 = Value::Str(p14 + "a");
  const Value heap_nul = Value::Str(p14 + std::string(1, '\0'));
  // A proper prefix sorts first, an embedded NUL included.
  EXPECT_EQ(inline14.Compare(heap15), -1);
  EXPECT_EQ(heap15.Compare(inline14), 1);
  EXPECT_EQ(inline14.Compare(heap_nul), -1);
  EXPECT_FALSE(inline14.Equals(heap_nul));
  // A differing byte inside the shared length decides, as unsigned bytes.
  const Value inline_high = Value::Str("abcdefghijklm\xff");
  EXPECT_EQ(inline_high.Compare(heap15), 1);
  EXPECT_EQ(Value::Str("abc\x7f").Compare(Value::Str("abc\x80")), -1);
  EXPECT_EQ(Value::Str(std::string(20, '\x80'))
                .Compare(Value::Str(std::string(20, '\x7f'))),
            1);
  // Inline strings of different lengths never tie, even when one is the
  // other plus a NUL.
  EXPECT_FALSE(Value::Str("ab").Equals(Value::Str(std::string("ab\0", 3))));
  EXPECT_EQ(Value::Str("ab").Compare(Value::Str(std::string("ab\0", 3))), -1);
  // Two long strings compare their bytes, not their blocks.
  EXPECT_TRUE(heap15.Equals(Value::Str(p14 + "a")));
  EXPECT_EQ(heap15.Compare(Value::Str(p14 + "b")), -1);
}

TEST(ValueLayoutTest, HashKeepsTheFormulaOfEveryDomain) {
  const auto seed = [](TypeKind k) { return Mix64(static_cast<uint64_t>(k)); };
  for (size_t n : {0, 1, 14, 15, 100}) {
    const std::string s = StringOf(n);
    EXPECT_EQ(Value::Str(s).Hash(),
              HashCombine(seed(TypeKind::kString), std::hash<std::string>{}(s)))
        << n;
  }
  const int64_t min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(Value::Int(min).Hash(),
            HashCombine(seed(TypeKind::kInt), Mix64(static_cast<uint64_t>(min))));
  EXPECT_EQ(Value::Date(-1).Hash(),
            HashCombine(seed(TypeKind::kDate), Mix64(~uint64_t{0})));
  EXPECT_EQ(Value::Bool(true).Hash(),
            HashCombine(seed(TypeKind::kBool), Mix64(1)));
  EXPECT_EQ(Value::DecimalScaled(-5).Hash(),
            HashCombine(seed(TypeKind::kDecimal),
                        Mix64(static_cast<uint64_t>(int64_t{-5}))));
  EXPECT_EQ(Value::Real(-0.0).Hash(), Value::Real(0.0).Hash());
}

TEST(ValueLayoutTest, PayloadsRoundTripAtTheirEdges) {
  const int64_t min = std::numeric_limits<int64_t>::min();
  const int64_t max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(Value::Int(min).int_value(), min);
  EXPECT_EQ(Value::Int(max).int_value(), max);
  EXPECT_EQ(Value::DecimalScaled(min).decimal_scaled(), min);
  EXPECT_EQ(Value::Date(std::numeric_limits<int32_t>::min()).date_days(),
            std::numeric_limits<int32_t>::min());
  EXPECT_EQ(Value::Date(-719162).ToString(), "0001-01-01");
  EXPECT_TRUE(std::signbit(Value::Real(-0.0).real_value()));
  EXPECT_TRUE(std::isnan(
      Value::Real(std::numeric_limits<double>::quiet_NaN()).real_value()));
  EXPECT_FALSE(Value::Bool(false).bool_value());
  EXPECT_EQ(Value::Int(min).Compare(Value::Int(max)), -1);
  EXPECT_EQ(Value::Date(-1).Compare(Value::Date(0)), -1);
  EXPECT_EQ(Value::Str(StringOf(15)).ToString(), "'" + StringOf(15) + "'");
}

}  // namespace
}  // namespace mra
