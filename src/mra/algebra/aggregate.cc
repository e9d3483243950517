#include "mra/algebra/aggregate.h"

namespace mra {

std::string_view AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCnt:
      return "cnt";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "?";
}

Result<AggKind> AggKindFromName(std::string_view name) {
  if (name == "cnt" || name == "count") return AggKind::kCnt;
  if (name == "sum") return AggKind::kSum;
  if (name == "avg") return AggKind::kAvg;
  if (name == "min") return AggKind::kMin;
  if (name == "max") return AggKind::kMax;
  return Status::InvalidArgument("unknown aggregate function: " +
                                 std::string(name));
}

Result<Type> AggResultType(AggKind kind, Type attr_type) {
  switch (kind) {
    case AggKind::kCnt:
      return Type::Int();
    case AggKind::kSum:
      if (!attr_type.IsNumeric()) {
        return Status::TypeError("SUM requires a numeric attribute, got " +
                                 attr_type.ToString());
      }
      return attr_type;
    case AggKind::kAvg:
      if (!attr_type.IsNumeric()) {
        return Status::TypeError("AVG requires a numeric attribute, got " +
                                 attr_type.ToString());
      }
      return attr_type.kind() == TypeKind::kDecimal ? Type::Decimal()
                                                    : Type::Real();
    case AggKind::kMin:
    case AggKind::kMax:
      // Every type is totally ordered, so MIN and MAX take any attribute.
      return attr_type;
  }
  return Status::Internal("bad aggregate kind");
}

AggAccumulator::AggAccumulator(AggKind kind, Type attr_type)
    : kind_(kind), attr_type_(attr_type) {}

void AggAccumulator::Add(const Value& v, uint64_t count) {
  if (count == 0) return;
  count_ += count;
  switch (kind_) {
    case AggKind::kCnt:
      return;
    case AggKind::kSum:
    case AggKind::kAvg:
      switch (v.kind()) {
        case TypeKind::kInt:
          sum_int_ += v.int_value() * static_cast<int64_t>(count);
          return;
        case TypeKind::kDecimal:
          sum_int_ += v.decimal_scaled() * static_cast<int64_t>(count);
          return;
        case TypeKind::kReal:
          sum_real_ += v.real_value() * static_cast<double>(count);
          return;
        default:
          MRA_CHECK(false) << "SUM/AVG over non-numeric value" << v.ToString();
      }
      return;
    case AggKind::kMin:
      if (!has_extreme_ || v.Compare(extreme_) < 0) {
        extreme_ = v;
        has_extreme_ = true;
      }
      return;
    case AggKind::kMax:
      if (!has_extreme_ || v.Compare(extreme_) > 0) {
        extreme_ = v;
        has_extreme_ = true;
      }
      return;
  }
}

void AggAccumulator::Merge(const AggAccumulator& other) {
  MRA_CHECK(kind_ == other.kind_ && attr_type_ == other.attr_type_)
      << "merging incompatible accumulators";
  count_ += other.count_;
  sum_int_ += other.sum_int_;
  sum_real_ += other.sum_real_;
  if (other.has_extreme_) {
    if (!has_extreme_ ||
        (kind_ == AggKind::kMin && other.extreme_.Compare(extreme_) < 0) ||
        (kind_ == AggKind::kMax && other.extreme_.Compare(extreme_) > 0)) {
      extreme_ = other.extreme_;
      has_extreme_ = true;
    }
  }
}

Result<Value> AggAccumulator::Finish() const {
  switch (kind_) {
    case AggKind::kCnt:
      return Value::Int(static_cast<int64_t>(count_));
    case AggKind::kSum:
      switch (attr_type_.kind()) {
        case TypeKind::kInt:
          return Value::Int(sum_int_);
        case TypeKind::kDecimal:
          return Value::DecimalScaled(sum_int_);
        case TypeKind::kReal:
          return Value::Real(sum_real_);
        default:
          return Status::TypeError("SUM over non-numeric attribute");
      }
    case AggKind::kAvg: {
      if (count_ == 0) {
        return Status::Undefined(
            "AVG is a partial function: undefined on an empty multi-set");
      }
      switch (attr_type_.kind()) {
        case TypeKind::kInt:
          return Value::Real(static_cast<double>(sum_int_) /
                             static_cast<double>(count_));
        case TypeKind::kDecimal: {
          __int128 q = static_cast<__int128>(sum_int_) /
                       static_cast<int64_t>(count_);
          return Value::DecimalScaled(static_cast<int64_t>(q));
        }
        case TypeKind::kReal:
          return Value::Real(sum_real_ / static_cast<double>(count_));
        default:
          return Status::TypeError("AVG over non-numeric attribute");
      }
    }
    case AggKind::kMin:
    case AggKind::kMax:
      if (!has_extreme_) {
        return Status::Undefined(
            std::string(AggKindName(kind_)) +
            " is a partial function: undefined on an empty multi-set");
      }
      return extreme_;
  }
  return Status::Internal("bad aggregate kind");
}

Result<Value> Aggregate(AggKind kind, size_t attr, const Relation& input) {
  if (attr >= input.schema().arity()) {
    return Status::InvalidArgument(
        "aggregate attribute %" + std::to_string(attr + 1) +
        " out of range for " + input.schema().ToString());
  }
  // Validate the attribute domain against the aggregate's requirements.
  MRA_RETURN_IF_ERROR(AggResultType(kind, input.schema().TypeOf(attr)));
  AggAccumulator acc(kind, input.schema().TypeOf(attr));
  for (const auto& [tuple, count] : input) {
    acc.Add(tuple.at(attr), count);
  }
  return acc.Finish();
}

}  // namespace mra
