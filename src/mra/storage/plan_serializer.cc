#include "mra/storage/plan_serializer.h"

namespace mra {
namespace storage {

namespace {

// Guards recursive decoding against adversarial deeply nested input.
constexpr int kMaxDepth = 512;

Result<ExprPtr> DecodeExprAtDepth(Decoder* decoder, int depth);
Result<PlanPtr> DecodePlanAtDepth(Decoder* decoder, int depth);

}  // namespace

void EncodeExpr(Encoder* encoder, const ScalarExpr& expr) {
  encoder->PutU8(static_cast<uint8_t>(expr.kind()));
  switch (expr.kind()) {
    case ExprKind::kAttrRef:
      encoder->PutU64(static_cast<const AttrRefExpr&>(expr).index());
      return;
    case ExprKind::kLiteral:
      encoder->PutValue(static_cast<const LiteralExpr&>(expr).value());
      return;
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      encoder->PutU8(static_cast<uint8_t>(u.op()));
      EncodeExpr(encoder, *u.operand());
      return;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      encoder->PutU8(static_cast<uint8_t>(b.op()));
      EncodeExpr(encoder, *b.lhs());
      EncodeExpr(encoder, *b.rhs());
      return;
    }
  }
}

namespace {

Result<ExprPtr> DecodeExprAtDepth(Decoder* decoder, int depth) {
  if (depth > kMaxDepth) {
    return Status::Corruption("expression nesting too deep");
  }
  MRA_ASSIGN_OR_RETURN(uint8_t kind, decoder->GetU8());
  switch (static_cast<ExprKind>(kind)) {
    case ExprKind::kAttrRef: {
      MRA_ASSIGN_OR_RETURN(uint64_t index, decoder->GetU64());
      return Attr(static_cast<size_t>(index));
    }
    case ExprKind::kLiteral: {
      MRA_ASSIGN_OR_RETURN(Value v, decoder->GetValue());
      return Lit(std::move(v));
    }
    case ExprKind::kUnary: {
      MRA_ASSIGN_OR_RETURN(uint8_t op, decoder->GetU8());
      if (op > static_cast<uint8_t>(UnaryOp::kNot)) {
        return Status::Corruption("bad unary op tag");
      }
      MRA_ASSIGN_OR_RETURN(ExprPtr operand,
                           DecodeExprAtDepth(decoder, depth + 1));
      return ExprPtr(std::make_shared<UnaryExpr>(static_cast<UnaryOp>(op),
                                                 std::move(operand)));
    }
    case ExprKind::kBinary: {
      MRA_ASSIGN_OR_RETURN(uint8_t op, decoder->GetU8());
      if (op > static_cast<uint8_t>(BinaryOp::kOr)) {
        return Status::Corruption("bad binary op tag");
      }
      MRA_ASSIGN_OR_RETURN(ExprPtr lhs, DecodeExprAtDepth(decoder, depth + 1));
      MRA_ASSIGN_OR_RETURN(ExprPtr rhs, DecodeExprAtDepth(decoder, depth + 1));
      return ExprPtr(std::make_shared<BinaryExpr>(static_cast<BinaryOp>(op),
                                                  std::move(lhs),
                                                  std::move(rhs)));
    }
  }
  return Status::Corruption("bad expression kind tag");
}

}  // namespace

Result<ExprPtr> DecodeExpr(Decoder* decoder) {
  return DecodeExprAtDepth(decoder, 0);
}

void EncodePlan(Encoder* encoder, const Plan& plan) {
  encoder->PutU8(static_cast<uint8_t>(plan.kind()));
  switch (plan.kind()) {
    case PlanKind::kScan:
      encoder->PutString(plan.relation_name());
      encoder->PutSchema(plan.schema());
      return;
    case PlanKind::kConstRel:
      encoder->PutRelation(plan.const_relation());
      return;
    case PlanKind::kSelect:
    case PlanKind::kJoin:
      EncodeExpr(encoder, *plan.condition());
      break;
    case PlanKind::kProject: {
      const auto& exprs = plan.projections();
      encoder->PutU32(static_cast<uint32_t>(exprs.size()));
      for (const ExprPtr& e : exprs) EncodeExpr(encoder, *e);
      for (const Attribute& a : plan.schema().attributes()) {
        encoder->PutString(a.name);
      }
      break;
    }
    case PlanKind::kGroupBy: {
      const auto& keys = plan.group_keys();
      encoder->PutU32(static_cast<uint32_t>(keys.size()));
      for (size_t k : keys) encoder->PutU64(k);
      const auto& aggs = plan.aggregates();
      encoder->PutU32(static_cast<uint32_t>(aggs.size()));
      for (size_t i = 0; i < aggs.size(); ++i) {
        encoder->PutU8(static_cast<uint8_t>(aggs[i].kind));
        encoder->PutU64(aggs[i].attr);
        encoder->PutString(
            plan.schema().attribute(keys.size() + i).name);
      }
      break;
    }
    case PlanKind::kSort: {
      const auto& keys = plan.sort_keys();
      encoder->PutU32(static_cast<uint32_t>(keys.size()));
      for (size_t i = 0; i < keys.size(); ++i) {
        encoder->PutU64(keys[i]);
        encoder->PutU8(plan.sort_desc()[i] ? 1 : 0);
      }
      encoder->PutU64(plan.sort_limit());
      break;
    }
    default:
      break;  // kUnion/kDifference/kIntersect/kProduct/kUnique/kClosure:
              // children only.
  }
  for (const PlanPtr& child : plan.children()) {
    EncodePlan(encoder, *child);
  }
}

namespace {

Result<PlanPtr> DecodePlanAtDepth(Decoder* decoder, int depth) {
  if (depth > kMaxDepth) return Status::Corruption("plan nesting too deep");
  MRA_ASSIGN_OR_RETURN(uint8_t raw_kind, decoder->GetU8());
  if (raw_kind > static_cast<uint8_t>(PlanKind::kSort)) {
    return Status::Corruption("bad plan kind tag");
  }
  PlanKind kind = static_cast<PlanKind>(raw_kind);
  auto child = [decoder, depth] { return DecodePlanAtDepth(decoder, depth + 1); };
  switch (kind) {
    case PlanKind::kScan: {
      MRA_ASSIGN_OR_RETURN(std::string name, decoder->GetString());
      MRA_ASSIGN_OR_RETURN(RelationSchema schema, decoder->GetSchema());
      return Plan::Scan(std::move(name), std::move(schema));
    }
    case PlanKind::kConstRel: {
      MRA_ASSIGN_OR_RETURN(Relation rel, decoder->GetRelation());
      return Plan::ConstRel(std::move(rel));
    }
    case PlanKind::kUnion: {
      MRA_ASSIGN_OR_RETURN(PlanPtr l, child());
      MRA_ASSIGN_OR_RETURN(PlanPtr r, child());
      return Plan::Union(std::move(l), std::move(r));
    }
    case PlanKind::kDifference: {
      MRA_ASSIGN_OR_RETURN(PlanPtr l, child());
      MRA_ASSIGN_OR_RETURN(PlanPtr r, child());
      return Plan::Difference(std::move(l), std::move(r));
    }
    case PlanKind::kIntersect: {
      MRA_ASSIGN_OR_RETURN(PlanPtr l, child());
      MRA_ASSIGN_OR_RETURN(PlanPtr r, child());
      return Plan::Intersect(std::move(l), std::move(r));
    }
    case PlanKind::kProduct: {
      MRA_ASSIGN_OR_RETURN(PlanPtr l, child());
      MRA_ASSIGN_OR_RETURN(PlanPtr r, child());
      return Plan::Product(std::move(l), std::move(r));
    }
    case PlanKind::kJoin: {
      MRA_ASSIGN_OR_RETURN(ExprPtr condition, DecodeExpr(decoder));
      MRA_ASSIGN_OR_RETURN(PlanPtr l, child());
      MRA_ASSIGN_OR_RETURN(PlanPtr r, child());
      return Plan::Join(std::move(condition), std::move(l), std::move(r));
    }
    case PlanKind::kSelect: {
      MRA_ASSIGN_OR_RETURN(ExprPtr condition, DecodeExpr(decoder));
      MRA_ASSIGN_OR_RETURN(PlanPtr input, child());
      return Plan::Select(std::move(condition), std::move(input));
    }
    case PlanKind::kProject: {
      // Each projection costs at least a one-byte expression tag and a
      // four-byte name length.
      MRA_ASSIGN_OR_RETURN(uint32_t n, decoder->GetCount(5));
      std::vector<ExprPtr> exprs;
      exprs.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        MRA_ASSIGN_OR_RETURN(ExprPtr e, DecodeExpr(decoder));
        exprs.push_back(std::move(e));
      }
      std::vector<std::string> names;
      names.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        MRA_ASSIGN_OR_RETURN(std::string name, decoder->GetString());
        names.push_back(std::move(name));
      }
      MRA_ASSIGN_OR_RETURN(PlanPtr input, child());
      return Plan::Project(std::move(exprs), std::move(input),
                           std::move(names));
    }
    case PlanKind::kUnique: {
      MRA_ASSIGN_OR_RETURN(PlanPtr input, child());
      return Plan::Unique(std::move(input));
    }
    case PlanKind::kGroupBy: {
      MRA_ASSIGN_OR_RETURN(uint32_t nkeys, decoder->GetCount(8));
      std::vector<size_t> keys;
      keys.reserve(nkeys);
      for (uint32_t i = 0; i < nkeys; ++i) {
        MRA_ASSIGN_OR_RETURN(uint64_t k, decoder->GetU64());
        keys.push_back(static_cast<size_t>(k));
      }
      // Kind tag, attribute index and name length.
      MRA_ASSIGN_OR_RETURN(uint32_t naggs, decoder->GetCount(13));
      std::vector<AggSpec> aggs;
      aggs.reserve(naggs);
      for (uint32_t i = 0; i < naggs; ++i) {
        MRA_ASSIGN_OR_RETURN(uint8_t agg_kind, decoder->GetU8());
        if (agg_kind > static_cast<uint8_t>(AggKind::kMax)) {
          return Status::Corruption("bad aggregate kind tag");
        }
        MRA_ASSIGN_OR_RETURN(uint64_t attr, decoder->GetU64());
        MRA_ASSIGN_OR_RETURN(std::string name, decoder->GetString());
        aggs.push_back(AggSpec{static_cast<AggKind>(agg_kind),
                               static_cast<size_t>(attr), std::move(name)});
      }
      MRA_ASSIGN_OR_RETURN(PlanPtr input, child());
      return Plan::GroupBy(std::move(keys), std::move(aggs),
                           std::move(input));
    }
    case PlanKind::kClosure: {
      MRA_ASSIGN_OR_RETURN(PlanPtr input, child());
      return Plan::Closure(std::move(input));
    }
    case PlanKind::kSort: {
      MRA_ASSIGN_OR_RETURN(uint32_t nkeys, decoder->GetCount(9));
      std::vector<size_t> keys;
      std::vector<bool> desc;
      keys.reserve(nkeys);
      desc.reserve(nkeys);
      for (uint32_t i = 0; i < nkeys; ++i) {
        MRA_ASSIGN_OR_RETURN(uint64_t k, decoder->GetU64());
        MRA_ASSIGN_OR_RETURN(uint8_t d, decoder->GetU8());
        keys.push_back(static_cast<size_t>(k));
        desc.push_back(d != 0);
      }
      MRA_ASSIGN_OR_RETURN(uint64_t limit, decoder->GetU64());
      MRA_ASSIGN_OR_RETURN(PlanPtr input, child());
      return Plan::Sort(std::move(keys), std::move(desc), limit,
                        std::move(input));
    }
  }
  return Status::Corruption("bad plan kind tag");
}

}  // namespace

Result<PlanPtr> DecodePlan(Decoder* decoder) {
  return DecodePlanAtDepth(decoder, 0);
}

std::string EncodePlanToString(const Plan& plan) {
  Encoder encoder;
  EncodePlan(&encoder, plan);
  return encoder.TakeBuffer();
}

Result<PlanPtr> DecodePlanFromString(std::string_view data) {
  Decoder decoder(data);
  MRA_ASSIGN_OR_RETURN(PlanPtr plan, DecodePlan(&decoder));
  if (!decoder.AtEnd()) {
    return Status::Corruption("trailing bytes after encoded plan");
  }
  return plan;
}

}  // namespace storage
}  // namespace mra
