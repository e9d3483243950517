#include "mra/opt/stats.h"

#include <algorithm>
#include <cmath>

#include "mra/obs/metrics.h"

namespace mra {
namespace opt {

namespace {

bool IsRangeDomain(Type type) {
  return type.IsNumeric() || type.kind() == TypeKind::kDate;
}

double ValueAsDouble(const Value& v) {
  if (v.kind() == TypeKind::kDate) return static_cast<double>(v.date_days());
  return v.AsReal();
}

obs::Counter* EstimateCallsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("stats.estimate_calls");
  return c;
}

double ConjunctSelectivity(const ExprPtr& conjunct) {
  if (conjunct->kind() == ExprKind::kLiteral) {
    const Value& v = static_cast<const LiteralExpr&>(*conjunct).value();
    if (v.kind() == TypeKind::kBool) return v.bool_value() ? 1.0 : 0.0;
    return kDefaultSelectivity;
  }
  if (conjunct->kind() == ExprKind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(*conjunct);
    switch (b.op()) {
      case BinaryOp::kEq:
        return kEqSelectivity;
      case BinaryOp::kNe:
        return 1.0 - kEqSelectivity;
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe:
        return kRangeSelectivity;
      case BinaryOp::kOr: {
        double l = ConjunctSelectivity(b.lhs());
        double r = ConjunctSelectivity(b.rhs());
        return std::min(1.0, l + r - l * r);
      }
      default:
        return kDefaultSelectivity;
    }
  }
  if (conjunct->kind() == ExprKind::kUnary) {
    const auto& u = static_cast<const UnaryExpr&>(*conjunct);
    if (u.op() == UnaryOp::kNot) {
      return 1.0 - ConjunctSelectivity(u.operand());
    }
  }
  return kDefaultSelectivity;
}

// Matches `attr <op> literal` (either orientation); fills the attribute
// index, the comparison with the attribute on the LEFT, and the literal.
bool MatchAttrLiteral(const BinaryExpr& b, size_t* attr, BinaryOp* op,
                      Value* literal) {
  auto flipped = [](BinaryOp o) {
    switch (o) {
      case BinaryOp::kLt:
        return BinaryOp::kGt;
      case BinaryOp::kLe:
        return BinaryOp::kGe;
      case BinaryOp::kGt:
        return BinaryOp::kLt;
      case BinaryOp::kGe:
        return BinaryOp::kLe;
      default:
        return o;  // =, <> are symmetric
    }
  };
  if (b.lhs()->kind() == ExprKind::kAttrRef &&
      b.rhs()->kind() == ExprKind::kLiteral) {
    *attr = static_cast<const AttrRefExpr&>(*b.lhs()).index();
    *op = b.op();
    *literal = static_cast<const LiteralExpr&>(*b.rhs()).value();
    return true;
  }
  if (b.rhs()->kind() == ExprKind::kAttrRef &&
      b.lhs()->kind() == ExprKind::kLiteral) {
    *attr = static_cast<const AttrRefExpr&>(*b.rhs()).index();
    *op = flipped(b.op());
    *literal = static_cast<const LiteralExpr&>(*b.lhs()).value();
    return true;
  }
  return false;
}

// Selectivity of `column <op> literal` from one column's statistics.
// Comparisons with NULL hold for no tuple, so the non-null fraction scales
// every branch (always 1 under the current NULL-free domains).
double ColumnCompareSelectivity(const stats::ColumnStatistics& column,
                                BinaryOp op, const Value& literal) {
  double notnull = std::clamp(1.0 - column.null_fraction, 0.0, 1.0);
  bool numeric = IsRangeDomain(literal.type());
  double x = numeric ? ValueAsDouble(literal) : 0.0;
  switch (op) {
    case BinaryOp::kEq:
      if (numeric && !column.histogram.empty()) {
        return notnull * column.histogram.SelectivityEqual(x);
      }
      return notnull / std::max<double>(1.0, column.distinct);
    case BinaryOp::kNe:
      if (numeric && !column.histogram.empty()) {
        return notnull * (1.0 - column.histogram.SelectivityEqual(x));
      }
      return notnull * (1.0 - 1.0 / std::max<double>(1.0, column.distinct));
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (!numeric) return notnull * kRangeSelectivity;
      if (!column.histogram.empty()) {
        // ≤ and > need the boundary value's mass counted below; < and ≥
        // leave it above.
        bool inclusive = op == BinaryOp::kLe || op == BinaryOp::kGt;
        double less = column.histogram.SelectivityLess(x, inclusive);
        double s = (op == BinaryOp::kLt || op == BinaryOp::kLe)
                       ? less
                       : 1.0 - less;
        return notnull * std::clamp(s, 0.0, 1.0);
      }
      if (!column.has_range) return notnull * kRangeSelectivity;
      double width = column.max - column.min;
      if (width <= 0) return notnull * 0.5;
      double fraction = std::clamp((x - column.min) / width, 0.0, 1.0);
      return notnull * ((op == BinaryOp::kLt || op == BinaryOp::kLe)
                            ? fraction
                            : 1.0 - fraction);
    }
    default:
      return kDefaultSelectivity;
  }
}

double StatsConjunctSelectivity(const ExprPtr& conjunct,
                                const stats::TableStatistics& stats) {
  if (conjunct->kind() == ExprKind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(*conjunct);
    if (b.op() == BinaryOp::kOr) {
      double l = StatsConjunctSelectivity(b.lhs(), stats);
      double r = StatsConjunctSelectivity(b.rhs(), stats);
      return std::min(1.0, l + r - l * r);
    }
    size_t attr;
    BinaryOp op;
    Value literal;
    if (MatchAttrLiteral(b, &attr, &op, &literal) &&
        attr < stats.columns.size()) {
      switch (op) {
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return ColumnCompareSelectivity(stats.columns[attr], op, literal);
        default:
          break;
      }
    }
  }
  if (conjunct->kind() == ExprKind::kUnary) {
    const auto& u = static_cast<const UnaryExpr&>(*conjunct);
    if (u.op() == UnaryOp::kNot) {
      return 1.0 - StatsConjunctSelectivity(u.operand(), stats);
    }
  }
  return ConjunctSelectivity(conjunct);
}

// Recursive implementation; the public wrapper counts calls.
double Estimate(const Plan& plan, const RelationProvider& provider,
                StatsCache* cache);

// Selectivity of one conjunct over `input`'s tuples, resolving attribute
// references through the subtree to source-column statistics.
double DeepConjunctSelectivity(const ExprPtr& conjunct, const Plan& input,
                               StatsCache* cache) {
  if (cache != nullptr && conjunct->kind() == ExprKind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(*conjunct);
    size_t attr;
    BinaryOp op;
    Value literal;
    if (MatchAttrLiteral(b, &attr, &op, &literal)) {
      switch (op) {
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          const stats::ColumnStatistics* column =
              ResolveColumnStats(input, attr, cache);
          if (column != nullptr) {
            return ColumnCompareSelectivity(*column, op, literal);
          }
          break;
        }
        default:
          break;
      }
    }
  }
  if (conjunct->kind() == ExprKind::kUnary) {
    const auto& u = static_cast<const UnaryExpr&>(*conjunct);
    if (u.op() == UnaryOp::kNot) {
      return 1.0 - DeepConjunctSelectivity(u.operand(), input, cache);
    }
  }
  return ConjunctSelectivity(conjunct);
}

double EstimateJoin(const Plan& plan, const RelationProvider& provider,
                    StatsCache* cache) {
  double l = Estimate(*plan.child(0), provider, cache);
  double r = Estimate(*plan.child(1), provider, cache);
  if (l < 0 || r < 0) return kNoEstimate;
  size_t la = plan.child(0)->schema().arity();
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(plan.condition(), &conjuncts);
  double out = l * r;
  for (const ExprPtr& c : conjuncts) {
    // attr = attr across the two children: |L|·|R| / max(d_l, d_r).
    if (cache != nullptr && c->kind() == ExprKind::kBinary) {
      const auto& b = static_cast<const BinaryExpr&>(*c);
      if (b.op() == BinaryOp::kEq && b.lhs()->kind() == ExprKind::kAttrRef &&
          b.rhs()->kind() == ExprKind::kAttrRef) {
        size_t i = static_cast<const AttrRefExpr&>(*b.lhs()).index();
        size_t j = static_cast<const AttrRefExpr&>(*b.rhs()).index();
        if (i > j) std::swap(i, j);
        if (i < la && j >= la) {
          const stats::ColumnStatistics* lc =
              ResolveColumnStats(*plan.child(0), i, cache);
          const stats::ColumnStatistics* rc =
              ResolveColumnStats(*plan.child(1), j - la, cache);
          if (lc != nullptr && rc != nullptr) {
            double d = std::max<double>(
                {1.0, static_cast<double>(lc->distinct),
                 static_cast<double>(rc->distinct)});
            out /= d;
            continue;
          }
        }
      }
    }
    out *= ConjunctSelectivity(c);
  }
  return out;
}

double Estimate(const Plan& plan, const RelationProvider& provider,
                StatsCache* cache) {
  switch (plan.kind()) {
    case PlanKind::kScan: {
      if (cache != nullptr) {
        const stats::TableStatistics* stats =
            cache->StatsFor(plan.relation_name());
        if (stats == nullptr) return kNoEstimate;
        return static_cast<double>(stats->row_count);
      }
      Result<const Relation*> rel = provider.GetRelation(plan.relation_name());
      if (!rel.ok()) return kNoEstimate;
      return static_cast<double>((*rel)->size());
    }
    case PlanKind::kConstRel:
      return static_cast<double>(plan.const_relation().size());
    case PlanKind::kUnion: {
      double l = Estimate(*plan.child(0), provider, cache);
      double r = Estimate(*plan.child(1), provider, cache);
      if (l < 0 || r < 0) return kNoEstimate;
      return l + r;
    }
    case PlanKind::kDifference: {
      double l = Estimate(*plan.child(0), provider, cache);
      double r = Estimate(*plan.child(1), provider, cache);
      if (l < 0 || r < 0) return kNoEstimate;
      // Half the right side is assumed to hit the left side.
      return std::max(l - r / 2.0, l / 10.0);
    }
    case PlanKind::kIntersect: {
      double l = Estimate(*plan.child(0), provider, cache);
      double r = Estimate(*plan.child(1), provider, cache);
      if (l < 0 || r < 0) return kNoEstimate;
      return std::min(l, r) / 2.0;
    }
    case PlanKind::kProduct: {
      double l = Estimate(*plan.child(0), provider, cache);
      double r = Estimate(*plan.child(1), provider, cache);
      if (l < 0 || r < 0) return kNoEstimate;
      return l * r;
    }
    case PlanKind::kJoin:
      return EstimateJoin(plan, provider, cache);
    case PlanKind::kSelect: {
      double input = Estimate(*plan.child(0), provider, cache);
      if (input < 0) return kNoEstimate;
      std::vector<ExprPtr> conjuncts;
      SplitConjuncts(plan.condition(), &conjuncts);
      double s = 1.0;
      for (const ExprPtr& c : conjuncts) {
        s *= DeepConjunctSelectivity(c, *plan.child(0), cache);
      }
      return input * s;
    }
    case PlanKind::kProject:
      // π is additive under bag semantics: cardinality is unchanged —
      // exactly the property Example 3.2 relies on.
      return Estimate(*plan.child(0), provider, cache);
    case PlanKind::kUnique: {
      double n = Estimate(*plan.child(0), provider, cache);
      if (n < 0) return kNoEstimate;
      if (cache != nullptr && plan.child(0)->kind() == PlanKind::kScan) {
        const stats::TableStatistics* stats =
            cache->StatsFor(plan.child(0)->relation_name());
        if (stats != nullptr) {
          return static_cast<double>(stats->distinct_count);
        }
      }
      if (cache != nullptr) {
        // Distinct tuples never exceed the product of per-column distinct
        // counts; when every output column traces back to an analyzed
        // source column this bound is sound, and sharp for narrow
        // projections (δ(π_a R) on a low-cardinality a).
        double bound = 1.0;
        bool resolved = plan.schema().arity() > 0;
        for (size_t i = 0; resolved && i < plan.schema().arity(); ++i) {
          const stats::ColumnStatistics* column =
              ResolveColumnStats(*plan.child(0), i, cache);
          if (column == nullptr) {
            resolved = false;
            break;
          }
          bound *= static_cast<double>(std::max<uint64_t>(1, column->distinct));
        }
        if (resolved) return std::min(n, bound);
      }
      // Distinct-count guess without column statistics: sub-linear growth.
      return std::min(n, std::pow(n, 0.8) + 1.0);
    }
    case PlanKind::kGroupBy: {
      double n = Estimate(*plan.child(0), provider, cache);
      if (n < 0) return kNoEstimate;
      if (plan.group_keys().empty()) return 1.0;
      const double guess = std::pow(n, 0.75) + 1.0;
      if (cache != nullptr) {
        // Groups never outnumber the product of the keys' distinct counts.
        // One key's count is exact; several keys are often correlated, so
        // their product only tightens the sub-linear guess.
        double product = 1.0;
        for (size_t key : plan.group_keys()) {
          const stats::ColumnStatistics* column =
              ResolveColumnStats(*plan.child(0), key, cache);
          if (column == nullptr) {
            product = -1.0;
            break;
          }
          product *=
              static_cast<double>(std::max<uint64_t>(1, column->distinct));
        }
        if (product >= 1.0) {
          if (plan.group_keys().size() == 1) return std::min(n, product);
          return std::min({n, product, guess});
        }
      }
      return std::min(n, guess);
    }
    case PlanKind::kClosure: {
      // Reachability can approach n² on dense inputs; assume moderate
      // fan-out growth.
      double n = Estimate(*plan.child(0), provider, cache);
      if (n < 0) return kNoEstimate;
      return std::min(n * n, n * 8.0 + 1.0);
    }
    case PlanKind::kSort: {
      // Ordering keeps the bag; a weighted LIMIT caps the (weighted)
      // cardinality the estimator already speaks in.
      double n = Estimate(*plan.child(0), provider, cache);
      if (n < 0) return kNoEstimate;
      if (plan.sort_limit() > 0) {
        return std::min(n, static_cast<double>(plan.sort_limit()));
      }
      return n;
    }
  }
  return kNoEstimate;
}

}  // namespace

const stats::TableStatistics* StatsCache::StatsFor(const std::string& name) {
  // Stored ANALYZE snapshots win: they carry histograms and survive
  // restarts, at the price of staleness.
  const stats::TableStatistics* stored = provider_->GetStatistics(name);
  if (stored != nullptr) return stored;
  auto it = cache_.find(name);
  if (it != cache_.end()) return &it->second;
  Result<const Relation*> rel = provider_->GetRelation(name);
  if (!rel.ok()) return nullptr;
  stats::AnalyzeOptions options;
  options.histograms = false;
  auto [inserted, ok] =
      cache_.emplace(name, stats::Analyze(**rel, 0, options));
  (void)ok;
  return &inserted->second;
}

const stats::ColumnStatistics* ResolveColumnStats(const Plan& plan,
                                                  size_t index,
                                                  StatsCache* cache) {
  if (cache == nullptr || index >= plan.schema().arity()) return nullptr;
  switch (plan.kind()) {
    case PlanKind::kScan: {
      const stats::TableStatistics* stats = cache->StatsFor(plan.relation_name());
      if (stats == nullptr || index >= stats->columns.size()) return nullptr;
      return &stats->columns[index];
    }
    case PlanKind::kSelect:
    case PlanKind::kUnique:
    case PlanKind::kSort:
      // Filtering/ordering keeps column identity; the source distinct count
      // is an upper bound for the filtered column.
      return ResolveColumnStats(*plan.child(0), index, cache);
    case PlanKind::kProject: {
      const ExprPtr& e = plan.projections()[index];
      if (e->kind() != ExprKind::kAttrRef) return nullptr;
      return ResolveColumnStats(
          *plan.child(0), static_cast<const AttrRefExpr&>(*e).index(), cache);
    }
    case PlanKind::kJoin:
    case PlanKind::kProduct: {
      size_t la = plan.child(0)->schema().arity();
      return index < la
                 ? ResolveColumnStats(*plan.child(0), index, cache)
                 : ResolveColumnStats(*plan.child(1), index - la, cache);
    }
    default:
      return nullptr;
  }
}

double EstimateSelectivity(const ExprPtr& condition) {
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(condition, &conjuncts);
  double s = 1.0;
  for (const ExprPtr& c : conjuncts) s *= ConjunctSelectivity(c);
  return s;
}

double EstimateSelectivityWithStats(const ExprPtr& condition,
                                    const RelationSchema& schema,
                                    const stats::TableStatistics& stats) {
  (void)schema;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(condition, &conjuncts);
  double s = 1.0;
  for (const ExprPtr& c : conjuncts) {
    s *= StatsConjunctSelectivity(c, stats);
  }
  return s;
}

double EstimateCardinality(const Plan& plan, const RelationProvider& provider,
                           StatsCache* cache) {
  EstimateCallsCounter()->Inc();
  return Estimate(plan, provider, cache);
}

}  // namespace opt
}  // namespace mra
