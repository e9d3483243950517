#include "mra/algebra/ops.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace mra {
namespace ops {

Status CheckCompatible(const Relation& left, const Relation& right,
                       const char* op) {
  if (!left.schema().CompatibleWith(right.schema())) {
    return Status::InvalidArgument(
        std::string(op) + " requires operands of one schema, got " +
        left.schema().ToString() + " and " + right.schema().ToString());
  }
  return Status::OK();
}

Result<Relation> Union(const Relation& left, const Relation& right) {
  MRA_RETURN_IF_ERROR(CheckCompatible(left, right, "union"));
  Relation out(left.schema());
  for (const auto& [tuple, count] : left) out.InsertUnchecked(tuple, count);
  for (const auto& [tuple, count] : right) out.InsertUnchecked(tuple, count);
  return out;
}

Result<Relation> Difference(const Relation& left, const Relation& right) {
  MRA_RETURN_IF_ERROR(CheckCompatible(left, right, "difference"));
  Relation out(left.schema());
  for (const auto& [tuple, count] : left) {
    uint64_t other = right.Multiplicity(tuple);
    if (count > other) out.InsertUnchecked(tuple, count - other);
  }
  return out;
}

Result<Relation> Product(const Relation& left, const Relation& right) {
  Relation out(left.schema().Concat(right.schema()));
  for (const auto& [lt, lc] : left) {
    for (const auto& [rt, rc] : right) {
      out.InsertUnchecked(lt.Concat(rt), lc * rc);
    }
  }
  return out;
}

Result<Relation> Select(const ExprPtr& condition, const Relation& input) {
  MRA_RETURN_IF_ERROR(CheckPredicate(condition, input.schema()));
  Relation out(input.schema());
  for (const auto& [tuple, count] : input) {
    MRA_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*condition, tuple));
    if (keep) out.InsertUnchecked(tuple, count);
  }
  return out;
}

Result<Relation> Project(const std::vector<ExprPtr>& exprs,
                         const Relation& input,
                         const std::vector<std::string>& names) {
  MRA_ASSIGN_OR_RETURN(RelationSchema schema,
                       InferProjectionSchema(exprs, input.schema(), names));
  Relation out(std::move(schema));
  for (const auto& [tuple, count] : input) {
    MRA_ASSIGN_OR_RETURN(Tuple projected, ProjectTuple(exprs, tuple));
    out.InsertUnchecked(std::move(projected), count);
  }
  return out;
}

Result<Relation> ProjectIndexes(const std::vector<size_t>& indexes,
                                const Relation& input) {
  std::vector<ExprPtr> exprs;
  exprs.reserve(indexes.size());
  for (size_t i : indexes) exprs.push_back(Attr(i));
  return Project(exprs, input);
}

Result<Relation> Intersect(const Relation& left, const Relation& right) {
  MRA_RETURN_IF_ERROR(CheckCompatible(left, right, "intersection"));
  Relation out(left.schema());
  // Iterate the smaller support for the min().
  const Relation& small = left.distinct_size() <= right.distinct_size()
                              ? left
                              : right;
  const Relation& large = &small == &left ? right : left;
  for (const auto& [tuple, count] : small) {
    uint64_t m = std::min(count, large.Multiplicity(tuple));
    if (m > 0) out.InsertUnchecked(tuple, m);
  }
  return out;
}

Result<Relation> Join(const ExprPtr& condition, const Relation& left,
                      const Relation& right) {
  RelationSchema joined = left.schema().Concat(right.schema());
  MRA_RETURN_IF_ERROR(CheckPredicate(condition, joined));
  Relation out(std::move(joined));
  for (const auto& [lt, lc] : left) {
    for (const auto& [rt, rc] : right) {
      Tuple combined = lt.Concat(rt);
      MRA_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*condition, combined));
      if (keep) out.InsertUnchecked(std::move(combined), lc * rc);
    }
  }
  return out;
}

Result<Relation> Unique(const Relation& input) {
  Relation out(input.schema());
  for (const auto& [tuple, count] : input) {
    (void)count;  // δ maps every positive multiplicity to 1.
    out.InsertUnchecked(tuple, 1);
  }
  return out;
}

int CompareForSort(const Tuple& a, const Tuple& b,
                   const std::vector<size_t>& keys,
                   const std::vector<bool>& desc) {
  for (size_t i = 0; i < keys.size(); ++i) {
    int c = a.at(keys[i]).Compare(b.at(keys[i]));
    if (c != 0) return desc[i] ? -c : c;
  }
  // Canonical-order tiebreak (Tuple::Compare): totalises the order so
  // equal-key ties resolve the same way everywhere (definitional,
  // in-memory, spilled) and agree with every encoder's tuple order.
  return a.Compare(b);
}

Result<Relation> Sort(const std::vector<size_t>& keys,
                      const std::vector<bool>& desc, uint64_t limit,
                      const Relation& input) {
  if (desc.size() != keys.size()) {
    return Status::InvalidArgument("sort keys and desc flags differ in size");
  }
  for (size_t k : keys) {
    if (k >= input.schema().arity()) {
      return Status::InvalidArgument(
          "sort key %" + std::to_string(k + 1) + " out of range for schema " +
          input.schema().ToString());
    }
  }
  if (limit == 0) return input;  // Identity on the bag; order is stream-only.
  std::vector<std::pair<Tuple, uint64_t>> entries(input.begin(), input.end());
  std::sort(entries.begin(), entries.end(),
            [&](const auto& a, const auto& b) {
              return CompareForSort(a.first, b.first, keys, desc) < 0;
            });
  Relation out(input.schema());
  uint64_t remaining = limit;
  for (auto& [tuple, count] : entries) {
    if (remaining == 0) break;
    uint64_t take = std::min(count, remaining);
    remaining -= take;
    out.InsertUnchecked(std::move(tuple), take);
  }
  return out;
}

Result<RelationSchema> GroupBySchema(const std::vector<size_t>& keys,
                                     const std::vector<AggSpec>& aggs,
                                     const RelationSchema& input) {
  std::unordered_set<size_t> seen;
  for (size_t k : keys) {
    if (k >= input.arity()) {
      return Status::InvalidArgument(
          "grouping attribute %" + std::to_string(k + 1) +
          " out of range for " + input.ToString());
    }
    if (!seen.insert(k).second) {
      return Status::InvalidArgument(
          "grouping attribute list must be duplicate-free (Definition 3.4)");
    }
  }
  if (aggs.empty()) {
    return Status::InvalidArgument("groupby requires at least one aggregate");
  }
  MRA_ASSIGN_OR_RETURN(RelationSchema key_schema, input.Project(keys));
  std::vector<Attribute> attrs = key_schema.attributes();
  for (const AggSpec& agg : aggs) {
    if (agg.attr >= input.arity()) {
      return Status::InvalidArgument(
          "aggregate attribute %" + std::to_string(agg.attr + 1) +
          " out of range for " + input.ToString());
    }
    MRA_ASSIGN_OR_RETURN(Type out_type,
                         AggResultType(agg.kind, input.TypeOf(agg.attr)));
    std::string name = agg.output_name;
    if (name.empty()) {
      name = std::string(AggKindName(agg.kind));
      if (agg.kind != AggKind::kCnt) {
        name += "_" + input.attribute(agg.attr).name;
      }
    }
    attrs.push_back({std::move(name), out_type});
  }
  return RelationSchema(std::move(attrs));
}

Result<Relation> GroupBy(const std::vector<size_t>& keys,
                         const std::vector<AggSpec>& aggs,
                         const Relation& input) {
  MRA_ASSIGN_OR_RETURN(RelationSchema out_schema,
                       GroupBySchema(keys, aggs, input.schema()));
  Relation out(std::move(out_schema));

  auto make_accumulators = [&] {
    std::vector<AggAccumulator> accs;
    accs.reserve(aggs.size());
    for (const AggSpec& agg : aggs) {
      accs.emplace_back(agg.kind, input.schema().TypeOf(agg.attr));
    }
    return accs;
  };

  std::unordered_map<Tuple, std::vector<AggAccumulator>, TupleHash, TupleEq>
      groups;
  for (const auto& [tuple, count] : input) {
    Tuple key = tuple.Project(keys);
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) it->second = make_accumulators();
    for (size_t i = 0; i < aggs.size(); ++i) {
      it->second[i].Add(tuple.at(aggs[i].attr), count);
    }
  }

  // Empty grouping list over any input (including empty) yields the single
  // all-tuples aggregate row (Definition 3.4's second case).
  if (keys.empty() && groups.empty()) {
    groups.try_emplace(Tuple{}, make_accumulators());
  }

  for (const auto& [key, accs] : groups) {
    std::vector<Value> values = key.values();
    for (const AggAccumulator& acc : accs) {
      MRA_ASSIGN_OR_RETURN(Value v, acc.Finish());
      values.push_back(std::move(v));
    }
    out.InsertUnchecked(Tuple(std::move(values)), 1);
  }
  return out;
}

}  // namespace ops
}  // namespace mra
