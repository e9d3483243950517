// The hash kernels: ⋈ on equi-keys, Γ and δ, morsel-driven over a
// WorkerPool lease (docs/PARALLELISM.md).  Each is the only implementation
// of its operator; `workers` (default 1) is the lane count it asks for.
//
// With more than one lane the work happens in OpenImpl as a sequence of
// phases fanned out over the lease, and NextBatch then streams an
// already-materialised result.  A *morsel* is one RowBatch pulled from the
// shared child cursor under a light mutex (relations are hash maps — there
// is no index range to slice, so the cursor itself is the work queue).
// Partitioning is by key-hash radix: P = next power of two >= 4 x lanes
// partitions, which makes the partitions *disjoint by key* — and under the
// paper's multi-set semantics that is the whole correctness argument:
//
//  * join (Def 3.1): every (probe, build) match pair has equal key hashes,
//    so it meets in exactly one partition; output multiplicities are the
//    per-pair products, and the result is the disjoint ⊎ of the per-lane
//    outputs.
//  * group-by (Def 3.3): the aggregates are multiplicity-weighted sums /
//    extrema, so per-lane partial accumulators over a partition of the
//    input merge additively (AggAccumulator::Merge) into exactly the
//    definitional per-group values.
//  * dedup (δ): the support of a disjoint union is the union of supports;
//    per-lane pre-dedup only collapses duplicates early.
//
// A one-lane lease (workers <= 1, or a saturated pool that shed the
// admission) uses a single partition and skips the routing.  The join and
// δ then stream: the join builds one arena and probes batch by batch, δ
// compacts each child batch in place against its seen-set.  Only Γ, which
// must see its whole input before it can emit, materialises.
//
// Governance: the shared ExecContext reaches every lane — each lane checks
// it per morsel (and the child's own batch wrapper checks per pull), so a
// cancel/deadline/budget kill lands within one morsel on all cores.  Only
// lane 0 (always the query thread) calls ChargeMemTo; worker lanes publish
// their footprints through relaxed atomics that lane 0 folds between its
// own morsels and at every phase join.
//
// Metrics: per-lane row counters and busy-times merge after each phase
// join into OperatorMetrics — `workers=N` and the summed lane time
// (`cpu=`) appear in EXPLAIN ANALYZE next to the elapsed wall time.  Close
// adds the build/probe row counts to the process-wide `hash.build_rows` /
// `hash.probe_rows` counters.

#ifndef MRA_EXEC_HASH_OPS_H_
#define MRA_EXEC_HASH_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "mra/algebra/aggregate.h"
#include "mra/exec/hash_table.h"
#include "mra/exec/operator.h"

namespace mra {
namespace exec {

/// ⋈ on equi-key conjuncts %i = %j: builds a hash table over the right
/// input keyed by its key attributes, probes with left rows, and applies
/// the residual condition (non-equi conjuncts) to survivors.  Output
/// multiplicity is the product of the matched input multiplicities
/// (Definition 3.1 via Theorem 3.1's σ_φ(E1 × E2) equivalence).  On more
/// than one lane: radix-partition the build side, build one private arena
/// per partition in parallel, then probe morsels route by the same radix
/// into read-only partitions.
class HashJoinOp final : public PhysicalOperator {
 public:
  /// `left_keys[i]` pairs with `right_keys[i]` (indexes are local to each
  /// side).  `residual_or_null` is evaluated over the concatenated tuple.
  HashJoinOp(std::vector<size_t> left_keys, std::vector<size_t> right_keys,
             ExprPtr residual_or_null, PhysOpPtr left, PhysOpPtr right,
             size_t workers = 1, size_t morsel_size = kDefaultBatchSize);

  const RelationSchema& schema() const override { return schema_; }
  std::string_view name() const override { return "HashJoin"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Status OpenImpl() override;
  Status NextBatchImpl(RowBatch& out) override;
  void CloseImpl() override;

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// One-lane lease: the build lands in partitions_[0] directly — no
  /// staging pass — and NextBatch streams the probe, so a one-lane plan
  /// pays neither radix routing nor output materialisation.
  Status OpenSerial();
  Status StreamBatch(RowBatch& out);

  /// One radix partition's build arena: a key index plus per-key chains
  /// (newest first) through flat row storage, private to the lane that
  /// built it and read-only during the probe phase.
  struct Partition {
    HashKeyIndex index;
    std::vector<size_t> heads;
    std::vector<Row> rows;
    std::vector<size_t> next;
    size_t ApproxBytes() const {
      return index.ApproxBytes() + heads.capacity() * sizeof(size_t) +
             next.capacity() * sizeof(size_t) + rows.capacity() * sizeof(Row);
    }
  };

  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
  ExprPtr residual_;
  RelationSchema schema_;
  PhysOpPtr left_;
  PhysOpPtr right_;
  size_t workers_;
  size_t morsel_size_;

  // Open-time state, cleared on Close.
  std::vector<std::vector<std::vector<Row>>> staged_;  // [lane][p]
  std::vector<Partition> partitions_;
  std::vector<std::vector<Row>> out_;  // [lane] probe output
  size_t emit_lane_ = 0;
  size_t emit_pos_ = 0;

  // One-lane streaming-probe cursor: the current probe row and its
  // position in the match chain (kNone = fetch the next probe row).
  bool streaming_probe_ = false;
  RowBatch probe_batch_;
  size_t probe_pos_ = 0;
  size_t chain_ = kNone;
};

/// Γ — hash aggregation (Definition 3.4 with the Definition 3.3
/// multiplicity-weighted aggregates).  One morsel pass builds per-lane
/// pre-aggregation tables routed by group-key radix; a merge phase folds
/// each partition across lanes with AggAccumulator::Merge (the aggregates
/// are additive over disjoint input partitions).  Key-free aggregation
/// degenerates to per-lane accumulators merged at the join — classic
/// two-phase aggregation — and keeps the Definition 3.3 empty-input global
/// group.  Accumulators finish lazily at emission, so AVG/MIN/MAX
/// partiality over an empty input surfaces as kUndefined, exactly like the
/// definitional operator.
class HashGroupByOp final : public PhysicalOperator {
 public:
  HashGroupByOp(std::vector<size_t> keys, std::vector<AggSpec> aggs,
                RelationSchema output_schema, PhysOpPtr child,
                size_t workers = 1, size_t morsel_size = kDefaultBatchSize);

  const RelationSchema& schema() const override { return schema_; }
  std::string_view name() const override { return "HashGroupBy"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Status OpenImpl() override;
  Status NextBatchImpl(RowBatch& out) override;
  void CloseImpl() override;

 private:
  /// One group table: key index plus the flat accumulator arena
  /// (group id x aggregate).
  struct GroupTable {
    HashKeyIndex index;
    std::vector<AggAccumulator> accs;
    size_t ApproxBytes() const {
      return index.ApproxBytes() + accs.capacity() * sizeof(AggAccumulator);
    }
  };

  Result<Row> EmitGroup(const GroupTable& table, size_t id);

  std::vector<size_t> keys_;
  std::vector<AggSpec> aggs_;
  std::vector<Type> agg_types_;  // Input type per aggregate, for ctors.
  std::vector<size_t> key_identity_;  // 0..keys-1: re-keying stored keys.
  RelationSchema schema_;
  PhysOpPtr child_;
  size_t workers_;
  size_t morsel_size_;

  std::vector<std::vector<GroupTable>> lane_tables_;  // [lane][p]
  std::vector<GroupTable> merged_;                    // [p]
  size_t emit_part_ = 0;
  size_t emit_pos_ = 0;
};

/// δ — hash duplicate elimination; every surviving tuple streams with
/// multiplicity 1.  On one lane it streams: each child batch is compacted
/// in place to its first occurrences (FilterOp-style) against a recycled
/// seen-set, so a drain stays allocation-free once warm.  On more lanes:
/// per-lane pre-dedup into radix-routed key indexes, then a parallel
/// partition-wise union of supports.
class DedupOp final : public PhysicalOperator {
 public:
  explicit DedupOp(PhysOpPtr child, size_t workers = 1,
                   size_t morsel_size = kDefaultBatchSize);

  const RelationSchema& schema() const override { return child_->schema(); }
  std::string_view name() const override { return "Dedup"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Status OpenImpl() override;
  Status NextBatchImpl(RowBatch& out) override;
  void CloseImpl() override;

 private:
  /// The one-lane kernel: pulls child batches into `out` and keeps first
  /// occurrences only.
  Status StreamBatch(RowBatch& out);

  PhysOpPtr child_;
  std::vector<size_t> identity_;  // 0..arity-1: δ keys on all attributes.
  size_t workers_;
  size_t morsel_size_;

  // One-lane state: the seen-set, recycled across Opens.
  bool streaming_ = false;
  HashKeyIndex seen_;

  std::vector<std::vector<HashKeyIndex>> lane_seen_;  // [lane][p]
  std::vector<HashKeyIndex> merged_;                  // [p]
  size_t emit_part_ = 0;
  size_t emit_pos_ = 0;
};

}  // namespace exec
}  // namespace mra

#endif  // MRA_EXEC_HASH_OPS_H_
