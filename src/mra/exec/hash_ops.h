// The hash kernels: ⋈ on equi-keys, Γ, and one bag-count kernel for δ, −
// and ∩, morsel-driven over a WorkerPool lease (docs/PARALLELISM.md).
// Each is the only implementation of its operator; `workers` (default 1)
// is the lane count it asks for.
//
// With more than one lane a kernel's build happens in OpenImpl as a
// sequence of phases fanned out over the lease.  A *morsel* is one
// RowBatch of the child's output.  The kernel opens its child with
// Open(lanes) and every lane pulls its own morsels with NextBatch(morsel,
// lane): a partitioned source (a stored-relation scan, σ/π over one, an
// unspilled ⋈) produces them with no lock — the scan claims disjoint
// ranges of the relation, σ and π run on the claiming lane, the ⋈ probes
// on it — and the wrapper serialises the lanes of any other child
// (operator.h).
// Partitioning is by key-hash radix on the hash's top bits (the key
// indexes place keys by the low bits): P = next power of two >= 4 x lanes
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
//  * δ, − and ∩ (Defs 3.4, 3.1, 3.2): each is a function of one tuple's
//    counts, so a partition holds all of a key's counts; the lanes insert
//    a partition's rows under its lock, so one key set holds each key
//    once, and the lhs spends each key's budget as it streams.
//
// A row is hashed once: the routing hash is also its key-index hash.
//
// A one-lane lease (workers <= 1, or a saturated pool that shed the
// admission) uses a single partition, skips the routing and opens the
// child for one lane.  The join streams on every lease: once built, it
// probes on each lane it is opened for — the calling thread of a
// NextBatch consumer, or its consumer kernel's lanes.  The bag-count
// kernel builds its rhs key sets and compacts each lhs batch in place
// against them (δ on one lane against a seen-set; δ on more lanes emits
// the key sets its lhs built).  Γ, which must see its whole input before
// it can emit, materialises.
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
// (`cpu=`, which leaves out time waiting at a serialised child's cursor)
// appear in EXPLAIN ANALYZE next to the elapsed wall time.  A lane-drained
// child's counters fold into its own node when the phase closes it.
// Close adds the build/probe row counts to the process-wide
// `hash.build_rows` / `hash.probe_rows` counters.

#ifndef MRA_EXEC_HASH_OPS_H_
#define MRA_EXEC_HASH_OPS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mra/algebra/aggregate.h"
#include "mra/exec/hash_table.h"
#include "mra/exec/operator.h"
#include "mra/exec/spill.h"
#include "mra/parallel/worker_pool.h"

namespace mra {
namespace exec {

/// ⋈ on equi-key conjuncts %i = %j: builds a hash table over the right
/// input keyed by its key attributes, probes with left rows, and applies
/// the residual condition (non-equi conjuncts) to survivors.  Output
/// multiplicity is the product of the matched input multiplicities
/// (Definition 3.1 via Theorem 3.1's σ_φ(E1 × E2) equivalence).  No key is
/// copied: a probe compares its left keys with a key chain's stored build
/// row.  The build runs on the join's own lease: on one lane it fills a
/// single arena; on more it radix-partitions the build side and builds one
/// private arena per partition in parallel.  The partitions are read-only
/// from then on, so any number of lanes can probe them.  The probe
/// streams and materialises nothing: each lane the join is opened for
/// probes on its own thread, pulling its probe morsels from the left input
/// on the same lane.
///
/// Spill (docs/EXECUTION.md "Spilling hash join"): past SortOp's spill
/// threshold each build lane appends its further rows to a run file of
/// its own.  The first probe pass joins the resident chunk while it writes the
/// probe stream to a run file; every later pass loads the next
/// threshold-sized chunk of the build runs into one partition and joins it
/// with the probe run.  ⋈ distributes over any ⊎-split of its build side,
/// so the passes' ⊎ is the join, however many rows one key has.  A join
/// that spilled is not a partitioned source: its passes run at lane 0.
class HashJoinOp final : public PhysicalOperator {
 public:
  /// `left_keys[i]` pairs with `right_keys[i]` (indexes are local to each
  /// side).  `residual_or_null` is evaluated over the concatenated tuple.
  /// `spill_bytes` is ExecConfig::exec.sort_spill_bytes (spill.h's
  /// SpillThreshold).
  HashJoinOp(std::vector<size_t> left_keys, std::vector<size_t> right_keys,
             ExprPtr residual_or_null, PhysOpPtr left, PhysOpPtr right,
             size_t workers = 1, size_t morsel_size = kDefaultBatchSize,
             uint64_t spill_bytes = 0);
  ~HashJoinOp() override;

  /// Heap bytes of a build arena of `rows` rows in `chains` key chains under
  /// `buckets` index words, values not counted: the footprint hashKB
  /// reports.  The join's budget charge adds the rows' values.
  static uint64_t ArenaBytes(uint64_t rows, uint64_t chains, uint64_t buckets);

  const RelationSchema& schema() const override { return schema_; }
  std::string_view name() const override { return "HashJoin"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

  bool partitioned() const override { return chunks_ == 0; }

  /// Chunks the last Open joined in passes: 0 when the build fit.
  size_t spilled_chunks() const { return chunks_; }

 protected:
  Status OpenImpl(size_t lanes) override;
  Status NextBatchImpl(RowBatch& out, size_t lane) override;
  void CloseImpl() override;

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// One radix partition's build arena: an index from key to chain, and
  /// per-key chains (newest first) through flat row storage, private to
  /// the lane that built it and read-only during the probe.
  struct Partition {
    /// Adds a build row whose key hash is `hash`.
    void Add(Row&& row, const std::vector<size_t>& keys, size_t hash);
    /// Makes room for n rows in n chains (see TagIndex::Reserve).
    void Reserve(size_t n);

    TagIndex index;              // Key → chain, compared at the head row.
    std::vector<size_t> heads;   // [chain] its newest row.
    std::vector<size_t> hashes;  // [chain] its key hash.
    std::vector<Row> rows;
    std::vector<size_t> next;    // [row] the next row of its chain.
    uint64_t value_bytes = 0;    // HeapBytes of the rows' values.
    /// The arena's own footprint, which hashKB reports; the budget charge
    /// adds value_bytes.
    uint64_t ApproxBytes() const {
      return ArenaBytes(rows.capacity(), heads.capacity(), index.capacity());
    }
  };

  /// Build rows a lane routed to one partition, with their key hashes.
  struct Staged {
    std::vector<Row> rows;
    std::vector<size_t> hashes;
    uint64_t value_bytes = 0;  // HeapBytes of the rows' values, governed.
  };

  /// Where a probe stands: the current probe morsel, the row in it and its
  /// place in the match chain (kNone = take the next probe row).  One a
  /// lane.
  struct alignas(64) ProbeCursor {
    RowBatch batch;
    size_t pos = 0;
    const Partition* part = nullptr;
    size_t chain = kNone;
    uint64_t probed = 0;  // Probe rows taken, summed at Close.
  };

  /// Resets the Open-time state and removes the spill runs.
  void Reset();
  /// Resets the Open-time state and builds partitions_ from the right
  /// input on the join's own lease, through one morsel drain: on one lane
  /// each row goes straight into a single arena; on more a radix-routed
  /// staging pass feeds a partition-parallel build.  Past the spill
  /// threshold each lane writes its further rows to its own build run.
  /// Closes the right input, reports the arenas' footprint and charges the
  /// arenas and their rows' values.
  Status Build();
  /// Ends a probe pass of a spilled join: loads the next chunk of the
  /// build runs into one partition and rewinds the probe run; false once
  /// the build runs (or the probe rows) are used up.
  Result<bool> NextChunk();
  /// Sizes lane_probes_ for `lanes` probing cursors; each keeps its batch's
  /// recycled rows across Opens.
  void SetProbeLanes(size_t lanes);
  /// The probe kernel: fills `out` with the matches of the cursor's probe
  /// rows, pulling probe morsels with pull(batch) — one code path for every
  /// lane and for a spilled join's passes.
  template <typename Pull>
  Status Probe(ProbeCursor& c, RowBatch& out, Pull pull);

  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
  ExprPtr residual_;
  RelationSchema schema_;
  PhysOpPtr left_;
  PhysOpPtr right_;
  size_t workers_;
  size_t morsel_size_;

  // Open-time state, cleared on Close.
  std::vector<Partition> partitions_;
  int radix_bits_ = 0;  // log2 of partitions_.size().
  // [lane] probing cursors.  Kept across Opens so their batches' rows are
  // recycled.
  std::vector<ProbeCursor> lane_probes_;

  uint64_t spill_bytes_;
  // Spill state, reset with the Open-time state.
  struct Spill {
    std::vector<std::string> files;  // The build runs, then the probe run.
    size_t build_runs = 0;
    size_t next_build_run = 0;
    RunReader build_reader;
    RunWriter probe_writer;  // Open during the first pass.
    RunReader probe_reader;
  } spill_;
  size_t chunks_ = 0;  // Survives Close.
  std::string base_annotation_;
  bool base_annotation_captured_ = false;
};

/// Γ — hash aggregation (Definition 3.4 with the Definition 3.3
/// multiplicity-weighted aggregates).  One morsel pass builds per-lane
/// pre-aggregation tables routed by group-key radix; a partition-parallel
/// merge phase folds each group into the first lane that holds its key —
/// found by lookup with the stored hash — with AggAccumulator::Merge (the
/// aggregates are additive over disjoint input partitions), so no key is
/// re-inserted, and emission skips the folded entries.  Key-free aggregation
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
  Status OpenImpl(size_t lanes) override;
  Status NextBatchImpl(RowBatch& out, size_t lane) override;
  void CloseImpl() override;

 private:
  /// One group table: key index plus the flat accumulator arena
  /// (group id x aggregate).
  struct GroupTable {
    HashKeyIndex index;
    std::vector<AggAccumulator> accs;
    std::vector<bool> folded;  // Lanes >= 1: groups an earlier lane owns.
    size_t ApproxBytes() const {
      return index.ApproxBytes() + accs.capacity() * sizeof(AggAccumulator);
    }
  };

  Result<Row> EmitGroup(const GroupTable& table, size_t id);

  std::vector<size_t> keys_;
  std::vector<AggSpec> aggs_;
  std::vector<Type> agg_types_;  // Input type per aggregate, for ctors.
  RelationSchema schema_;
  PhysOpPtr child_;
  size_t workers_;
  size_t morsel_size_;

  std::vector<std::vector<GroupTable>> lane_tables_;  // [lane][p]
  size_t emit_part_ = 0;
  size_t emit_lane_ = 0;
  size_t emit_pos_ = 0;
};

/// The function of one tuple's counts that a BagCountOp computes: δ is
/// min(1, a) (Def 3.4), − is max(0, a − b) (Def 3.1), ∩ is min(a, b)
/// (Def 3.2), for lhs count a and rhs count b.
enum class BagFn { kUnique, kDifference, kIntersect };

/// δ, − and ∩: one hash kernel over a key set of whole tuples in which
/// each key holds a *budget* — its rhs count for − and ∩ (0 when the rhs
/// lacks it), 1 for δ, set when the key is first seen.  An lhs row with
/// count c takes t = min(c, budget) from its key's budget and emits t (δ,
/// ∩) or c − t (−) when positive; over a key's rows in any order that sums
/// to exactly min(1, a), min(a, b) and max(0, a − b).  The rhs sums
/// saturate at UINT64_MAX, which is exact for min and max(0, ·) whenever
/// the lhs total fits in 64 bits.
///
/// The rhs builds first, like the join's build side: the lease's lanes
/// route each morsel's rows by key-hash radix and insert a partition's
/// share under that partition's lock, so every key lives in one set.  The
/// lhs then streams on the calling thread: each batch is compacted in
/// place (FilterOp-style) against the sets, so a drain stays
/// allocation-free once warm.  The lhs rows of a key that meets a budget
/// are summed as they spend it; a sum past 2^64 − 1 fails the query,
/// naming the operator.  δ on one lane streams the same way against a
/// seen-set; on more lanes its lhs builds the sets, which then hold each
/// key once, and NextBatch emits them.
class BagCountOp final : public PhysicalOperator {
 public:
  /// `rhs_or_null` is null for δ and the second operand of − and ∩, with a
  /// schema compatible with `lhs`'s.
  BagCountOp(BagFn fn, PhysOpPtr lhs, PhysOpPtr rhs_or_null,
             size_t workers = 1, size_t morsel_size = kDefaultBatchSize);

  const RelationSchema& schema() const override { return lhs_->schema(); }
  std::string_view name() const override;
  std::vector<const PhysicalOperator*> children() const override {
    if (rhs_ == nullptr) return {lhs_.get()};
    return {lhs_.get(), rhs_.get()};
  }

 protected:
  Status OpenImpl(size_t lanes) override;
  Status NextBatchImpl(RowBatch& out, size_t lane) override;
  void CloseImpl() override;

 private:
  /// A key set with a count per key (none for δ's lhs).
  struct CountTable {
    HashKeyIndex index;
    std::vector<uint64_t> counts;
    std::vector<uint64_t> seen;  // − and ∩: the lhs count sum met.
    /// Makes room for n keys, with their counts when `counted`.
    void Reserve(size_t n, bool counted) {
      index.Reserve(n);
      if (!counted) return;
      ReserveAmortised(counts, n);
      ReserveAmortised(seen, n);
    }
    size_t ApproxBytes() const {
      return index.ApproxBytes() +
             (counts.capacity() + seen.capacity()) * sizeof(uint64_t);
    }
  };

  /// Drains `child` over the lease's lanes into sets_, one key set for
  /// each of `parts` radix partitions, each sized for its share of
  /// `estimated_keys`, with each key's count sum when `counted` (the rhs
  /// budgets; the sums saturate).  *bytes is the footprint held before,
  /// and with sets_ after.
  Status Collapse(const parallel::WorkerPool::Lease& lease,
                  PhysicalOperator* child, double estimated_keys,
                  size_t parts, bool counted, uint64_t* rows,
                  uint64_t* bytes);
  /// The streaming kernel: pulls lhs batches into `out` and keeps each row
  /// with what it emits.
  Status StreamBatch(RowBatch& out);

  BagFn fn_;
  PhysOpPtr lhs_;
  PhysOpPtr rhs_;
  std::vector<size_t> identity_;  // 0..arity-1: keyed on all attributes.
  size_t workers_;
  size_t morsel_size_;

  // [p]: the rhs budgets, or δ's keys; on one lane δ's seen-set, recycled
  // across Opens.
  std::vector<CountTable> sets_;
  int radix_bits_ = 0;  // log2 of sets_.size().
  bool streaming_ = false;
  size_t emit_part_ = 0;  // δ on more lanes: the next key to emit.
  size_t emit_pos_ = 0;
};

}  // namespace exec
}  // namespace mra

#endif  // MRA_EXEC_HASH_OPS_H_
