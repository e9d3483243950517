// Physical operators: a batch-at-a-time executor whose rows are
// (tuple, multiplicity) pairs.  Streaming multiplicities instead of
// repeated tuples is the practical payoff of the paper's multi-set
// semantics: a tuple occurring a thousand times costs one row.
//
// A *bag stream* may emit the same tuple in several rows; the multi-set it
// denotes is the per-tuple sum of the emitted counts.  Operators that need
// exact per-tuple totals (difference, intersection, group-by) materialise
// internally.
//
// The one protocol is Open / NextBatch* / Close.  The public entry points
// are non-virtual wrappers around the per-operator OpenImpl /
// NextBatchImpl / CloseImpl hooks.  The wrappers own the operator
// lifecycle contract — Open before NextBatch, Close idempotent, Close
// without Open a no-op — run the governance check once per batch, and
// collect per-operator execution metrics (obs::OperatorMetrics): emitted
// rows, batches and multiplicity-weighted counts always, wall time when
// obs::ExecTimingEnabled() (EXPLAIN ANALYZE flips it around a run).  One
// virtual call and one metrics update amortize over up to a whole batch
// of rows, and filter/projection compile their expressions once per Open
// instead of tree-walking per row.  A drained batch (out.empty() after a
// successful call) is end of stream; a consumer that wants one row at a
// time pulls with a capacity-1 batch.
//
// How many lanes pull an operator is a parameter of the same protocol:
// Open(lanes) opens it for `lanes` concurrent callers of NextBatch(out,
// lane), one lane each.  By Definition 3.1 a bag is the ⊎ of any split of
// its support, so whatever the lanes pull together is the operator's bag.
// A *partitioned source* — a stored-relation scan, σ and π over one, an
// unspilled ⋈ — serves every lane with no lock through the kernel it runs
// on one lane: the scan claims disjoint slot ranges of the relation's
// dense entries, σ and π run their batch kernels on the calling lane, the
// ⋈ probes on it.  The wrapper serialises the lanes of any other operator
// at its one cursor (docs/EXECUTION.md).
//
// The hash kernels (⋈, Γ, δ) are in hash_ops.h, sort in sort.h, and the
// run files both spill to in spill.h.

#ifndef MRA_EXEC_OPERATOR_H_
#define MRA_EXEC_OPERATOR_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mra/core/relation.h"
#include "mra/exec/exec_context.h"
#include "mra/expr/eval.h"
#include "mra/expr/scalar_expr.h"
#include "mra/obs/op_metrics.h"

namespace mra {
namespace exec {

/// One unit of a bag stream.
struct Row {
  Tuple tuple;
  uint64_t count = 0;
};

/// Default NextBatch capacity: large enough to amortize per-batch costs,
/// small enough that a batch of (tuple, count) rows stays cache-resident.
inline constexpr size_t kDefaultBatchSize = 1024;

/// A reusable buffer of bag-stream rows.  The capacity is a fill target
/// for producers (NextBatchImpl stops adding at capacity), not a hard
/// allocation bound.
///
/// Row storage is recycled: Clear() resets the logical size without
/// destroying the Row objects, so the tuples parked past size() keep
/// their heap buffers.  Producers that refill through AppendSlot() and
/// *assign* into the slot's tuple (ScanOp copy-assigns, ComputeOp swaps
/// a scratch tuple in) reuse those buffers — a drain loop allocates for
/// the first batch and then runs allocation-free, which is where most of
/// the batch protocol's throughput comes from.  Consumers that move
/// tuples out (materialisation) merely forfeit that reuse for the slots
/// they stole from.
class RowBatch {
 public:
  explicit RowBatch(size_t capacity = kDefaultBatchSize)
      : capacity_(capacity == 0 ? kDefaultBatchSize : capacity) {
    rows_.reserve(capacity_);
  }

  size_t capacity() const { return capacity_; }
  void SetCapacity(size_t capacity) {
    capacity_ = capacity == 0 ? kDefaultBatchSize : capacity;
    rows_.reserve(capacity_);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }

  /// Logical reset; parked rows keep their tuple storage for reuse.
  void Clear() { size_ = 0; }

  void Add(Row row) { AppendSlot() = std::move(row); }

  /// Exposes the next slot (recycled when available) for in-place fill.
  Row& AppendSlot() {
    if (size_ == rows_.size()) rows_.emplace_back();
    return rows_[size_++];
  }

  /// Shrinks the logical size to `n` rows (compaction); the dropped rows
  /// stay parked with their storage.
  void Truncate(size_t n) {
    MRA_CHECK_LE(n, size_);
    size_ = n;
  }

  Row& operator[](size_t i) { return rows_[i]; }
  const Row& operator[](size_t i) const { return rows_[i]; }

  std::vector<Row>::iterator begin() { return rows_.begin(); }
  std::vector<Row>::iterator end() { return rows_.begin() + size_; }
  std::vector<Row>::const_iterator begin() const { return rows_.begin(); }
  std::vector<Row>::const_iterator end() const {
    return rows_.begin() + size_;
  }

 private:
  std::vector<Row> rows_;
  size_t size_ = 0;
  size_t capacity_;
};

/// The most rows one planned reservation makes room for.  Estimates can
/// be off by orders of magnitude; at this ceiling the largest reservation,
/// a result Relation's entries and index, is about 4 MiB, while a table
/// that outgrows it has already skipped the 13 doublings from 8 slots that
/// account for most of its moves.
inline constexpr size_t kMaxPlannedRows = size_t{1} << 16;

/// The planned size of a bag or table that `estimate` rows (a node's
/// estimated_rows()) will fill, for its Reserve once its input is open
/// and before its first row: at most `cap` and kMaxPlannedRows, and 0 —
/// plain growth — with no estimate or under `ctx`'s armed memory budget.
/// A reservation holds real memory that an over-estimate leaves unused,
/// and no share of the headroom it could be clamped to promises the rest
/// of the plan the room growth would have left it (a build's values are
/// not in its reservation), so a governed plan grows as if unestimated:
/// an over-estimate can cost it no kill.
size_t PlannedRows(double estimate, const ExecContext* ctx,
                   size_t cap = kMaxPlannedRows);

/// Abstract physical operator.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  /// Prepares the operator (builds hash tables, opens children) for
  /// `lanes` concurrent pullers.  Must be called before NextBatch();
  /// reopening a Closed operator restarts it (and resets its metrics),
  /// reopening an Open one is a programming error.
  Status Open(size_t lanes = 1);

  /// Produces lane `lane`'s next batch of rows: clears `out`, then fills it
  /// with up to out.capacity() rows.  An empty `out` after a successful
  /// call is end of stream for that lane.  Callable concurrently for
  /// distinct lanes < the lanes Open was given.  Metrics update once per
  /// batch, not per row; a lane's counters stay lane-local, a cache line
  /// apart from the next lane's, until Close folds them in.
  Status NextBatch(RowBatch& out, size_t lane = 0);

  /// Releases resources.  Idempotent by contract — enforced here: a second
  /// Close, or a Close without Open, is a safe no-op.
  void Close();

  /// True when this operator, open for more than one lane, serves every
  /// lane concurrently with no lock: a partitioned source.  The wrapper
  /// serialises the lanes of any other.  Valid once open.
  virtual bool partitioned() const { return false; }

  virtual const RelationSchema& schema() const = 0;

  /// Operator name for EXPLAIN-style output, e.g. "HashJoin".
  virtual std::string_view name() const = 0;

  /// Children, for plan rendering.
  virtual std::vector<const PhysicalOperator*> children() const { return {}; }

  /// Runtime metrics collected by the wrappers (valid after execution;
  /// hash/distinct figures are recorded by CloseImpl before freeing).
  const obs::OperatorMetrics& metrics() const { return metrics_; }

  /// Planner's cardinality estimate (multiplicity-weighted), < 0 when the
  /// plan was lowered without an estimator.
  double estimated_rows() const { return estimated_rows_; }
  void set_estimated_rows(double rows) { estimated_rows_ = rows; }

  /// Free-form planner note rendered next to the operator name in EXPLAIN
  /// output ("keys: %2=%4", "fallback: predicate not hashable", …) — how
  /// the planner's lowering choices stay visible.
  const std::string& annotation() const { return annotation_; }
  void set_annotation(std::string note) { annotation_ = std::move(note); }

  /// Multi-line indented rendering of the physical plan.
  std::string ToString() const;

  /// Attaches the per-query governance context to this operator and,
  /// recursively, its whole subtree (children() is the traversal; the
  /// const_cast is safe — we only ever hand out children we own).  The
  /// planner calls this on the lowered root; a null context (the default)
  /// runs the plan ungoverned.  The context must outlive execution.
  void SetExecContext(ExecContext* ctx) {
    exec_ctx_ = ctx;
    for (const PhysicalOperator* child : children()) {
      const_cast<PhysicalOperator*>(child)->SetExecContext(ctx);
    }
  }
  ExecContext* exec_context() const { return exec_ctx_; }

 protected:
  /// Opens for `lanes` lanes.  An operator that is never a partitioned
  /// source ignores `lanes`: it runs as one cursor and opens its inputs
  /// for one lane.
  virtual Status OpenImpl(size_t lanes) = 0;
  /// Fills `out` (already cleared) with up to out.capacity() of lane
  /// `lane`'s rows; leave it empty at end of stream.  `lane` is 0 on an
  /// operator that is not a partitioned source.
  virtual Status NextBatchImpl(RowBatch& out, size_t lane) = 0;
  virtual void CloseImpl() = 0;

  /// Memory accounting against the per-query budget.  ChargeMemTo makes
  /// this operator's cumulative charge equal `total_bytes` (charging or
  /// releasing the delta), so impls can re-report an ApproxBytes figure
  /// after every growth step without double counting.  No-op when the
  /// plan runs ungoverned.  The wrapper Close() releases any outstanding
  /// charge, so a killed query's unwind always returns its budget.
  Status ChargeMemTo(uint64_t total_bytes) {
    if (exec_ctx_ == nullptr) return Status::OK();
    if (total_bytes > charged_bytes_) {
      uint64_t delta = total_bytes - charged_bytes_;
      charged_bytes_ = total_bytes;
      return exec_ctx_->Charge(delta, name());
    }
    if (total_bytes < charged_bytes_) {
      exec_ctx_->Release(charged_bytes_ - total_bytes);
      charged_bytes_ = total_bytes;
    }
    return Status::OK();
  }

  /// Re-reports a hash build's current footprint: publishes
  /// OperatorMetrics::hash_bytes and the process-wide hash.peak_bytes
  /// high-water immediately — on growth during execution, not only at
  /// Close — so a live `\top` / ServerStats view sees a running build.
  /// Also charges the footprint against the query budget (ChargeMemTo),
  /// with `value_bytes` more for values the table's rows hold outside it
  /// (the join's build rows), which hashKB leaves out.
  Status NoteHashFootprint(uint64_t bytes, uint64_t value_bytes = 0);

  obs::OperatorMetrics metrics_;

 private:
  enum class State : uint8_t { kCreated, kOpen, kClosed };

  /// One batch through NextBatchImpl: governance first, then the counters
  /// of `lane`, or metrics_ when the operator is not drained by lanes.
  Status PullBatch(RowBatch& out, size_t lane);

  /// One lane's counters, a cache line apart from the next lane's.
  struct alignas(64) LaneCounters {
    uint64_t batches = 0;
    uint64_t rows = 0;
    uint64_t weighted = 0;
    uint64_t ns = 0;
  };

  State state_ = State::kCreated;
  size_t lanes_ = 1;
  // Open for lanes as a partitioned source: one a lane, folded at Close.
  std::vector<LaneCounters> lane_counters_;
  // Open for lanes and not a partitioned source: the lanes take turns at
  // the one cursor under cursor_mu_; drained_ once it ended or failed.
  bool serialised_ = false;
  std::mutex cursor_mu_;
  bool drained_ = false;
  ExecContext* exec_ctx_ = nullptr;
  uint64_t charged_bytes_ = 0;
  bool timing_ = false;
  double estimated_rows_ = -1.0;
  std::string annotation_;
};

using PhysOpPtr = std::unique_ptr<PhysicalOperator>;

/// Drains `op` (Open/NextBatch*/Close) into a materialised relation,
/// pulling `batch_size` rows per call (0 means kDefaultBatchSize, as for
/// RowBatch).
Result<Relation> ExecuteToRelation(PhysicalOperator& op,
                                   size_t batch_size = kDefaultBatchSize);

/// Nanoseconds the calling thread has spent waiting for its turn at the
/// cursor of an operator the wrapper serialises; a kernel's lanes leave it
/// out of their `cpu=`.
uint64_t CursorWaitNs();

/// Renders the operator tree annotated per node with estimated vs. actual
/// cardinalities, estimation error, wall time and hash-table peaks — the
/// EXPLAIN ANALYZE body.  Call after execution.
std::string RenderPlanWithMetrics(const PhysicalOperator& root);

// --- Leaf operators. ---

/// Scans a borrowed relation (the caller guarantees it outlives execution).
///
/// A projecting scan is π_columns(Scan R) fused into the leaf: each stored
/// tuple is assign-projected straight into the recycled batch slot, so the
/// attributes the plan drops are never copied.  Multiplicities pass through
/// unchanged (Definition 3.1), so tuples that the projection collapses are
/// emitted as separate rows of the bag stream and fold downstream.
class ScanOp final : public PhysicalOperator {
 public:
  explicit ScanOp(const Relation* relation);
  /// The projecting scan; `columns` index the relation's schema and
  /// `schema` is the projected schema (the π node's).
  ScanOp(const Relation* relation, std::vector<size_t> columns,
         RelationSchema schema);

  const RelationSchema& schema() const override;
  std::string_view name() const override { return "Scan"; }
  bool partitioned() const override { return true; }

 protected:
  /// Lanes claim disjoint slot ranges of the relation, up to a morsel
  /// each, off one atomic counter; one lane claims them in turn.
  Status OpenImpl(size_t lanes) override;
  Status NextBatchImpl(RowBatch& out, size_t lane) override;
  void CloseImpl() override;

 private:
  /// The rest of a lane's claimed slot range, [next, end).
  struct alignas(64) LaneCursor {
    size_t next = 0;
    size_t end = 0;
  };

  const Relation* relation_;
  std::optional<std::vector<size_t>> columns_;  // Set on a projecting scan.
  RelationSchema projected_schema_;
  size_t stride_ = 1;  // Slots per lane claim.
  std::atomic<size_t> next_range_{0};
  std::vector<LaneCursor> cursors_;
};

/// Scans an owned relation (inline literals, pre-materialised inputs).
class ConstScanOp final : public PhysicalOperator {
 public:
  explicit ConstScanOp(Relation relation);

  const RelationSchema& schema() const override;
  std::string_view name() const override { return "ConstScan"; }

 protected:
  Status OpenImpl(size_t lanes) override;
  Status NextBatchImpl(RowBatch& out, size_t lane) override;
  void CloseImpl() override;

 private:
  Relation relation_;
  Relation::const_iterator it_;
};

// --- Streaming unary operators. ---

/// σ_φ — drops rows whose tuples fail the condition.
class FilterOp final : public PhysicalOperator {
 public:
  FilterOp(ExprPtr condition, PhysOpPtr child);

  const RelationSchema& schema() const override { return child_->schema(); }
  std::string_view name() const override { return "Filter"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }
  bool partitioned() const override { return child_->partitioned(); }

 protected:
  Status OpenImpl(size_t lanes) override;
  Status NextBatchImpl(RowBatch& out, size_t lane) override;
  void CloseImpl() override;

 private:
  /// The batch kernel: compacts the rows that satisfy the condition to
  /// the front of `batch`.
  Status KeepMatches(RowBatch& batch) const;

  ExprPtr condition_;
  PhysOpPtr child_;
  /// Compiled once per Open when the condition fits the fast path.
  std::optional<CompiledPredicate> compiled_;
};

/// π_α — extended projection; multiplicities pass through unchanged.
class ComputeOp final : public PhysicalOperator {
 public:
  ComputeOp(std::vector<ExprPtr> exprs, RelationSchema output_schema,
            PhysOpPtr child);

  const RelationSchema& schema() const override { return schema_; }
  std::string_view name() const override { return "Compute"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }
  bool partitioned() const override { return child_->partitioned(); }

 protected:
  Status OpenImpl(size_t lanes) override;
  Status NextBatchImpl(RowBatch& out, size_t lane) override;
  void CloseImpl() override;

 private:
  /// The batch kernel: rewrites every row of `batch` in place, projecting
  /// through the caller's recycled `scratch` tuple.
  Status Rewrite(RowBatch& batch, Tuple& scratch) const;

  /// One lane's scratch tuple, a cache line apart from the next lane's.
  struct alignas(64) LaneScratch {
    Tuple tuple;
  };

  std::vector<ExprPtr> exprs_;
  RelationSchema schema_;
  PhysOpPtr child_;
  /// Attribute indexes when every expression is a plain %i reference
  /// (resolved once per Open): projection becomes a storage-recycling
  /// in-place rewrite through the lane's scratch tuple.
  std::optional<std::vector<size_t>> attr_only_;
  std::vector<LaneScratch> lane_scratch_;  // [lane], kept across Opens.
};

// --- Binary operators. ---

/// ⊎ — concatenates the child streams; per-tuple counts add up by the bag
/// stream convention, so no materialisation is needed.
class UnionAllOp final : public PhysicalOperator {
 public:
  UnionAllOp(PhysOpPtr left, PhysOpPtr right);

  const RelationSchema& schema() const override { return left_->schema(); }
  std::string_view name() const override { return "UnionAll"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Status OpenImpl(size_t lanes) override;
  Status NextBatchImpl(RowBatch& out, size_t lane) override;
  void CloseImpl() override;

 private:
  PhysOpPtr left_;
  PhysOpPtr right_;
  bool on_right_ = false;
};

/// × and ⋈_φ without equi-keys: materialises the right input, then streams
/// the left, pairing each left row with every right row; output
/// multiplicity is the product of the input multiplicities
/// (Definition 3.1).  A null condition means plain product.
class NestedLoopJoinOp final : public PhysicalOperator {
 public:
  NestedLoopJoinOp(ExprPtr condition_or_null, PhysOpPtr left, PhysOpPtr right);

  const RelationSchema& schema() const override { return schema_; }
  std::string_view name() const override {
    return condition_ ? "NestedLoopJoin" : "Product";
  }
  std::vector<const PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Status OpenImpl(size_t lanes) override;
  Status NextBatchImpl(RowBatch& out, size_t lane) override;
  void CloseImpl() override;

 private:
  ExprPtr condition_;
  RelationSchema schema_;
  PhysOpPtr left_;
  PhysOpPtr right_;
  std::vector<Row> right_rows_;
  // Probe cursor: the current left batch, the left row in it and the
  // next right row to pair with it.
  RowBatch left_batch_;
  size_t left_pos_ = 0;
  size_t right_pos_ = 0;
};

/// Transitive closure (§5 extension): materialises the child on Open and
/// runs the semi-naive fixpoint; streams the reachability set.
class ClosureOp final : public PhysicalOperator {
 public:
  explicit ClosureOp(PhysOpPtr child);

  const RelationSchema& schema() const override { return child_->schema(); }
  std::string_view name() const override { return "Closure"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Status OpenImpl(size_t lanes) override;
  Status NextBatchImpl(RowBatch& out, size_t lane) override;
  void CloseImpl() override;

 private:
  PhysOpPtr child_;
  Relation result_;
  Relation::const_iterator it_;
};

/// Shared materialisation backing SubplanCacheOp: one state object per
/// reused logical subtree, held by every consumer.  The first Open executes
/// `source` and materialises its bag; later consumers (and re-Opens) stream
/// the cached relation without re-running the subtree.  The cache lives for
/// the physical tree's lifetime — trees are lowered per execution, so a
/// stale cache cannot outlive the plan that computed it.
struct SubplanState {
  PhysOpPtr source;
  Relation cached;
  bool materialized = false;
};

/// Streams a shared, lazily materialised subplan result (the physical side
/// of the subplan-reuse rewrite: a logical subtree appearing k times is
/// lowered once and scanned k times).  Exactly one consumer — the first
/// one created — owns the rendering of the wrapped subtree; the others
/// render as leaves annotated as reuses.
class SubplanCacheOp final : public PhysicalOperator {
 public:
  SubplanCacheOp(std::shared_ptr<SubplanState> state, bool owner);

  const RelationSchema& schema() const override;
  std::string_view name() const override { return "SubplanCache"; }
  std::vector<const PhysicalOperator*> children() const override;

 protected:
  Status OpenImpl(size_t lanes) override;
  Status NextBatchImpl(RowBatch& out, size_t lane) override;
  void CloseImpl() override;

 private:
  std::shared_ptr<SubplanState> state_;
  bool owner_;
  Relation::const_iterator it_;
};

/// Extracts equi-join key pairs from a join condition over a concatenated
/// schema: conjuncts of the form %i = %j with i referencing the left side
/// (index < left_arity), j the right side, and equal attribute domains (so
/// hash-key equality coincides with = semantics) become key pairs;
/// everything else goes to `residual` (null when empty).  Returns true when
/// at least one key pair was found (hash join applies).
bool ExtractEquiJoinKeys(const ExprPtr& condition,
                         const RelationSchema& combined_schema,
                         size_t left_arity, std::vector<size_t>* left_keys,
                         std::vector<size_t>* right_keys, ExprPtr* residual);

}  // namespace exec
}  // namespace mra

#endif  // MRA_EXEC_OPERATOR_H_
