#include "mra/exec/operator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "mra/algebra/closure.h"
#include "mra/common/annotation.h"
#include "mra/expr/eval.h"
#include "mra/fault/failpoint.h"
#include "mra/obs/metrics.h"

namespace mra {
namespace exec {

namespace {

// The largest arena any single hash operator held, process-wide.
void NoteHashPeakBytes(uint64_t bytes) {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("hash.peak_bytes");
  // Max-tracked; the read-modify-write race is benign for a high-water
  // gauge (a concurrent larger value wins either way on the next update).
  if (static_cast<uint64_t>(g->value()) < bytes) {
    g->Set(static_cast<int64_t>(bytes));
  }
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Deterministic cancel-point injection for the governance tests: arming
// one of these sites (any action) requests cancellation at exactly that
// lifecycle point — before OpenImpl, before a NextBatchImpl, or at the
// start of Close.  Disarmed cost: one relaxed atomic load, same as every
// other failpoint site.
fault::Failpoint* CancelOpenFp() {
  static fault::Failpoint* fp =
      fault::FaultRegistry::Global().Get("exec.cancel.open");
  return fp;
}

fault::Failpoint* CancelBatchFp() {
  static fault::Failpoint* fp =
      fault::FaultRegistry::Global().Get("exec.cancel.batch");
  return fp;
}

fault::Failpoint* CancelCloseFp() {
  static fault::Failpoint* fp =
      fault::FaultRegistry::Global().Get("exec.cancel.close");
  return fp;
}

// Time this thread spent waiting for a serialised operator's cursor.
thread_local uint64_t tls_cursor_wait_ns = 0;

// True when the armed failpoint fired on this hit.
bool FpFired(fault::Failpoint* fp) {
  return fp->Hit().kind != fault::ActionKind::kOff;
}

// Copies rows from `it` on into the recycled slots of `out` until it is
// full or the relation ends: the batch kernel of every operator that
// streams a stored or materialised relation.
void FillFromRelation(Relation::const_iterator& it,
                      Relation::const_iterator end, RowBatch& out) {
  for (; it != end && !out.full(); ++it) {
    Row& slot = out.AppendSlot();
    slot.tuple = it->first;
    slot.count = it->second;
  }
}

// Per-operator batch latency distribution, only fed while exec timing is
// on (EXPLAIN ANALYZE, or a server started with timing enabled).
obs::Histogram* OpBatchLatency() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("exec.op_batch_us");
  return h;
}

void RenderPhysical(const PhysicalOperator& op, int depth,
                    std::ostream& out) {
  for (int i = 0; i < depth; ++i) out << "  ";
  out << op.name();
  if (!op.annotation().empty()) {
    out << "  " << BracketAnnotation(op.annotation());
  }
  out << "\n";
  for (const PhysicalOperator* child : op.children()) {
    RenderPhysical(*child, depth + 1, out);
  }
}

void RenderAnalyzed(const PhysicalOperator& op, int depth, std::ostream& out) {
  for (int i = 0; i < depth; ++i) out << "  ";
  out << op.name();
  if (!op.annotation().empty()) {
    out << "  " << BracketAnnotation(op.annotation());
  }
  const obs::OperatorMetrics& m = op.metrics();
  char buf[64];
  if (op.estimated_rows() >= 0.0) {
    std::snprintf(buf, sizeof(buf), "%.0f", op.estimated_rows());
    out << "  (est=" << buf;
    // Estimation error as a symmetric over/under factor against the
    // multiplicity-weighted actual (what EstimateCardinality predicts).
    double actual = static_cast<double>(m.weighted_rows);
    double est = op.estimated_rows() < 1.0 ? 1.0 : op.estimated_rows();
    double act = actual < 1.0 ? 1.0 : actual;
    double err = est >= act ? est / act : act / est;
    std::snprintf(buf, sizeof(buf), "%.2f", err);
    out << ", err=" << buf << "x)";
  } else {
    // No estimate for this node (unknown relation, no statistics): render
    // explicit placeholders rather than a misleading default, keeping the
    // column layout stable.
    out << "  (est=-, err=-)";
  }
  out << "  (actual rows=" << m.rows_emitted
      << " weighted=" << m.weighted_rows;
  // `batches` and `time` render uniformly across nodes: `-` marks an
  // operator that emitted nothing and an untimed run respectively, so the
  // columns line up whatever produced the tree.
  out << " batches=";
  if (m.batches_emitted > 0) {
    out << m.batches_emitted;
  } else {
    out << "-";
  }
  if (m.distinct_rows > 0) out << " distinct=" << m.distinct_rows;
  if (m.peak_hash_entries > 0) out << " hash=" << m.peak_hash_entries;
  if (m.build_rows > 0) out << " build=" << m.build_rows;
  if (m.probe_rows > 0) out << " probe=" << m.probe_rows;
  if (m.hash_bytes > 0) out << " hashKB=" << (m.hash_bytes + 1023) / 1024;
  if (m.workers > 0) out << " workers=" << m.workers;
  if (m.cpu_ns > 0) {
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(m.cpu_ns) / 1e6);
    out << " cpu=" << buf << "ms";
  }
  if (m.timed) {
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(m.total_ns()) / 1e6);
    out << " time=" << buf << "ms";
  } else {
    out << " time=-";
  }
  out << ")\n";
  for (const PhysicalOperator* child : op.children()) {
    RenderAnalyzed(*child, depth + 1, out);
  }
}

}  // namespace

size_t PlannedRows(double estimate, const ExecContext* ctx, size_t cap) {
  cap = std::min(cap, kMaxPlannedRows);
  // No estimate is -1; NaN fails the comparison too.
  if (!(estimate >= 1.0) || cap == 0) return 0;
  if (ctx != nullptr && ctx->mem_budget() != 0) return 0;
  return estimate >= static_cast<double>(cap)
             ? cap
             : static_cast<size_t>(std::ceil(estimate));
}

Status PhysicalOperator::Open(size_t lanes) {
  MRA_CHECK(state_ != State::kOpen) << "Open() while already open";
  MRA_CHECK_GE(lanes, 1u);
  lanes_ = lanes;
  lane_counters_.clear();
  serialised_ = false;
  drained_ = false;
  if (state_ == State::kClosed) metrics_.ResetRuntime();
  charged_bytes_ = 0;
  timing_ = obs::ExecTimingEnabled();
  metrics_.timed = timing_;
  if (exec_ctx_ != nullptr) {
    if (FpFired(CancelOpenFp())) exec_ctx_->RequestCancel();
    Status g = exec_ctx_->Check();
    if (!g.ok()) {
      // A failed Open leaves the operator Closed (same contract as a
      // failing OpenImpl below), so the unwind can Close the whole tree.
      state_ = State::kClosed;
      return g;
    }
  }
  Status s;
  if (timing_) {
    uint64_t t0 = NowNs();
    s = OpenImpl(lanes);
    metrics_.open_ns += NowNs() - t0;
  } else {
    s = OpenImpl(lanes);
  }
  if (s.ok() && lanes > 1) {
    if (partitioned()) {
      lane_counters_.resize(lanes);
      if (metrics_.workers == 0) {
        metrics_.workers = static_cast<uint32_t>(lanes);
      }
    } else {
      serialised_ = true;
    }
  }
  // A failed Open leaves the operator Closed: resources the impl did
  // acquire are released by Close-idempotent destruction paths, and the
  // contract (Next only after a successful Open) stays enforced.  Budget
  // charges do not wait for the destructor — a build that tripped the
  // budget mid-Open hands its bytes back to the query right here.
  state_ = s.ok() ? State::kOpen : State::kClosed;
  if (!s.ok() && exec_ctx_ != nullptr && charged_bytes_ > 0) {
    exec_ctx_->Release(charged_bytes_);
    charged_bytes_ = 0;
  }
  return s;
}

Status PhysicalOperator::NextBatch(RowBatch& out, size_t lane) {
  MRA_CHECK(state_ == State::kOpen && lane < lanes_)
      << "NextBatch() on an operator not open for lane " << lane;
  if (!serialised_) return PullBatch(out, lane);
  // The lanes take turns at the one cursor, which also serialises the
  // subtree's own metrics and budget charges.  After the end of stream,
  // or an error that another lane reports, the waiting lanes see an empty
  // batch.
  const uint64_t t0 = NowNs();
  std::lock_guard<std::mutex> lock(cursor_mu_);
  tls_cursor_wait_ns += NowNs() - t0;
  if (drained_) {
    out.Clear();
    return Status::OK();
  }
  Status s = PullBatch(out, 0);
  if (!s.ok() || out.empty()) drained_ = true;
  return s;
}

Status PhysicalOperator::PullBatch(RowBatch& out, size_t lane) {
  out.Clear();
  if (exec_ctx_ != nullptr) {
    // The cooperative governance check: one relaxed atomic load per batch
    // when the query is ungoverned beyond cancellation, plus a clock read
    // when a deadline is armed — which bounds a kill to one batch.
    if (FpFired(CancelBatchFp())) exec_ctx_->RequestCancel();
    Status g = exec_ctx_->Check();
    if (!g.ok()) return g;
  }
  Status s;
  uint64_t elapsed_ns = 0;
  if (timing_) {
    uint64_t t0 = NowNs();
    s = NextBatchImpl(out, lane);
    elapsed_ns = NowNs() - t0;
  } else {
    s = NextBatchImpl(out, lane);
  }
  const bool emitted = s.ok() && !out.empty();
  uint64_t weighted = 0;
  if (emitted) {
    for (const Row& row : out) weighted += row.count;
  }
  if (lane_counters_.empty()) {
    if (timing_) {
      metrics_.next_ns += elapsed_ns;
      OpBatchLatency()->Observe(elapsed_ns / 1000);
    }
    if (emitted) {
      ++metrics_.batches_emitted;
      metrics_.rows_emitted += out.size();
      metrics_.weighted_rows += weighted;
    }
  } else {
    LaneCounters& counters = lane_counters_[lane];
    counters.ns += elapsed_ns;
    if (emitted) {
      ++counters.batches;
      counters.rows += out.size();
      counters.weighted += weighted;
    }
  }
  return s;
}

uint64_t CursorWaitNs() { return tls_cursor_wait_ns; }

Status PhysicalOperator::NoteHashFootprint(uint64_t bytes,
                                           uint64_t value_bytes) {
  if (bytes > metrics_.hash_bytes) {
    metrics_.hash_bytes = bytes;
    NoteHashPeakBytes(bytes);
  }
  return ChargeMemTo(bytes + value_bytes);
}

void PhysicalOperator::Close() {
  if (state_ != State::kOpen) return;  // Contract: double/early Close is safe.
  if (exec_ctx_ != nullptr && FpFired(CancelCloseFp())) {
    // Close never fails, so a cancel landing here only marks the context;
    // the unwind in progress keeps releasing resources below.
    exec_ctx_->RequestCancel();
  }
  if (timing_) {
    uint64_t t0 = NowNs();
    CloseImpl();
    metrics_.close_ns += NowNs() - t0;
  } else {
    CloseImpl();
  }
  // A node drained by lanes reports as on one lane: its lanes' counters
  // fold into it once they have all joined, and its `time=` is the sum of
  // its lanes' time.
  for (const LaneCounters& c : lane_counters_) {
    metrics_.batches_emitted += c.batches;
    metrics_.rows_emitted += c.rows;
    metrics_.weighted_rows += c.weighted;
    metrics_.next_ns += c.ns;
  }
  lane_counters_.clear();
  // Whatever the impl still had charged goes back to the query budget —
  // this is what makes "killed query releases its memory" a wrapper-level
  // guarantee instead of a per-operator obligation.
  if (exec_ctx_ != nullptr && charged_bytes_ > 0) {
    exec_ctx_->Release(charged_bytes_);
    charged_bytes_ = 0;
  }
  state_ = State::kClosed;
}

std::string PhysicalOperator::ToString() const {
  std::ostringstream out;
  RenderPhysical(*this, 0, out);
  return out.str();
}

std::string RenderPlanWithMetrics(const PhysicalOperator& root) {
  std::ostringstream out;
  RenderAnalyzed(root, 0, out);
  return out.str();
}

Result<Relation> ExecuteToRelation(PhysicalOperator& op, size_t batch_size) {
  MRA_RETURN_IF_ERROR(op.Open());
  // The result is sized once from the root's estimate, after Open has run
  // the plan's builds.
  Relation out(op.schema());
  out.Reserve(PlannedRows(op.estimated_rows(), op.exec_context()));
  RowBatch batch(batch_size);
  Status s;
  while (true) {
    s = op.NextBatch(batch);
    if (!s.ok() || batch.empty()) break;
    for (Row& row : batch) {
      out.InsertUnchecked(std::move(row.tuple), row.count);
    }
  }
  // A plan killed mid-drain hands its budget charges back here too.
  op.Close();
  if (!s.ok()) return s;
  return out;
}

// --- ScanOp. ---

ScanOp::ScanOp(const Relation* relation) : relation_(relation) {
  MRA_CHECK(relation != nullptr);
}

ScanOp::ScanOp(const Relation* relation, std::vector<size_t> columns,
               RelationSchema schema)
    : relation_(relation),
      columns_(std::move(columns)),
      projected_schema_(std::move(schema)) {
  MRA_CHECK(relation != nullptr);
  MRA_CHECK_EQ(columns_->size(), projected_schema_.arity());
  for (size_t c : *columns_) MRA_CHECK_LT(c, relation->schema().arity());
}

Status ScanOp::OpenImpl(size_t lanes) {
  // Ranges of up to a morsel, at least four a lane so the dynamic claim
  // evens out.
  stride_ = std::clamp<size_t>(relation_->distinct_size() / (4 * lanes), 1,
                               kDefaultBatchSize);
  next_range_.store(0, std::memory_order_relaxed);
  cursors_.assign(lanes, LaneCursor{});
  return Status::OK();
}

Status ScanOp::NextBatchImpl(RowBatch& out, size_t lane) {
  LaneCursor& c = cursors_[lane];
  const size_t distinct = relation_->distinct_size();
  const Relation::const_iterator entries = relation_->begin();
  while (!out.full()) {
    if (c.next == c.end) {
      // Claim slots [k·stride, min((k + 1)·stride, distinct)).
      size_t k = next_range_.fetch_add(1, std::memory_order_relaxed);
      if (k >= (distinct + stride_ - 1) / stride_) break;
      c.next = k * stride_;
      c.end = std::min(c.next + stride_, distinct);
    }
    // The claimed range, as far as the batch has room.  Assign into the
    // recycled slot: the tuple's value storage from the previous batch is
    // reused, so a steady-state scan never allocates.
    Relation::const_iterator it = entries + c.next;
    const Relation::const_iterator stop =
        entries + std::min(c.end, c.next + out.capacity() - out.size());
    if (columns_) {
      for (; it != stop; ++it) {
        Row& slot = out.AppendSlot();
        slot.tuple.AssignProjection(it->first, *columns_);
        slot.count = it->second;
      }
    } else {
      FillFromRelation(it, stop, out);
    }
    c.next = static_cast<size_t>(it - entries);
  }
  return Status::OK();
}

void ScanOp::CloseImpl() { cursors_.clear(); }

const RelationSchema& ScanOp::schema() const {
  return columns_ ? projected_schema_ : relation_->schema();
}

// --- ConstScanOp. ---

ConstScanOp::ConstScanOp(Relation relation) : relation_(std::move(relation)) {}

Status ConstScanOp::OpenImpl(size_t) {
  it_ = relation_.begin();
  return Status::OK();
}

Status ConstScanOp::NextBatchImpl(RowBatch& out, size_t) {
  FillFromRelation(it_, relation_.end(), out);
  return Status::OK();
}

void ConstScanOp::CloseImpl() {}

const RelationSchema& ConstScanOp::schema() const {
  return relation_.schema();
}

// --- FilterOp. ---

FilterOp::FilterOp(ExprPtr condition, PhysOpPtr child)
    : condition_(std::move(condition)), child_(std::move(child)) {}

Status FilterOp::OpenImpl(size_t lanes) {
  compiled_ = CompiledPredicate::Compile(condition_, child_->schema());
  return child_->Open(lanes);
}

Status FilterOp::KeepMatches(RowBatch& batch) const {
  // Surviving rows are compacted to the front by swap — O(1) per row, and
  // every tuple buffer (kept or dropped) stays parked in the batch for the
  // child's next refill.
  size_t kept = 0;
  if (compiled_.has_value()) {
    for (size_t i = 0; i < batch.size(); ++i) {
      if (compiled_->Matches(batch[i].tuple)) {
        if (kept != i) std::swap(batch[kept], batch[i]);
        ++kept;
      }
    }
  } else {
    for (size_t i = 0; i < batch.size(); ++i) {
      MRA_ASSIGN_OR_RETURN(bool keep,
                           EvalPredicate(*condition_, batch[i].tuple));
      if (keep) {
        if (kept != i) std::swap(batch[kept], batch[i]);
        ++kept;
      }
    }
  }
  batch.Truncate(kept);
  return Status::OK();
}

Status FilterOp::NextBatchImpl(RowBatch& out, size_t lane) {
  // In-place: the child fills `out`, then the kernel compacts it.  Pull
  // again until at least one row survives (an empty output means end of
  // stream) or the child drains.
  while (true) {
    MRA_RETURN_IF_ERROR(child_->NextBatch(out, lane));
    if (out.empty()) return Status::OK();
    MRA_RETURN_IF_ERROR(KeepMatches(out));
    if (!out.empty()) return Status::OK();
  }
}

void FilterOp::CloseImpl() { child_->Close(); }

// --- ComputeOp. ---

ComputeOp::ComputeOp(std::vector<ExprPtr> exprs, RelationSchema output_schema,
                     PhysOpPtr child)
    : exprs_(std::move(exprs)),
      schema_(std::move(output_schema)),
      child_(std::move(child)) {}

Status ComputeOp::OpenImpl(size_t lanes) {
  attr_only_ = AttrOnlyProjection(exprs_, child_->schema().arity());
  lane_scratch_.resize(lanes);
  return child_->Open(lanes);
}

Status ComputeOp::Rewrite(RowBatch& batch, Tuple& scratch) const {
  // Each row's tuple is rewritten where it sits (multiplicities pass
  // through unchanged).
  if (attr_only_.has_value()) {
    // Project into the recycled scratch tuple, then swap it in: the row's
    // old buffer becomes the next scratch, so the loop is allocation-free
    // once warm.
    for (Row& row : batch) {
      scratch.AssignProjection(row.tuple, *attr_only_);
      row.tuple.Swap(scratch);
    }
    return Status::OK();
  }
  for (Row& row : batch) {
    MRA_ASSIGN_OR_RETURN(Tuple projected, ProjectTuple(exprs_, row.tuple));
    row.tuple = std::move(projected);
  }
  return Status::OK();
}

Status ComputeOp::NextBatchImpl(RowBatch& out, size_t lane) {
  MRA_RETURN_IF_ERROR(child_->NextBatch(out, lane));
  return Rewrite(out, lane_scratch_[lane].tuple);
}

void ComputeOp::CloseImpl() { child_->Close(); }

// --- UnionAllOp. ---

UnionAllOp::UnionAllOp(PhysOpPtr left, PhysOpPtr right)
    : left_(std::move(left)), right_(std::move(right)) {
  MRA_CHECK(left_->schema().CompatibleWith(right_->schema()))
      << "UnionAll over incompatible schemas";
}

Status UnionAllOp::OpenImpl(size_t) {
  on_right_ = false;
  MRA_RETURN_IF_ERROR(left_->Open());
  return right_->Open();
}

Status UnionAllOp::NextBatchImpl(RowBatch& out, size_t) {
  // ⊎ forwards whole child batches: per-tuple counts add up across
  // batches by the bag-stream convention, so no merging is needed.
  if (!on_right_) {
    MRA_RETURN_IF_ERROR(left_->NextBatch(out));
    if (!out.empty()) return Status::OK();
    on_right_ = true;
  }
  return right_->NextBatch(out);
}

void UnionAllOp::CloseImpl() {
  left_->Close();
  right_->Close();
}

// --- NestedLoopJoinOp. ---

NestedLoopJoinOp::NestedLoopJoinOp(ExprPtr condition_or_null, PhysOpPtr left,
                                   PhysOpPtr right)
    : condition_(std::move(condition_or_null)),
      schema_(left->schema().Concat(right->schema())),
      left_(std::move(left)),
      right_(std::move(right)) {}

Status NestedLoopJoinOp::OpenImpl(size_t) {
  right_rows_.clear();
  left_batch_.Clear();
  left_pos_ = 0;
  right_pos_ = 0;
  MRA_RETURN_IF_ERROR(right_->Open());
  uint64_t materialized_bytes = 0;
  RowBatch batch;
  while (true) {
    MRA_RETURN_IF_ERROR(right_->NextBatch(batch));
    if (batch.empty()) break;
    for (Row& row : batch) {
      materialized_bytes += sizeof(Row) + row.tuple.HeapBytes();
      right_rows_.push_back(std::move(row));
    }
    MRA_RETURN_IF_ERROR(ChargeMemTo(materialized_bytes));
  }
  right_->Close();
  return left_->Open();
}

Status NestedLoopJoinOp::NextBatchImpl(RowBatch& out, size_t) {
  // Pairs the current left row with right rows from right_pos_ on,
  // concatenating into recycled slots; a pair the condition rejects is
  // truncated back off.
  while (!out.full()) {
    if (left_pos_ == left_batch_.size()) {
      MRA_RETURN_IF_ERROR(left_->NextBatch(left_batch_));
      left_pos_ = 0;
      if (left_batch_.empty()) return Status::OK();
    }
    const Row& lhs = left_batch_[left_pos_];
    while (right_pos_ < right_rows_.size() && !out.full()) {
      const Row& rhs = right_rows_[right_pos_++];
      Row& slot = out.AppendSlot();
      slot.tuple.AssignConcat(lhs.tuple, rhs.tuple);
      slot.count = lhs.count * rhs.count;
      if (condition_ != nullptr) {
        MRA_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*condition_, slot.tuple));
        if (!keep) out.Truncate(out.size() - 1);
      }
    }
    if (right_pos_ == right_rows_.size()) {
      right_pos_ = 0;
      ++left_pos_;
    }
  }
  return Status::OK();
}

void NestedLoopJoinOp::CloseImpl() {
  right_rows_.clear();
  left_batch_.Clear();
  left_->Close();
}

// --- ClosureOp. ---

ClosureOp::ClosureOp(PhysOpPtr child) : child_(std::move(child)) {}

Status ClosureOp::OpenImpl(size_t) {
  MRA_ASSIGN_OR_RETURN(Relation input, ExecuteToRelation(*child_));
  MRA_RETURN_IF_ERROR(ChargeMemTo(input.ApproxBytes()));
  MRA_ASSIGN_OR_RETURN(result_, ops::TransitiveClosure(input));
  metrics_.distinct_rows = result_.distinct_size();
  it_ = result_.begin();
  // The closure can be much larger than its input (paths vs. edges);
  // settle the charge on what is actually held.
  return ChargeMemTo(result_.ApproxBytes());
}

Status ClosureOp::NextBatchImpl(RowBatch& out, size_t) {
  FillFromRelation(it_, result_.end(), out);
  return Status::OK();
}

void ClosureOp::CloseImpl() { result_.Clear(); }

// --- SubplanCacheOp. ---

SubplanCacheOp::SubplanCacheOp(std::shared_ptr<SubplanState> state, bool owner)
    : state_(std::move(state)), owner_(owner) {
  MRA_CHECK(state_ != nullptr && state_->source != nullptr);
}

Status SubplanCacheOp::OpenImpl(size_t) {
  if (!state_->materialized) {
    MRA_ASSIGN_OR_RETURN(state_->cached, ExecuteToRelation(*state_->source));
    state_->materialized = true;
    // The materialising consumer carries the cache's budget charge; reuse
    // sites read it for free (matching how EXPLAIN renders it once).
    MRA_RETURN_IF_ERROR(ChargeMemTo(state_->cached.ApproxBytes()));
  }
  metrics_.distinct_rows = state_->cached.distinct_size();
  it_ = state_->cached.begin();
  return Status::OK();
}

Status SubplanCacheOp::NextBatchImpl(RowBatch& out, size_t) {
  FillFromRelation(it_, state_->cached.end(), out);
  return Status::OK();
}

void SubplanCacheOp::CloseImpl() {}

const RelationSchema& SubplanCacheOp::schema() const {
  return state_->source->schema();
}

std::vector<const PhysicalOperator*> SubplanCacheOp::children() const {
  // Only the owning consumer renders the shared subtree; reuse sites are
  // leaves, so EXPLAIN shows the subplan once.
  if (owner_) return {state_->source.get()};
  return {};
}

// --- Equi-join key extraction. ---

bool ExtractEquiJoinKeys(const ExprPtr& condition,
                         const RelationSchema& combined_schema,
                         size_t left_arity, std::vector<size_t>* left_keys,
                         std::vector<size_t>* right_keys, ExprPtr* residual) {
  left_keys->clear();
  right_keys->clear();
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(condition, &conjuncts);
  std::vector<ExprPtr> rest;
  for (const ExprPtr& c : conjuncts) {
    bool is_key = false;
    if (c->kind() == ExprKind::kBinary) {
      const auto& b = static_cast<const BinaryExpr&>(*c);
      if (b.op() == BinaryOp::kEq &&
          b.lhs()->kind() == ExprKind::kAttrRef &&
          b.rhs()->kind() == ExprKind::kAttrRef) {
        size_t i = static_cast<const AttrRefExpr&>(*b.lhs()).index();
        size_t j = static_cast<const AttrRefExpr&>(*b.rhs()).index();
        bool same_domain = i < combined_schema.arity() &&
                           j < combined_schema.arity() &&
                           combined_schema.TypeOf(i) == combined_schema.TypeOf(j);
        if (!same_domain) {
          // Mixed-domain equality (e.g. int vs decimal) promotes before
          // comparing; hash-key equality would not, so keep it residual.
        } else if (i < left_arity && j >= left_arity) {
          left_keys->push_back(i);
          right_keys->push_back(j - left_arity);
          is_key = true;
        } else if (j < left_arity && i >= left_arity) {
          left_keys->push_back(j);
          right_keys->push_back(i - left_arity);
          is_key = true;
        }
      }
    }
    if (!is_key) rest.push_back(c);
  }
  *residual = rest.empty() ? nullptr : CombineConjuncts(rest);
  return !left_keys->empty();
}

}  // namespace exec
}  // namespace mra
