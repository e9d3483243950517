#include "mra/exec/hash_ops.h"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "mra/expr/eval.h"
#include "mra/obs/metrics.h"
#include "mra/parallel/worker_pool.h"

namespace mra {
namespace exec {

namespace {

using parallel::WorkerPool;

constexpr size_t kNone = static_cast<size_t>(-1);

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process-wide hash-operator volumes, added once per operator Close (not
// per row).
void CountHashRows(uint64_t build_rows, uint64_t probe_rows) {
  static obs::Counter* build =
      obs::MetricsRegistry::Global().GetCounter("hash.build_rows");
  static obs::Counter* probe =
      obs::MetricsRegistry::Global().GetCounter("hash.probe_rows");
  build->Inc(build_rows);
  if (probe_rows > 0) probe->Inc(probe_rows);
}

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Same coarse budget estimate the materialising operators use.
uint64_t ApproxRowBytes(const Row& row) {
  uint64_t bytes = sizeof(Row) + row.tuple.arity() * sizeof(Value);
  for (const Value& v : row.tuple.values()) {
    if (v.kind() == TypeKind::kString) bytes += v.string_value().capacity();
  }
  return bytes;
}

/// The shared child cursor: each Pull hands the calling lane one morsel
/// (one RowBatch) under a mutex.  The mutex also serializes the child
/// subtree's own metrics and budget charges, so single-threaded operators
/// below a parallel one stay race-free.  The first error — the child's or
/// one a lane reports through Abort() — latches and ends every lane's
/// loop.
class MorselSource {
 public:
  MorselSource(PhysicalOperator* child, size_t morsel_size)
      : child_(child), morsel_size_(morsel_size) {}

  /// Fills `out` with the next morsel; false at end of stream or once an
  /// error has latched.
  bool Pull(RowBatch* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (done_ || !status_.ok()) return false;
    out->SetCapacity(morsel_size_);
    Status s = child_->NextBatch(*out);
    if (!s.ok()) {
      status_ = s;
      return false;
    }
    if (out->empty()) {
      done_ = true;
      return false;
    }
    return true;
  }

  /// Latches a lane-local error (evaluation failure, governance kill) so
  /// the other lanes wind down at their next Pull.
  void Abort(const Status& s) {
    std::lock_guard<std::mutex> lock(mu_);
    if (status_.ok()) status_ = s;
  }

  Status status() {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

 private:
  std::mutex mu_;
  PhysicalOperator* child_;
  size_t morsel_size_;
  bool done_ = false;
  Status status_;
};

/// Per-phase lane bookkeeping: a Status slot per lane (first non-OK wins
/// at the join) and the summed busy time feeding OperatorMetrics::cpu_ns.
struct Phase {
  explicit Phase(size_t lanes) : status(lanes) {}

  Status First() const {
    for (const Status& s : status) {
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  std::vector<Status> status;
  std::atomic<uint64_t> cpu_ns{0};
};

}  // namespace

// --- HashJoinOp. ---

HashJoinOp::HashJoinOp(std::vector<size_t> left_keys,
                       std::vector<size_t> right_keys, ExprPtr residual_or_null,
                       PhysOpPtr left, PhysOpPtr right, size_t workers,
                       size_t morsel_size)
    : left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual_or_null)),
      schema_(left->schema().Concat(right->schema())),
      left_(std::move(left)),
      right_(std::move(right)),
      workers_(workers),
      morsel_size_(morsel_size == 0 ? kDefaultBatchSize : morsel_size) {
  MRA_CHECK_EQ(left_keys_.size(), right_keys_.size());
  MRA_CHECK(!left_keys_.empty())
      << "HashJoin requires at least one key pair";
}

Status HashJoinOp::OpenImpl() {
  staged_.clear();
  partitions_.clear();
  out_.clear();
  emit_lane_ = 0;
  emit_pos_ = 0;
  streaming_probe_ = false;
  probe_batch_.Clear();
  probe_pos_ = 0;
  chain_ = kNone;

  WorkerPool& pool = WorkerPool::Global();
  WorkerPool::Lease lease = pool.Admit(workers_);
  const size_t lanes = lease.lanes();
  metrics_.workers = static_cast<uint32_t>(lanes);
  // A one-lane lease (workers <= 1, or a saturated pool that shed the
  // admission to serial) takes the fast path: direct build into a single
  // arena and a streaming probe, skipping the staging pass, the radix
  // routing and the output materialisation below.
  if (lanes == 1) return OpenSerial();
  // A few partitions per lane so the dynamic claim evens out skewed key
  // distributions.
  const size_t parts = NextPow2(4 * lanes);
  const size_t mask = parts - 1;
  ExecContext* ctx = exec_context();
  const bool governed = ctx != nullptr;
  std::vector<std::atomic<uint64_t>> lane_bytes(lanes);
  auto fold_footprint = [&]() -> Status {  // Lane 0 / query thread only.
    uint64_t total = 0;
    for (const auto& b : lane_bytes) {
      total += b.load(std::memory_order_relaxed);
    }
    return ChargeMemTo(total);
  };

  // --- Phase 1: radix-partition the build side. ---
  MRA_RETURN_IF_ERROR(right_->Open());
  staged_.assign(lanes, std::vector<std::vector<Row>>(parts));
  {
    Phase phase(lanes);
    MorselSource source(right_.get(), morsel_size_);
    std::atomic<uint64_t> total_rows{0};
    pool.ParallelFor(lease, [&](size_t lane) {
      uint64_t t0 = NowNs();
      RowBatch morsel(morsel_size_);
      std::vector<std::vector<Row>>& stage = staged_[lane];
      uint64_t rows = 0;
      uint64_t bytes = 0;
      while (true) {
        if (ctx != nullptr) {
          Status g = ctx->Check();
          if (!g.ok()) {
            phase.status[lane] = g;
            source.Abort(g);
            break;
          }
        }
        if (!source.Pull(&morsel)) break;
        rows += morsel.size();
        for (Row& row : morsel) {
          size_t p = row.tuple.HashKey(right_keys_) & mask;
          if (governed) bytes += ApproxRowBytes(row);
          stage[p].push_back(std::move(row));
        }
        if (governed) {
          lane_bytes[lane].store(bytes, std::memory_order_relaxed);
          if (lane == 0) {
            Status charged = fold_footprint();
            if (!charged.ok()) {
              phase.status[lane] = charged;
              source.Abort(charged);
              break;
            }
          }
        }
      }
      total_rows.fetch_add(rows, std::memory_order_relaxed);
      phase.cpu_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    });
    metrics_.cpu_ns += phase.cpu_ns.load(std::memory_order_relaxed);
    metrics_.build_rows = total_rows.load(std::memory_order_relaxed);
    MRA_RETURN_IF_ERROR(source.status());
    MRA_RETURN_IF_ERROR(phase.First());
  }
  right_->Close();
  if (governed) MRA_RETURN_IF_ERROR(fold_footprint());

  // --- Phase 2: build one private arena per partition.  Lanes claim
  // partitions off a shared counter; a partition folds every lane's
  // staged rows for it, so each arena is built by exactly one thread. ---
  partitions_ = std::vector<Partition>(parts);
  {
    Phase phase(lanes);
    std::atomic<size_t> claim{0};
    pool.ParallelFor(lease, [&](size_t lane) {
      uint64_t t0 = NowNs();
      while (true) {
        size_t p = claim.fetch_add(1, std::memory_order_relaxed);
        if (p >= parts) break;
        if (ctx != nullptr) {
          Status g = ctx->Check();
          if (!g.ok()) {
            phase.status[lane] = g;
            break;
          }
        }
        Partition& part = partitions_[p];
        for (size_t l = 0; l < lanes; ++l) {
          for (Row& row : staged_[l][p]) {
            bool inserted = false;
            size_t id = part.index.InsertKey(row.tuple, right_keys_,
                                             &inserted);
            if (inserted) part.heads.push_back(kNone);
            part.next.push_back(part.heads[id]);
            part.heads[id] = part.rows.size();
            part.rows.push_back(std::move(row));
          }
          // Release staged storage as it is consumed, partition by
          // partition, so peak memory is staged + one arena, not 2x.
          staged_[l][p] = std::vector<Row>();
        }
      }
      phase.cpu_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    });
    metrics_.cpu_ns += phase.cpu_ns.load(std::memory_order_relaxed);
    MRA_RETURN_IF_ERROR(phase.First());
  }
  staged_.clear();
  uint64_t arena_bytes = 0;
  size_t entries = 0;
  for (const Partition& part : partitions_) {
    arena_bytes += part.ApproxBytes();
    entries += part.index.size();
  }
  metrics_.peak_hash_entries = entries;
  MRA_RETURN_IF_ERROR(NoteHashFootprint(arena_bytes));
  for (auto& b : lane_bytes) b.store(0, std::memory_order_relaxed);

  // --- Phase 3: probe morsels route by the same radix into read-only
  // partitions; each lane appends matches to its private output. ---
  MRA_RETURN_IF_ERROR(left_->Open());
  out_.assign(lanes, {});
  {
    Phase phase(lanes);
    MorselSource source(left_.get(), morsel_size_);
    std::atomic<uint64_t> total_rows{0};
    pool.ParallelFor(lease, [&](size_t lane) {
      uint64_t t0 = NowNs();
      RowBatch morsel(morsel_size_);
      std::vector<Row>& sink = out_[lane];
      uint64_t rows = 0;
      uint64_t bytes = 0;
      auto process = [&](const RowBatch& batch) -> Status {
        for (const Row& probe : batch) {
          size_t p = probe.tuple.HashKey(left_keys_) & mask;
          const Partition& part = partitions_[p];
          size_t id = part.index.FindKey(probe.tuple, left_keys_);
          if (id == HashKeyIndex::kNotFound) continue;
          for (size_t c = part.heads[id]; c != kNone; c = part.next[c]) {
            Tuple combined = probe.tuple.Concat(part.rows[c].tuple);
            if (residual_ != nullptr) {
              MRA_ASSIGN_OR_RETURN(bool keep,
                                   EvalPredicate(*residual_, combined));
              if (!keep) continue;
            }
            if (governed) {
              bytes += sizeof(Row) + combined.arity() * sizeof(Value);
            }
            sink.push_back(
                Row{std::move(combined), probe.count * part.rows[c].count});
          }
        }
        return Status::OK();
      };
      while (true) {
        if (ctx != nullptr) {
          Status g = ctx->Check();
          if (!g.ok()) {
            phase.status[lane] = g;
            source.Abort(g);
            break;
          }
        }
        if (!source.Pull(&morsel)) break;
        rows += morsel.size();
        Status s = process(morsel);
        if (!s.ok()) {
          phase.status[lane] = s;
          source.Abort(s);
          break;
        }
        if (governed) {
          lane_bytes[lane].store(bytes, std::memory_order_relaxed);
          if (lane == 0) {
            Status charged = ChargeMemTo(arena_bytes + [&] {
              uint64_t total = 0;
              for (const auto& b : lane_bytes) {
                total += b.load(std::memory_order_relaxed);
              }
              return total;
            }());
            if (!charged.ok()) {
              phase.status[lane] = charged;
              source.Abort(charged);
              break;
            }
          }
        }
      }
      total_rows.fetch_add(rows, std::memory_order_relaxed);
      phase.cpu_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    });
    metrics_.cpu_ns += phase.cpu_ns.load(std::memory_order_relaxed);
    metrics_.probe_rows = total_rows.load(std::memory_order_relaxed);
    MRA_RETURN_IF_ERROR(source.status());
    MRA_RETURN_IF_ERROR(phase.First());
    if (governed) {
      uint64_t total = arena_bytes;
      for (const auto& b : lane_bytes) {
        total += b.load(std::memory_order_relaxed);
      }
      MRA_RETURN_IF_ERROR(ChargeMemTo(total));
    }
  }
  left_->Close();
  return Status::OK();
}

// One-lane fast path: the build lands straight in partitions_[0] (same
// arena layout, no staging pass) and NextBatch streams the probe.
// Governance still lands per batch: the children's own NextBatch wrappers
// check the context, and the footprint notes below charge the budget as
// the arena grows.  Rows with the same key chain newest first — chain
// order only permutes output order, which the bag stream convention does
// not observe.
Status HashJoinOp::OpenSerial() {
  partitions_ = std::vector<Partition>(1);
  Partition& part = partitions_[0];
  uint64_t t0 = NowNs();
  MRA_RETURN_IF_ERROR(right_->Open());
  RowBatch batch(morsel_size_);
  while (true) {
    MRA_RETURN_IF_ERROR(right_->NextBatch(batch));
    if (batch.empty()) break;
    for (Row& row : batch) {
      bool inserted = false;
      size_t id = part.index.InsertKey(row.tuple, right_keys_, &inserted);
      if (inserted) part.heads.push_back(kNone);
      part.next.push_back(part.heads[id]);
      part.heads[id] = part.rows.size();
      part.rows.push_back(std::move(row));
    }
    MRA_RETURN_IF_ERROR(NoteHashFootprint(part.ApproxBytes()));
  }
  right_->Close();

  metrics_.build_rows = part.rows.size();
  metrics_.peak_hash_entries = part.index.size();
  metrics_.cpu_ns += NowNs() - t0;
  MRA_RETURN_IF_ERROR(NoteHashFootprint(part.ApproxBytes()));
  probe_batch_.SetCapacity(morsel_size_);
  streaming_probe_ = true;
  return left_->Open();
}

Status HashJoinOp::StreamBatch(RowBatch& out) {
  const Partition& part = partitions_[0];
  while (!out.full()) {
    if (chain_ == kNone) {
      if (probe_pos_ == probe_batch_.size()) {
        MRA_RETURN_IF_ERROR(left_->NextBatch(probe_batch_));
        probe_pos_ = 0;
        if (probe_batch_.empty()) return Status::OK();
      }
      ++metrics_.probe_rows;
      size_t id = part.index.FindKey(probe_batch_[probe_pos_].tuple,
                                     left_keys_);
      if (id == HashKeyIndex::kNotFound || part.heads[id] == kNone) {
        ++probe_pos_;
        continue;
      }
      chain_ = part.heads[id];
    }
    // Concat into a recycled slot; on residual rejection truncate it back
    // off.
    const Row& probe = probe_batch_[probe_pos_];
    Row& slot = out.AppendSlot();
    slot.tuple.AssignConcat(probe.tuple, part.rows[chain_].tuple);
    slot.count = probe.count * part.rows[chain_].count;
    if (residual_ != nullptr) {
      MRA_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*residual_, slot.tuple));
      if (!keep) out.Truncate(out.size() - 1);
    }
    chain_ = part.next[chain_];
    if (chain_ == kNone) ++probe_pos_;
  }
  return Status::OK();
}

Status HashJoinOp::NextBatchImpl(RowBatch& out) {
  if (streaming_probe_) return StreamBatch(out);
  while (!out.full()) {
    if (emit_lane_ >= out_.size()) return Status::OK();
    std::vector<Row>& lane_out = out_[emit_lane_];
    if (emit_pos_ >= lane_out.size()) {
      ++emit_lane_;
      emit_pos_ = 0;
      continue;
    }
    Row& r = lane_out[emit_pos_++];
    Row& slot = out.AppendSlot();
    slot.tuple = std::move(r.tuple);
    slot.count = r.count;
  }
  return Status::OK();
}

void HashJoinOp::CloseImpl() {
  CountHashRows(metrics_.build_rows, metrics_.probe_rows);
  staged_.clear();
  partitions_.clear();
  out_.clear();
  emit_lane_ = 0;
  emit_pos_ = 0;
  streaming_probe_ = false;
  probe_batch_.Clear();
  probe_pos_ = 0;
  chain_ = kNone;
  // Children were closed at the end of their phases on the success path;
  // Close is idempotent, so this also covers unwinds.
  left_->Close();
  right_->Close();
}

// --- HashGroupByOp. ---

HashGroupByOp::HashGroupByOp(std::vector<size_t> keys,
                             std::vector<AggSpec> aggs,
                             RelationSchema output_schema, PhysOpPtr child,
                             size_t workers, size_t morsel_size)
    : keys_(std::move(keys)),
      aggs_(std::move(aggs)),
      schema_(std::move(output_schema)),
      child_(std::move(child)),
      workers_(workers),
      morsel_size_(morsel_size == 0 ? kDefaultBatchSize : morsel_size) {
  agg_types_.reserve(aggs_.size());
  for (const AggSpec& agg : aggs_) {
    agg_types_.push_back(child_->schema().TypeOf(agg.attr));
  }
  key_identity_.resize(keys_.size());
  for (size_t i = 0; i < keys_.size(); ++i) key_identity_[i] = i;
}

Status HashGroupByOp::OpenImpl() {
  lane_tables_.clear();
  merged_.clear();
  emit_part_ = 0;
  emit_pos_ = 0;

  WorkerPool& pool = WorkerPool::Global();
  WorkerPool::Lease lease = pool.Admit(workers_);
  const size_t lanes = lease.lanes();
  // Key-free aggregation has a single global group: one partition, merged
  // serially — the classic two-phase shape.
  const size_t parts =
      (lanes == 1 || keys_.empty()) ? 1 : NextPow2(4 * lanes);
  const size_t mask = parts - 1;
  metrics_.workers = static_cast<uint32_t>(lanes);
  ExecContext* ctx = exec_context();
  const bool governed = ctx != nullptr;
  const size_t num_aggs = aggs_.size();
  std::vector<std::atomic<uint64_t>> lane_bytes(lanes);
  auto fold_footprint = [&]() -> Status {
    uint64_t total = 0;
    for (const auto& b : lane_bytes) {
      total += b.load(std::memory_order_relaxed);
    }
    return NoteHashFootprint(total);
  };

  // --- Phase 1: per-lane pre-aggregation, radix-routed by group key.
  // Folding rows into lane-local accumulators both shrinks the merge and
  // is the parallel speedup: Definition 3.3's aggregates commute with
  // partitioning, so partial per-lane states are exact. ---
  MRA_RETURN_IF_ERROR(child_->Open());
  lane_tables_.resize(lanes);
  for (auto& tables : lane_tables_) {
    tables = std::vector<GroupTable>(parts);
  }
  size_t pre_merge_entries = 0;
  {
    Phase phase(lanes);
    MorselSource source(child_.get(), morsel_size_);
    std::atomic<uint64_t> total_rows{0};
    pool.ParallelFor(lease, [&](size_t lane) {
      uint64_t t0 = NowNs();
      RowBatch morsel(morsel_size_);
      std::vector<GroupTable>& tables = lane_tables_[lane];
      uint64_t rows = 0;
      while (true) {
        if (ctx != nullptr) {
          Status g = ctx->Check();
          if (!g.ok()) {
            phase.status[lane] = g;
            source.Abort(g);
            break;
          }
        }
        if (!source.Pull(&morsel)) break;
        rows += morsel.size();
        for (const Row& row : morsel) {
          size_t p = parts == 1 ? 0 : row.tuple.HashKey(keys_) & mask;
          GroupTable& table = tables[p];
          bool inserted = false;
          size_t id = table.index.InsertKey(row.tuple, keys_, &inserted);
          if (inserted) {
            for (size_t i = 0; i < num_aggs; ++i) {
              table.accs.emplace_back(aggs_[i].kind, agg_types_[i]);
            }
          }
          for (size_t i = 0; i < num_aggs; ++i) {
            table.accs[id * num_aggs + i].Add(row.tuple.at(aggs_[i].attr),
                                              row.count);
          }
        }
        if (governed) {
          uint64_t bytes = 0;
          for (const GroupTable& t : tables) bytes += t.ApproxBytes();
          lane_bytes[lane].store(bytes, std::memory_order_relaxed);
          if (lane == 0) {
            Status charged = fold_footprint();
            if (!charged.ok()) {
              phase.status[lane] = charged;
              source.Abort(charged);
              break;
            }
          }
        }
      }
      total_rows.fetch_add(rows, std::memory_order_relaxed);
      phase.cpu_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    });
    metrics_.cpu_ns += phase.cpu_ns.load(std::memory_order_relaxed);
    metrics_.build_rows = total_rows.load(std::memory_order_relaxed);
    MRA_RETURN_IF_ERROR(source.status());
    MRA_RETURN_IF_ERROR(phase.First());
  }
  child_->Close();
  uint64_t pass1_bytes = 0;
  for (const auto& tables : lane_tables_) {
    for (const GroupTable& t : tables) {
      pass1_bytes += t.ApproxBytes();
      pre_merge_entries += t.index.size();
    }
  }
  MRA_RETURN_IF_ERROR(NoteHashFootprint(pass1_bytes));

  // --- Phase 2: merge each partition across lanes.  Lane 0's table seeds
  // the merge; other lanes' groups re-key on the stored key tuple and
  // their accumulators fold in with AggAccumulator::Merge. ---
  merged_ = std::vector<GroupTable>(parts);
  {
    Phase phase(lanes);
    std::atomic<size_t> claim{0};
    pool.ParallelFor(lease, [&](size_t lane) {
      uint64_t t0 = NowNs();
      while (true) {
        size_t p = claim.fetch_add(1, std::memory_order_relaxed);
        if (p >= parts) break;
        if (ctx != nullptr) {
          Status g = ctx->Check();
          if (!g.ok()) {
            phase.status[lane] = g;
            break;
          }
        }
        GroupTable& m = merged_[p];
        m = std::move(lane_tables_[0][p]);
        for (size_t l = 1; l < lanes; ++l) {
          GroupTable& t = lane_tables_[l][p];
          for (size_t id = 0; id < t.index.size(); ++id) {
            bool inserted = false;
            size_t mid =
                m.index.InsertKey(t.index.key(id), key_identity_, &inserted);
            if (inserted) {
              for (size_t i = 0; i < num_aggs; ++i) {
                m.accs.emplace_back(aggs_[i].kind, agg_types_[i]);
              }
            }
            for (size_t i = 0; i < num_aggs; ++i) {
              m.accs[mid * num_aggs + i].Merge(t.accs[id * num_aggs + i]);
            }
          }
          t = GroupTable();  // Free as consumed.
        }
      }
      phase.cpu_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    });
    metrics_.cpu_ns += phase.cpu_ns.load(std::memory_order_relaxed);
    MRA_RETURN_IF_ERROR(phase.First());
  }
  lane_tables_.clear();

  // Def 3.3: Γ over an empty relation with no grouping attributes still
  // denotes the one global group (whose AVG/MIN/MAX are then undefined).
  if (keys_.empty() && merged_[0].index.empty()) {
    bool inserted = false;
    merged_[0].index.InsertKey(Tuple{}, keys_, &inserted);
    for (size_t i = 0; i < num_aggs; ++i) {
      merged_[0].accs.emplace_back(aggs_[i].kind, agg_types_[i]);
    }
  }

  size_t groups = 0;
  uint64_t merged_bytes = 0;
  for (const GroupTable& m : merged_) {
    groups += m.index.size();
    merged_bytes += m.ApproxBytes();
  }
  metrics_.distinct_rows = groups;
  metrics_.peak_hash_entries = std::max(pre_merge_entries, groups);
  // hash_bytes already high-watered at pass-1 peak; re-charge down to the
  // merged arena, which is what emission holds.
  MRA_RETURN_IF_ERROR(ChargeMemTo(merged_bytes));
  return Status::OK();
}

Result<Row> HashGroupByOp::EmitGroup(const GroupTable& table,
                                             size_t id) {
  // Finish() is where Def 3.3's partiality surfaces: AVG/MIN/MAX over an
  // empty group return kUndefined, which propagates out of Next/NextBatch.
  std::vector<Value> values = table.index.key(id).values();
  values.reserve(keys_.size() + aggs_.size());
  for (size_t i = 0; i < aggs_.size(); ++i) {
    MRA_ASSIGN_OR_RETURN(Value v,
                         table.accs[id * aggs_.size() + i].Finish());
    values.push_back(std::move(v));
  }
  return Row{Tuple(std::move(values)), 1};
}

Status HashGroupByOp::NextBatchImpl(RowBatch& out) {
  while (!out.full()) {
    if (emit_part_ >= merged_.size()) return Status::OK();
    if (emit_pos_ >= merged_[emit_part_].index.size()) {
      ++emit_part_;
      emit_pos_ = 0;
      continue;
    }
    MRA_ASSIGN_OR_RETURN(Row row, EmitGroup(merged_[emit_part_], emit_pos_));
    ++emit_pos_;
    Row& slot = out.AppendSlot();
    slot.tuple = std::move(row.tuple);
    slot.count = row.count;
  }
  return Status::OK();
}

void HashGroupByOp::CloseImpl() {
  CountHashRows(metrics_.build_rows, 0);
  lane_tables_.clear();
  merged_.clear();
  emit_part_ = 0;
  emit_pos_ = 0;
  child_->Close();
}

// --- DedupOp. ---

DedupOp::DedupOp(PhysOpPtr child, size_t workers, size_t morsel_size)
    : child_(std::move(child)),
      workers_(workers),
      morsel_size_(morsel_size == 0 ? kDefaultBatchSize : morsel_size) {
  identity_.resize(child_->schema().arity());
  for (size_t i = 0; i < identity_.size(); ++i) identity_[i] = i;
}

Status DedupOp::OpenImpl() {
  lane_seen_.clear();
  merged_.clear();
  emit_part_ = 0;
  emit_pos_ = 0;
  seen_.Reset();

  WorkerPool& pool = WorkerPool::Global();
  WorkerPool::Lease lease = pool.Admit(workers_);
  const size_t lanes = lease.lanes();
  metrics_.workers = static_cast<uint32_t>(lanes);
  // One lane streams: NextBatch dedups each child batch in place.
  streaming_ = lanes == 1;
  if (streaming_) return child_->Open();
  const size_t parts = NextPow2(4 * lanes);
  const size_t mask = parts - 1;
  ExecContext* ctx = exec_context();
  const bool governed = ctx != nullptr;
  std::vector<std::atomic<uint64_t>> lane_bytes(lanes);

  // --- Phase 1: per-lane pre-dedup, radix-routed on the whole tuple. ---
  MRA_RETURN_IF_ERROR(child_->Open());
  lane_seen_.resize(lanes);
  for (auto& seen : lane_seen_) {
    seen = std::vector<HashKeyIndex>(parts);
  }
  {
    Phase phase(lanes);
    MorselSource source(child_.get(), morsel_size_);
    std::atomic<uint64_t> total_rows{0};
    pool.ParallelFor(lease, [&](size_t lane) {
      uint64_t t0 = NowNs();
      RowBatch morsel(morsel_size_);
      std::vector<HashKeyIndex>& seen = lane_seen_[lane];
      uint64_t rows = 0;
      while (true) {
        if (ctx != nullptr) {
          Status g = ctx->Check();
          if (!g.ok()) {
            phase.status[lane] = g;
            source.Abort(g);
            break;
          }
        }
        if (!source.Pull(&morsel)) break;
        rows += morsel.size();
        for (const Row& row : morsel) {
          size_t p = row.tuple.HashKey(identity_) & mask;
          bool inserted = false;
          seen[p].InsertKey(row.tuple, identity_, &inserted);
        }
        if (governed) {
          uint64_t bytes = 0;
          for (const HashKeyIndex& s : seen) bytes += s.ApproxBytes();
          lane_bytes[lane].store(bytes, std::memory_order_relaxed);
          if (lane == 0) {
            uint64_t total = 0;
            for (const auto& b : lane_bytes) {
              total += b.load(std::memory_order_relaxed);
            }
            Status charged = NoteHashFootprint(total);
            if (!charged.ok()) {
              phase.status[lane] = charged;
              source.Abort(charged);
              break;
            }
          }
        }
      }
      total_rows.fetch_add(rows, std::memory_order_relaxed);
      phase.cpu_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    });
    metrics_.cpu_ns += phase.cpu_ns.load(std::memory_order_relaxed);
    metrics_.build_rows = total_rows.load(std::memory_order_relaxed);
    MRA_RETURN_IF_ERROR(source.status());
    MRA_RETURN_IF_ERROR(phase.First());
  }
  child_->Close();
  uint64_t pass1_bytes = 0;
  size_t pre_merge_entries = 0;
  for (const auto& seen : lane_seen_) {
    for (const HashKeyIndex& s : seen) {
      pass1_bytes += s.ApproxBytes();
      pre_merge_entries += s.size();
    }
  }
  MRA_RETURN_IF_ERROR(NoteHashFootprint(pass1_bytes));

  // --- Phase 2: partition-wise union of supports across lanes. ---
  merged_ = std::vector<HashKeyIndex>(parts);
  {
    Phase phase(lanes);
    std::atomic<size_t> claim{0};
    pool.ParallelFor(lease, [&](size_t lane) {
      uint64_t t0 = NowNs();
      while (true) {
        size_t p = claim.fetch_add(1, std::memory_order_relaxed);
        if (p >= parts) break;
        if (ctx != nullptr) {
          Status g = ctx->Check();
          if (!g.ok()) {
            phase.status[lane] = g;
            break;
          }
        }
        HashKeyIndex& m = merged_[p];
        m = std::move(lane_seen_[0][p]);
        for (size_t l = 1; l < lanes; ++l) {
          HashKeyIndex& s = lane_seen_[l][p];
          for (size_t id = 0; id < s.size(); ++id) {
            bool inserted = false;
            m.InsertKey(s.key(id), identity_, &inserted);
          }
          s = HashKeyIndex();  // Free as consumed.
        }
      }
      phase.cpu_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    });
    metrics_.cpu_ns += phase.cpu_ns.load(std::memory_order_relaxed);
    MRA_RETURN_IF_ERROR(phase.First());
  }
  lane_seen_.clear();

  size_t distinct = 0;
  uint64_t merged_bytes = 0;
  for (const HashKeyIndex& m : merged_) {
    distinct += m.size();
    merged_bytes += m.ApproxBytes();
  }
  metrics_.distinct_rows = distinct;
  metrics_.peak_hash_entries = std::max(pre_merge_entries, distinct);
  MRA_RETURN_IF_ERROR(ChargeMemTo(merged_bytes));
  return Status::OK();
}

Status DedupOp::StreamBatch(RowBatch& out) {
  // In place like FilterOp: the child fills `out`, first occurrences are
  // compacted to the front with multiplicity 1, duplicates stay parked for
  // the child's next refill.  Pull again until something survives or the
  // child drains.
  while (true) {
    MRA_RETURN_IF_ERROR(child_->NextBatch(out));
    if (out.empty()) return Status::OK();
    metrics_.build_rows += out.size();
    size_t kept = 0;
    for (size_t i = 0; i < out.size(); ++i) {
      bool inserted = false;
      seen_.InsertKey(out[i].tuple, identity_, &inserted);
      if (inserted) {
        if (kept != i) std::swap(out[kept], out[i]);
        out[kept].count = 1;
        ++kept;
      }
    }
    out.Truncate(kept);
    MRA_RETURN_IF_ERROR(NoteHashFootprint(seen_.ApproxBytes()));
    if (kept > 0) return Status::OK();
  }
}

Status DedupOp::NextBatchImpl(RowBatch& out) {
  if (streaming_) return StreamBatch(out);
  while (!out.full()) {
    if (emit_part_ >= merged_.size()) return Status::OK();
    if (emit_pos_ >= merged_[emit_part_].size()) {
      ++emit_part_;
      emit_pos_ = 0;
      continue;
    }
    Row& slot = out.AppendSlot();
    slot.tuple = merged_[emit_part_].key(emit_pos_++);
    slot.count = 1;
  }
  return Status::OK();
}

void DedupOp::CloseImpl() {
  if (streaming_) {
    metrics_.distinct_rows = seen_.size();
    metrics_.peak_hash_entries = seen_.size();
    seen_.Reset();
    streaming_ = false;
  }
  CountHashRows(metrics_.build_rows, 0);
  lane_seen_.clear();
  merged_.clear();
  emit_part_ = 0;
  emit_pos_ = 0;
  child_->Close();
}

}  // namespace exec
}  // namespace mra
