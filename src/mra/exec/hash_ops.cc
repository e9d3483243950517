#include "mra/exec/hash_ops.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <mutex>

#include "mra/common/annotation.h"
#include "mra/expr/eval.h"
#include "mra/obs/metrics.h"
#include "mra/parallel/worker_pool.h"

namespace mra {
namespace exec {

namespace {

using parallel::WorkerPool;

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

// The partition of a key hash among 2^bits: its top bits.  The key
// indexes place a key by the hash's low bits, so routing on those too
// would crowd every partition's keys onto 1/P of its index slots.
size_t PartitionOf(size_t hash, int bits) {
  static_assert(sizeof(size_t) == sizeof(uint64_t));
  return bits == 0 ? 0 : hash >> (64 - bits);
}

// Lanes of a RunLanes drain that pulled no morsel while another lane did:
// a fan-out that ran serially, whatever its lease.
obs::Counter* IdleLanes() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("parallel.idle_lanes");
  return c;
}

/// The first error any lane reports; once one has latched, every lane's
/// loop ends before its next morsel.
class ErrorLatch {
 public:
  void Set(const Status& s) {
    std::lock_guard<std::mutex> lock(mu_);
    if (status_.ok()) status_ = s;
    stop_.store(true, std::memory_order_relaxed);
  }
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }
  Status status() {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

 private:
  std::mutex mu_;
  std::atomic<bool> stop_{false};
  Status status_;
};

/// One morsel-driven pass over `child`: opens it for the lease's lanes,
/// calls opened() — where the kernel sizes its tables, after every build
/// below it — and runs the lanes until each has drained.  A lane checks
/// the ExecContext, pulls its next morsel with NextBatch(morsel, lane) and
/// hands it to consume(lane, morsel); lane 0, always the query thread and
/// the only lane that charges memory, then calls charge().  Adds the
/// lanes' busy time, less time waiting at a serialised cursor, to *cpu_ns
/// and the pulled rows to *rows, counts the lanes that pulled nothing in a
/// drain that pulled something into parallel.idle_lanes, and returns the
/// first error.  At the join the child closes, whether or not the pass
/// failed.
template <typename Opened, typename Consume, typename Charge>
Status DrainChild(const WorkerPool::Lease& lease, ExecContext* ctx,
                  PhysicalOperator* child, size_t morsel_size,
                  uint64_t* cpu_ns, uint64_t* rows, Opened opened,
                  Consume consume, Charge charge) {
  MRA_RETURN_IF_ERROR(child->Open(lease.lanes()));
  opened();
  ErrorLatch latch;
  std::atomic<uint64_t> busy_ns{0};
  std::atomic<uint64_t> pulled{0};
  std::atomic<uint64_t> idle{0};
  WorkerPool::Global().ParallelFor(lease, [&](size_t lane) {
    const uint64_t t0 = NowNs();
    const uint64_t waited0 = CursorWaitNs();
    uint64_t n = 0;
    RowBatch morsel(morsel_size);
    while (!latch.stopped()) {
      Status s = ctx != nullptr ? ctx->Check() : Status::OK();
      if (s.ok()) s = child->NextBatch(morsel, lane);
      if (s.ok() && morsel.empty()) break;
      if (s.ok()) {
        n += morsel.size();
        s = consume(lane, morsel);
      }
      if (s.ok() && lane == 0) s = charge();
      if (!s.ok()) {
        latch.Set(s);
        break;
      }
    }
    pulled.fetch_add(n, std::memory_order_relaxed);
    if (n == 0) idle.fetch_add(1, std::memory_order_relaxed);
    busy_ns.fetch_add(NowNs() - t0 - (CursorWaitNs() - waited0),
                      std::memory_order_relaxed);
  });
  *cpu_ns += busy_ns.load(std::memory_order_relaxed);
  const uint64_t total = pulled.load(std::memory_order_relaxed);
  *rows += total;
  if (total > 0 && idle.load(std::memory_order_relaxed) > 0) {
    IdleLanes()->Inc(idle.load(std::memory_order_relaxed));
  }
  // Closing on failure too hands the subtree's budget charges back at
  // once: a killed kernel's Close never reaches an input it opened here.
  child->Close();
  return latch.status();
}

/// One partition-wise phase: the lease's lanes claim partitions
/// [0, parts) off a shared counter and run fn(p) on each, so every
/// partition is touched by exactly one thread; governance is checked per
/// partition.  Adds the lanes' busy time to *cpu_ns.
template <typename Fn>
Status RunPartitionPhase(const WorkerPool::Lease& lease, ExecContext* ctx,
                         size_t parts, uint64_t* cpu_ns, Fn fn) {
  ErrorLatch latch;
  std::atomic<size_t> claim{0};
  std::atomic<uint64_t> busy_ns{0};
  WorkerPool::Global().ParallelFor(lease, [&](size_t) {
    const uint64_t t0 = NowNs();
    while (!latch.stopped()) {
      size_t p = claim.fetch_add(1, std::memory_order_relaxed);
      if (p >= parts) break;
      if (ctx != nullptr) {
        Status g = ctx->Check();
        if (!g.ok()) {
          latch.Set(g);
          break;
        }
      }
      fn(p);
    }
    busy_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  });
  *cpu_ns += busy_ns.load(std::memory_order_relaxed);
  return latch.status();
}

// Takes t = min(c, budget) from a key's budget.
uint64_t TakeBudget(uint64_t c, uint64_t& budget) {
  const uint64_t t = std::min(c, budget);
  budget -= t;
  return t;
}

// What an lhs row with count c that took t of its key's budget emits.
uint64_t Emitted(BagFn fn, uint64_t c, uint64_t t) {
  return fn == BagFn::kDifference ? c - t : t;
}

// Sums the footprints the lanes publish.
uint64_t SumLaneBytes(const std::vector<std::atomic<uint64_t>>& lane_bytes) {
  uint64_t total = 0;
  for (const auto& b : lane_bytes) total += b.load(std::memory_order_relaxed);
  return total;
}

}  // namespace

// --- HashJoinOp. ---

HashJoinOp::HashJoinOp(std::vector<size_t> left_keys,
                       std::vector<size_t> right_keys, ExprPtr residual_or_null,
                       PhysOpPtr left, PhysOpPtr right, size_t workers,
                       size_t morsel_size, uint64_t spill_bytes)
    : left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual_or_null)),
      schema_(left->schema().Concat(right->schema())),
      left_(std::move(left)),
      right_(std::move(right)),
      workers_(workers),
      morsel_size_(morsel_size == 0 ? kDefaultBatchSize : morsel_size),
      spill_bytes_(spill_bytes) {
  MRA_CHECK_EQ(left_keys_.size(), right_keys_.size());
  MRA_CHECK(!left_keys_.empty())
      << "HashJoin requires at least one key pair";
}

HashJoinOp::~HashJoinOp() { RemoveRunFiles(&spill_.files); }

uint64_t HashJoinOp::ArenaBytes(uint64_t rows, uint64_t chains,
                                uint64_t buckets) {
  return rows * (sizeof(Row) + sizeof(size_t)) +
         chains * 2 * sizeof(size_t) + buckets * sizeof(uint64_t);
}

namespace {

// What a resident build row can cost its arena, values aside, counted
// against the spill threshold: its Row and chain link, a chain of its own
// and three index words (at load 7/8, rounded up to a power of two), with
// the vectors' doubling slack.  So the arena a chunk's rows fill stays
// within the threshold whichever growth step it lands on.
const uint64_t kResidentRowBytes = HashJoinOp::ArenaBytes(2, 2, 3);

}  // namespace

void HashJoinOp::Partition::Add(Row&& row, const std::vector<size_t>& keys,
                                size_t hash) {
  bool inserted = false;
  const size_t chain = index.Insert(
      hash, heads.size(),
      [&](size_t c) {
        return row.tuple.KeysEqual(keys, rows[heads[c]].tuple, keys);
      },
      [this](size_t c) { return hashes[c]; }, &inserted);
  if (inserted) {
    heads.push_back(kNone);
    hashes.push_back(hash);
  }
  next.push_back(heads[chain]);
  heads[chain] = rows.size();
  rows.push_back(std::move(row));
}

void HashJoinOp::Partition::Reserve(size_t n) {
  ReserveAmortised(heads, n);
  ReserveAmortised(hashes, n);
  ReserveAmortised(rows, n);
  ReserveAmortised(next, n);
  index.Reserve(n, heads.size(), [this](size_t c) { return hashes[c]; });
}

void HashJoinOp::Reset() {
  partitions_.clear();
  radix_bits_ = 0;
  // The cursors keep their batches' rows, so a reopened probe refills
  // recycled slots.
  for (ProbeCursor& c : lane_probes_) {
    c.batch.Clear();
    c.pos = 0;
    c.part = nullptr;
    c.chain = kNone;
    c.probed = 0;
  }
  // Nothing spilled opens no run, so it has nothing to reset.
  if (!spill_.files.empty()) {
    RemoveRunFiles(&spill_.files);
    spill_ = Spill();
  }
}

Status HashJoinOp::Build() {
  Reset();
  chunks_ = 0;
  WorkerPool::Lease lease = WorkerPool::Global().Admit(workers_);
  const size_t lanes = lease.lanes();
  metrics_.workers = static_cast<uint32_t>(lanes);
  ExecContext* ctx = exec_context();
  const bool governed = ctx != nullptr;
  // A few partitions per lane so the dynamic claim evens out skewed key
  // distributions; one lane fills a single arena with no radix routing.
  const size_t parts = lanes == 1 ? 1 : std::bit_ceil(4 * lanes);
  radix_bits_ = std::countr_zero(parts);
  partitions_ = std::vector<Partition>(parts);
  Partition& single = partitions_[0];
  // The lanes keep build rows, each counted at kResidentRowBytes plus its
  // values, while their sum stays within the spill threshold; a lane that
  // meets a row past it writes that row and all its later ones to its own
  // build run.
  const uint64_t threshold = SpillThreshold(spill_bytes_, ctx);
  const bool capped = threshold != UINT64_MAX;
  std::atomic<uint64_t> resident{0};
  std::vector<RunWriter> runs(capped ? lanes : 0);

  // Phase 1.  One lane adds each build row straight into its arena; more
  // lanes radix-partition the build side, keeping each row's key hash for
  // phase 2.  Every held build row is charged sizeof(Row) and its values
  // once: in the arena's footprint and value_bytes, or while staged.  Once
  // the build side is open the arena, or the staged vectors, take its
  // planned size; the staged charge holds until the staged rows outweigh
  // it.
  uint64_t planned_bytes = 0;
  std::vector<std::vector<Staged>> staged;
  std::vector<std::atomic<uint64_t>> lane_bytes(lanes);
  auto charge = [&] {
    if (lanes == 1) {
      return NoteHashFootprint(single.ApproxBytes(), single.value_bytes);
    }
    return governed ? ChargeMemTo(std::max(planned_bytes,
                                           SumLaneBytes(lane_bytes)))
                    : Status::OK();
  };
  Status drained = DrainChild(
      lease, ctx, right_.get(), morsel_size_, &metrics_.cpu_ns,
      &metrics_.build_rows,
      [&] {
        const size_t planned = PlannedRows(right_->estimated_rows(), ctx);
        if (lanes == 1) {
          single.Reserve(planned);
          return;
        }
        const size_t share = planned / (lanes * parts);
        staged.assign(lanes, std::vector<Staged>(parts));
        for (std::vector<Staged>& stage : staged) {
          for (Staged& part : stage) {
            part.rows.reserve(share);
            part.hashes.reserve(share);
          }
        }
        planned_bytes = share * lanes * parts * (sizeof(Row) + sizeof(size_t));
      },
      [&](size_t lane, RowBatch& morsel) {
        size_t i = 0;
        if (!capped || runs[lane].path().empty()) {
          uint64_t bytes = 0;
          for (; i < morsel.size(); ++i) {
            Row& row = morsel[i];
            const uint64_t values =
                governed || capped ? row.tuple.HeapBytes() : 0;
            const uint64_t cost = kResidentRowBytes + values;
            if (capped && resident.fetch_add(cost) + cost > threshold) break;
            const size_t h = row.tuple.HashKey(right_keys_);
            if (lanes == 1) {
              single.value_bytes += values;
              single.Add(std::move(row), right_keys_, h);
            } else {
              Staged& part = staged[lane][PartitionOf(h, radix_bits_)];
              part.value_bytes += values;
              bytes += sizeof(Row) + values;
              part.rows.push_back(std::move(row));
              part.hashes.push_back(h);
            }
          }
          if (lanes > 1) {
            lane_bytes[lane].fetch_add(bytes, std::memory_order_relaxed);
          }
          if (i == morsel.size()) return Status::OK();
          MRA_RETURN_IF_ERROR(runs[lane].Open());
        }
        for (; i < morsel.size(); ++i) runs[lane].Append(morsel[i]);
        return Status::OK();
      },
      charge);
  // Recorded before any return, so every abort path removes them.
  for (const RunWriter& run : runs) {
    if (!run.path().empty()) spill_.files.push_back(run.path());
  }
  MRA_RETURN_IF_ERROR(drained);
  for (RunWriter& run : runs) {
    if (run.is_open()) MRA_RETURN_IF_ERROR(run.Finish());
  }
  spill_.build_runs = spill_.files.size();

  if (lanes > 1) {
    if (governed) MRA_RETURN_IF_ERROR(charge());
    // Phase 2: one private arena per partition, sized to its staged rows.
    // A partition folds every lane's staged rows for it, so each arena is
    // built by exactly one thread.
    MRA_RETURN_IF_ERROR(RunPartitionPhase(
        lease, ctx, parts, &metrics_.cpu_ns, [&](size_t p) {
          Partition& part = partitions_[p];
          size_t rows = 0;
          for (size_t l = 0; l < lanes; ++l) rows += staged[l][p].rows.size();
          part.Reserve(rows);
          for (size_t l = 0; l < lanes; ++l) {
            Staged& from = staged[l][p];
            for (size_t i = 0; i < from.rows.size(); ++i) {
              part.Add(std::move(from.rows[i]), right_keys_, from.hashes[i]);
            }
            part.value_bytes += from.value_bytes;
            // Release staged storage as it is consumed, partition by
            // partition, so peak memory is staged + one arena, not 2x.
            from = Staged();
          }
        }));
  }
  uint64_t arena_bytes = 0;
  uint64_t value_bytes = 0;
  size_t entries = 0;
  for (const Partition& part : partitions_) {
    arena_bytes += part.ApproxBytes();
    value_bytes += part.value_bytes;
    entries += part.heads.size();
  }
  metrics_.peak_hash_entries = entries;
  if (spill_.build_runs > 0) chunks_ = 1;
  return NoteHashFootprint(arena_bytes, value_bytes);
}

void HashJoinOp::SetProbeLanes(size_t lanes) {
  lane_probes_.resize(lanes);
  for (ProbeCursor& c : lane_probes_) c.batch.SetCapacity(morsel_size_);
}

// The join builds on its own lease, then probes on each lane it is opened
// for, pulling that lane's probe morsels into the caller's recycled
// slots: it holds its build arenas and nothing else.  A join that spilled
// is one cursor whose passes run at lane 0.
Status HashJoinOp::OpenImpl(size_t lanes) {
  if (!base_annotation_captured_) {
    base_annotation_ = annotation();
    base_annotation_captured_ = true;
  }
  set_annotation(base_annotation_);
  Status s = Build();
  if (s.ok()) {
    const size_t probe_lanes = chunks_ == 0 ? lanes : 1;
    SetProbeLanes(probe_lanes);
    s = left_->Open(probe_lanes);
    if (s.ok() && chunks_ > 0) {
      s = spill_.probe_writer.Open();
      spill_.files.push_back(spill_.probe_writer.path());
    }
  }
  // A failed Open gets no Close: the runs go now.
  if (!s.ok()) Reset();
  return s;
}

template <typename Pull>
Status HashJoinOp::Probe(ProbeCursor& c, RowBatch& out, Pull pull) {
  while (!out.full()) {
    if (c.chain == kNone) {
      if (c.pos == c.batch.size()) {
        MRA_RETURN_IF_ERROR(pull(c.batch));
        c.pos = 0;
        if (c.batch.empty()) return Status::OK();
      }
      const Tuple& probe = c.batch[c.pos].tuple;
      ++c.probed;
      const size_t h = probe.HashKey(left_keys_);
      const Partition& part = partitions_[PartitionOf(h, radix_bits_)];
      const size_t chain = part.index.Find(h, [&](size_t id) {
        return probe.KeysEqual(left_keys_, part.rows[part.heads[id]].tuple,
                               right_keys_);
      }).id;
      if (chain == TagIndex::kNotFound) {
        ++c.pos;
        continue;
      }
      c.part = &part;
      c.chain = part.heads[chain];
    }
    // Concat into a recycled slot; on residual rejection truncate it back
    // off.  Rows with the same key chain newest first — chain order only
    // permutes output order, which the bag stream convention does not
    // observe.
    const Row& probe = c.batch[c.pos];
    const Row& build = c.part->rows[c.chain];
    Row& slot = out.AppendSlot();
    slot.tuple.AssignConcat(probe.tuple, build.tuple);
    slot.count = probe.count * build.count;
    if (residual_ != nullptr) {
      MRA_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*residual_, slot.tuple));
      if (!keep) out.Truncate(out.size() - 1);
    }
    c.chain = c.part->next[c.chain];
    if (c.chain == kNone) ++c.pos;
  }
  return Status::OK();
}

Status HashJoinOp::NextBatchImpl(RowBatch& out, size_t lane) {
  ProbeCursor& c = lane_probes_[lane];
  if (chunks_ == 0) {
    return Probe(c, out,
                 [&](RowBatch& b) { return left_->NextBatch(b, lane); });
  }
  // Spilled: pass by pass until `out` fills or the chunks run out.  The
  // first pass tees the probe stream into the probe run; later passes
  // read it back.
  while (true) {
    MRA_RETURN_IF_ERROR(Probe(c, out, [&](RowBatch& b) {
      if (spill_.probe_writer.is_open()) {
        MRA_RETURN_IF_ERROR(left_->NextBatch(b));
        for (const Row& row : b) spill_.probe_writer.Append(row);
        return Status::OK();
      }
      b.Clear();
      if (exec_context() != nullptr) {
        MRA_RETURN_IF_ERROR(exec_context()->Check());
      }
      RunReader& in = spill_.probe_reader;
      while (!b.full() && !in.done()) {
        // Swap, so the reader decodes its next entry into the slot's
        // parked storage.
        Row& slot = b.AppendSlot();
        slot.tuple.Swap(in.current().tuple);
        slot.count = in.current().count;
        MRA_RETURN_IF_ERROR(in.Advance());
      }
      return Status::OK();
    }));
    if (out.full()) return Status::OK();
    MRA_ASSIGN_OR_RETURN(bool more, NextChunk());
    if (!more) return Status::OK();
  }
}

Result<bool> HashJoinOp::NextChunk() {
  // The last chunk goes before the next one loads.
  partitions_.assign(1, Partition());
  radix_bits_ = 0;
  Partition& part = partitions_[0];
  if (spill_.probe_writer.is_open()) {
    MRA_RETURN_IF_ERROR(spill_.probe_writer.Finish());
    left_->Close();
    // No probe row can match a later chunk.
    if (lane_probes_[0].probed == 0) spill_.next_build_run = spill_.build_runs;
  }
  if (exec_context() != nullptr) MRA_RETURN_IF_ERROR(exec_context()->Check());
  // A chunk holds at least one row, however small the threshold.
  const uint64_t threshold = SpillThreshold(spill_bytes_, exec_context());
  RunReader& in = spill_.build_reader;
  for (uint64_t held = 0; held < threshold || part.rows.empty();) {
    if (in.done()) {
      if (spill_.next_build_run == spill_.build_runs) break;
      MRA_RETURN_IF_ERROR(in.Open(spill_.files[spill_.next_build_run++]));
      continue;
    }
    Row& row = in.current();
    const uint64_t values = row.tuple.HeapBytes();
    held += kResidentRowBytes + values;
    part.value_bytes += values;
    const size_t h = row.tuple.HashKey(right_keys_);
    part.Add(std::move(row), right_keys_, h);
    MRA_RETURN_IF_ERROR(in.Advance());
  }
  MRA_RETURN_IF_ERROR(NoteHashFootprint(part.ApproxBytes(), part.value_bytes));
  if (part.rows.empty()) {
    std::string note =
        AnnotationText("spill", std::to_string(chunks_) + " chunks");
    set_annotation(base_annotation_.empty() ? note
                                            : base_annotation_ + ", " + note);
    return false;
  }
  ++chunks_;
  metrics_.peak_hash_entries =
      std::max<uint64_t>(metrics_.peak_hash_entries, part.heads.size());
  MRA_RETURN_IF_ERROR(spill_.probe_reader.Open(spill_.files.back()));
  ProbeCursor& c = lane_probes_[0];
  c.batch.Clear();
  c.pos = 0;
  c.chain = kNone;
  return true;
}

void HashJoinOp::CloseImpl() {
  metrics_.probe_rows = 0;
  for (const ProbeCursor& c : lane_probes_) metrics_.probe_rows += c.probed;
  CountHashRows(metrics_.build_rows, metrics_.probe_rows);
  Reset();
  // Inputs close at the end of their phases on the success path; Close is
  // idempotent, so this also covers unwinds and the probe input.
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
}

Status HashGroupByOp::OpenImpl(size_t) {
  lane_tables_.clear();
  emit_part_ = 0;
  emit_lane_ = 0;
  emit_pos_ = 0;

  WorkerPool::Lease lease = WorkerPool::Global().Admit(workers_);
  const size_t lanes = lease.lanes();
  // Key-free aggregation has a single global group: one partition, merged
  // serially — the classic two-phase shape.
  const size_t parts =
      (lanes == 1 || keys_.empty()) ? 1 : std::bit_ceil(4 * lanes);
  const int bits = std::countr_zero(parts);
  metrics_.workers = static_cast<uint32_t>(lanes);
  ExecContext* ctx = exec_context();
  const bool governed = ctx != nullptr;
  const size_t num_aggs = aggs_.size();
  std::vector<std::atomic<uint64_t>> lane_bytes(lanes);

  // --- Phase 1: per-lane pre-aggregation, radix-routed by group key.
  // Folding rows into lane-local accumulators both shrinks the merge and
  // is the parallel speedup: Definition 3.3's aggregates commute with
  // partitioning, so partial per-lane states are exact. ---
  lane_tables_.resize(lanes);
  for (auto& tables : lane_tables_) tables = std::vector<GroupTable>(parts);
  // Once the input is open, each lane's table for a partition is sized
  // for its lane's share of the partition's estimated groups: together
  // the lanes reserve the estimate once, and a lane that meets more of
  // the groups grows past its share.
  auto reserve = [&] {
    const size_t share = PlannedRows(estimated_rows(), ctx) / (lanes * parts);
    for (auto& tables : lane_tables_) {
      for (GroupTable& table : tables) {
        table.index.Reserve(share);
        table.accs.reserve(share * num_aggs);
      }
    }
  };
  auto consume = [&](size_t lane, RowBatch& morsel) {
    std::vector<GroupTable>& tables = lane_tables_[lane];
    for (const Row& row : morsel) {
      size_t h = row.tuple.HashKey(keys_);
      GroupTable& table = tables[PartitionOf(h, bits)];
      bool inserted = false;
      size_t id = table.index.InsertKey(row.tuple, keys_, h, &inserted);
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
    }
    return Status::OK();
  };
  MRA_RETURN_IF_ERROR(DrainChild(
      lease, ctx, child_.get(), morsel_size_, &metrics_.cpu_ns,
      &metrics_.build_rows, reserve, consume, [&] {
        return governed ? NoteHashFootprint(SumLaneBytes(lane_bytes))
                        : Status::OK();
      }));
  size_t pre_merge_entries = 0;
  uint64_t pass1_bytes = 0;
  for (const auto& tables : lane_tables_) {
    for (const GroupTable& t : tables) {
      pass1_bytes += t.ApproxBytes();
      pre_merge_entries += t.index.size();
    }
  }
  MRA_RETURN_IF_ERROR(NoteHashFootprint(pass1_bytes));

  // --- Phase 2: fold each group into the first lane holding its key.
  // The lanes' tables for one partition are touched by one thread, and a
  // key's earliest holder is found first, so the owner is never folded. ---
  size_t groups = 0;
  if (lanes > 1) {
    std::vector<size_t> owned(parts, 0);
    MRA_RETURN_IF_ERROR(RunPartitionPhase(
        lease, ctx, parts, &metrics_.cpu_ns, [&](size_t p) {
          owned[p] = lane_tables_[0][p].index.size();
          for (size_t l = 1; l < lanes; ++l) {
            GroupTable& t = lane_tables_[l][p];
            t.folded.assign(t.index.size(), false);
            for (size_t id = 0; id < t.index.size(); ++id) {
              for (size_t e = 0; e < l; ++e) {
                GroupTable& owner = lane_tables_[e][p];
                size_t oid =
                    owner.index.FindKey(t.index.key(id), t.index.hash(id));
                if (oid == TagIndex::kNotFound) continue;
                for (size_t i = 0; i < num_aggs; ++i) {
                  owner.accs[oid * num_aggs + i].Merge(
                      t.accs[id * num_aggs + i]);
                }
                t.folded[id] = true;
                break;
              }
              if (!t.folded[id]) ++owned[p];
            }
          }
        }));
    for (size_t n : owned) groups += n;
  } else {
    for (const GroupTable& t : lane_tables_[0]) groups += t.index.size();
  }

  // Def 3.3: Γ over an empty relation with no grouping attributes still
  // denotes the one global group (whose AVG/MIN/MAX are then undefined).
  if (keys_.empty() && groups == 0) {
    GroupTable& global = lane_tables_[0][0];
    bool inserted = false;
    global.index.InsertKey(Tuple{}, keys_, Tuple{}.HashKey(keys_), &inserted);
    for (size_t i = 0; i < num_aggs; ++i) {
      global.accs.emplace_back(aggs_[i].kind, agg_types_[i]);
    }
    groups = 1;
  }

  metrics_.distinct_rows = groups;
  metrics_.peak_hash_entries = std::max(pre_merge_entries, groups);
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

Status HashGroupByOp::NextBatchImpl(RowBatch& out, size_t) {
  // Partition by partition, lane by lane, skipping folded groups.
  while (!out.full()) {
    if (emit_lane_ >= lane_tables_.size()) {
      ++emit_part_;
      emit_lane_ = 0;
    }
    if (lane_tables_.empty() || emit_part_ >= lane_tables_[0].size()) {
      return Status::OK();
    }
    const GroupTable& table = lane_tables_[emit_lane_][emit_part_];
    if (emit_pos_ >= table.index.size()) {
      ++emit_lane_;
      emit_pos_ = 0;
      continue;
    }
    const size_t id = emit_pos_++;
    if (!table.folded.empty() && table.folded[id]) continue;
    MRA_ASSIGN_OR_RETURN(Row row, EmitGroup(table, id));
    Row& slot = out.AppendSlot();
    slot.tuple = std::move(row.tuple);
    slot.count = row.count;
  }
  return Status::OK();
}

void HashGroupByOp::CloseImpl() {
  CountHashRows(metrics_.build_rows, 0);
  lane_tables_.clear();
  emit_part_ = 0;
  emit_lane_ = 0;
  emit_pos_ = 0;
  child_->Close();
}

// --- BagCountOp. ---

BagCountOp::BagCountOp(BagFn fn, PhysOpPtr lhs, PhysOpPtr rhs_or_null,
                       size_t workers, size_t morsel_size)
    : fn_(fn),
      lhs_(std::move(lhs)),
      rhs_(std::move(rhs_or_null)),
      workers_(workers),
      morsel_size_(morsel_size == 0 ? kDefaultBatchSize : morsel_size) {
  MRA_CHECK_EQ(rhs_ == nullptr, fn_ == BagFn::kUnique)
      << "δ takes one input, − and ∩ take two";
  MRA_CHECK(rhs_ == nullptr || lhs_->schema().CompatibleWith(rhs_->schema()))
      << name() << " over incompatible schemas";
  identity_.resize(lhs_->schema().arity());
  for (size_t i = 0; i < identity_.size(); ++i) identity_[i] = i;
}

std::string_view BagCountOp::name() const {
  return fn_ == BagFn::kUnique       ? "Dedup"
         : fn_ == BagFn::kDifference ? "Difference"
                                     : "Intersect";
}

Status BagCountOp::Collapse(const WorkerPool::Lease& lease,
                            PhysicalOperator* child, double estimated_keys,
                            size_t parts, bool counted, uint64_t* rows,
                            uint64_t* bytes) {
  const size_t lanes = lease.lanes();
  const int bits = std::countr_zero(parts);
  const bool governed = exec_context() != nullptr;
  // A lane routes its morsel's rows to their partitions, then inserts each
  // partition's share under that partition's lock, starting from its own
  // offset so the lanes spread over the locks.  It publishes how much the
  // sets grew under its locks.
  struct Route {
    std::vector<size_t> hashes;               // [row of the morsel]
    std::vector<std::vector<uint32_t>> rows;  // [p] the rows routed there
  };
  std::vector<Route> routes(lanes);
  for (Route& route : routes) route.rows.resize(parts);
  std::vector<std::mutex> locks(parts);
  std::vector<std::atomic<uint64_t>> lane_bytes(lanes);
  sets_.assign(parts, {});
  radix_bits_ = bits;
  MRA_RETURN_IF_ERROR(DrainChild(
      lease, exec_context(), child, morsel_size_, &metrics_.cpu_ns, rows,
      [&] {
        const size_t share =
            PlannedRows(estimated_keys, exec_context()) / parts;
        for (CountTable& t : sets_) t.Reserve(share, counted);
      },
      [&](size_t lane, RowBatch& morsel) {
        Route& route = routes[lane];
        route.hashes.resize(morsel.size());
        for (size_t i = 0; i < morsel.size(); ++i) {
          const size_t h = morsel[i].tuple.HashKey(identity_);
          route.hashes[i] = h;
          route.rows[PartitionOf(h, bits)].push_back(static_cast<uint32_t>(i));
        }
        uint64_t grown = 0;
        for (size_t k = 0; k < parts; ++k) {
          const size_t p = (k + lane * (parts / lanes)) % parts;
          std::vector<uint32_t>& share = route.rows[p];
          if (share.empty()) continue;
          CountTable& t = sets_[p];
          std::lock_guard<std::mutex> hold(locks[p]);
          const uint64_t before = t.ApproxBytes();
          for (uint32_t i : share) {
            const Row& row = morsel[i];
            bool inserted = false;
            const size_t id = t.index.InsertKey(row.tuple, identity_,
                                                route.hashes[i], &inserted);
            if (!counted) continue;
            if (inserted) {
              t.counts.push_back(0);
              t.seen.push_back(0);
            }
            uint64_t& sum = t.counts[id];
            if (__builtin_add_overflow(sum, row.count, &sum)) sum = UINT64_MAX;
          }
          grown += t.ApproxBytes() - before;
          share.clear();
        }
        lane_bytes[lane].fetch_add(grown, std::memory_order_relaxed);
        return Status::OK();
      },
      [&] {
        return governed ? NoteHashFootprint(*bytes + SumLaneBytes(lane_bytes))
                        : Status::OK();
      }));
  for (const CountTable& t : sets_) {
    metrics_.peak_hash_entries += t.index.size();
  }
  *bytes += SumLaneBytes(lane_bytes);
  return NoteHashFootprint(*bytes);
}

Status BagCountOp::OpenImpl(size_t) {
  emit_part_ = 0;
  emit_pos_ = 0;

  WorkerPool::Lease lease = WorkerPool::Global().Admit(workers_);
  const size_t lanes = lease.lanes();
  metrics_.workers = static_cast<uint32_t>(lanes);
  const size_t parts = lanes == 1 ? 1 : std::bit_ceil(4 * lanes);
  uint64_t bytes = 0;
  if (rhs_ != nullptr) {
    // − and ∩ build the rhs first: its count sums are the budgets.
    MRA_RETURN_IF_ERROR(Collapse(lease, rhs_.get(), rhs_->estimated_rows(),
                                 parts, /*counted=*/true, &metrics_.build_rows,
                                 &bytes));
  } else if (lanes > 1) {
    // δ on more lanes: the key sets are the result.
    MRA_RETURN_IF_ERROR(Collapse(lease, lhs_.get(), estimated_rows(), parts,
                                 /*counted=*/false, &metrics_.build_rows,
                                 &bytes));
    metrics_.distinct_rows = metrics_.peak_hash_entries;
    return Status::OK();
  } else {
    // δ on one lane sets a key's budget of 1 as the key is first seen, in
    // the recycled seen-set.
    sets_.resize(1);
    sets_[0].index.Reset();
    radix_bits_ = 0;
  }
  // − and ∩, and δ on one lane, stream: NextBatch compacts each lhs batch
  // in place.
  streaming_ = true;
  MRA_RETURN_IF_ERROR(lhs_->Open());
  if (rhs_ == nullptr) {
    sets_[0].Reserve(PlannedRows(estimated_rows(), exec_context()),
                     /*counted=*/false);
  }
  return Status::OK();
}

Status BagCountOp::StreamBatch(RowBatch& out) {
  // In place like FilterOp: the lhs fills `out`, rows that emit are
  // compacted to the front with what they emit, the rest stay parked for
  // the lhs's next refill.  Pull again until something survives or the
  // lhs drains.
  uint64_t& rows = rhs_ != nullptr ? metrics_.probe_rows : metrics_.build_rows;
  while (true) {
    MRA_RETURN_IF_ERROR(lhs_->NextBatch(out));
    if (out.empty()) return Status::OK();
    rows += out.size();
    size_t kept = 0;
    for (size_t i = 0; i < out.size(); ++i) {
      const Tuple& tuple = out[i].tuple;
      const uint64_t c = out[i].count;
      uint64_t t = 0;
      if (fn_ == BagFn::kUnique) {
        // δ's budget of 1, set as the key is first seen, goes at once.
        bool inserted = false;
        sets_[0].index.InsertKey(tuple, identity_, tuple.HashKey(identity_),
                                 &inserted);
        t = inserted ? 1 : 0;
      } else {
        const size_t h = tuple.HashKey(identity_);
        CountTable& set = sets_[PartitionOf(h, radix_bits_)];
        const size_t id = set.index.FindKey(tuple, identity_, h);
        if (id != TagIndex::kNotFound) {
          if (__builtin_add_overflow(set.seen[id], c, &set.seen[id])) {
            return Status::EvalError(
                std::string(name()) +
                ": a tuple's multiplicity exceeds 2^64 - 1");
          }
          t = TakeBudget(c, set.counts[id]);
        }
      }
      const uint64_t n = Emitted(fn_, c, t);
      if (n > 0) {
        if (kept != i) std::swap(out[kept], out[i]);
        out[kept].count = n;
        ++kept;
      }
    }
    out.Truncate(kept);
    if (fn_ == BagFn::kUnique) {
      MRA_RETURN_IF_ERROR(NoteHashFootprint(sets_[0].ApproxBytes()));
    }
    if (kept > 0) return Status::OK();
  }
}

Status BagCountOp::NextBatchImpl(RowBatch& out, size_t) {
  if (streaming_) return StreamBatch(out);
  // δ on more lanes: each partition's keys, given away as they go.
  while (!out.full()) {
    if (emit_part_ >= sets_.size()) return Status::OK();
    HashKeyIndex& keys = sets_[emit_part_].index;
    if (emit_pos_ >= keys.size()) {
      ++emit_part_;
      emit_pos_ = 0;
      continue;
    }
    Row& slot = out.AppendSlot();
    keys.SwapKey(emit_pos_++, slot.tuple);
    slot.count = 1;
  }
  return Status::OK();
}

void BagCountOp::CloseImpl() {
  if (streaming_ && rhs_ == nullptr) {
    const size_t keys = sets_[0].index.size();
    metrics_.distinct_rows = keys;
    metrics_.peak_hash_entries = keys;
  } else {
    sets_.clear();
  }
  streaming_ = false;
  CountHashRows(metrics_.build_rows, metrics_.probe_rows);
  emit_part_ = 0;
  emit_pos_ = 0;
  lhs_->Close();
  if (rhs_ != nullptr) rhs_->Close();
}

}  // namespace exec
}  // namespace mra
