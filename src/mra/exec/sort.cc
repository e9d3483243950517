#include "mra/exec/sort.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <utility>

#include "mra/algebra/ops.h"
#include "mra/common/annotation.h"
#include "mra/expr/eval.h"
#include "mra/fault/failpoint.h"
#include "mra/obs/metrics.h"
#include "mra/storage/serializer.h"

namespace mra {
namespace exec {
namespace {

namespace fs = std::filesystem;

// Injection sites for the spill torture cases (docs/RECOVERY.md catalog):
// one hit per run write, per rename, and per merge-side entry read.
fault::Failpoint* SpillWriteFp() {
  static fault::Failpoint* fp =
      fault::FaultRegistry::Global().Get("sort.spill.write");
  return fp;
}
fault::Failpoint* SpillRenameFp() {
  static fault::Failpoint* fp =
      fault::FaultRegistry::Global().Get("sort.spill.rename");
  return fp;
}
fault::Failpoint* SpillReadFp() {
  static fault::Failpoint* fp =
      fault::FaultRegistry::Global().Get("sort.spill.read");
  return fp;
}

obs::Counter* SpillRunsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("sort.spill_runs");
  return c;
}
obs::Counter* SpillBytesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("sort.spill_bytes");
  return c;
}

// Same coarse footprint model the materialising operators use for budget
// charges (struct footprint + string payloads).
uint64_t ApproxRowBytes(const Row& row) {
  uint64_t bytes = sizeof(Row) + row.tuple.arity() * sizeof(Value);
  for (const Value& v : row.tuple.values()) {
    if (v.kind() == TypeKind::kString) bytes += v.string_value().capacity();
  }
  return bytes;
}

// Fresh run-file path under the system temp directory; the process-wide
// sequence keeps concurrent sorts (and lanes) from colliding.
std::string NextRunPath() {
  static std::atomic<uint64_t> seq{0};
  uint64_t n = seq.fetch_add(1, std::memory_order_relaxed);
  fs::path dir = fs::temp_directory_path();
  return (dir / ("mra_sort_" + std::to_string(::getpid()) + "_run" +
                 std::to_string(n)))
      .string();
}

}  // namespace

Result<std::optional<Row>> ReadRunEntry(std::istream& in,
                                        uint64_t* bytes_left,
                                        const std::string& path) {
  char len_buf[4];
  in.read(len_buf, sizeof(len_buf));
  if (in.gcount() == 0 && in.eof()) return std::optional<Row>();
  if (in.gcount() != sizeof(len_buf)) {
    return Status::Corruption("torn entry header in sort run " + path);
  }
  *bytes_left -= std::min<uint64_t>(*bytes_left, sizeof(len_buf));
  storage::Decoder len_dec(std::string_view(len_buf, sizeof(len_buf)));
  MRA_ASSIGN_OR_RETURN(uint32_t len, len_dec.GetU32());
  if (len > *bytes_left) {
    return Status::Corruption("entry length " + std::to_string(len) +
                              " exceeds the " + std::to_string(*bytes_left) +
                              " bytes left in sort run " + path);
  }
  *bytes_left -= len;
  std::string payload(len, '\0');
  in.read(payload.data(), len);
  if (static_cast<uint32_t>(in.gcount()) != len) {
    return Status::Corruption("torn entry payload in sort run " + path);
  }
  storage::Decoder dec(payload);
  Row row;
  MRA_ASSIGN_OR_RETURN(row.tuple, dec.GetTuple());
  MRA_ASSIGN_OR_RETURN(row.count, dec.GetU64());
  return std::optional<Row>(std::move(row));
}

// Streams one run file entry by entry (see ReadRunEntry): the length
// prefix makes each entry independently decodable, so the merge never
// buffers a whole run.
struct SortOp::RunReader {
  std::ifstream in;
  std::string path;
  uint64_t bytes_left = 0;
  Row current;
  bool done = false;

  Status Advance() {
    MRA_RETURN_IF_ERROR(fault::InjectIfArmed(SpillReadFp()));
    MRA_ASSIGN_OR_RETURN(std::optional<Row> next,
                         ReadRunEntry(in, &bytes_left, path));
    done = !next.has_value();
    if (next) current = std::move(*next);
    return Status::OK();
  }
};

SortOp::SortOp(std::vector<size_t> keys, std::vector<bool> desc,
               uint64_t limit, uint64_t spill_bytes, PhysOpPtr child)
    : keys_(std::move(keys)),
      desc_(std::move(desc)),
      limit_(limit),
      spill_bytes_(spill_bytes),
      child_(std::move(child)) {}

SortOp::~SortOp() { RemoveRunFiles(); }

Status SortOp::OpenImpl() {
  if (!base_annotation_captured_) {
    base_annotation_ = annotation();
    base_annotation_captured_ = true;
  }
  Status opened = OpenInner();
  if (!opened.ok()) AbortOpen();
  return opened;
}

Status SortOp::OpenInner() {
  buffer_.clear();
  buffer_bytes_ = 0;
  buffer_weight_ = 0;
  pos_ = 0;
  emitted_weight_ = 0;
  merging_ = false;
  readers_.clear();
  merge_heap_.clear();
  RemoveRunFiles();
  spilled_runs_ = 0;
  set_annotation(base_annotation_);

  // Spill threshold: the knob's fixed run cap when set, further bounded by
  // half the query budget when one is armed — the sort leaves headroom for
  // the rest of the plan instead of racing the budget to the kill.
  uint64_t threshold = spill_bytes_ > 0 ? spill_bytes_ : UINT64_MAX;
  if (exec_context() != nullptr && exec_context()->mem_budget() > 0) {
    threshold = std::min(threshold, exec_context()->mem_budget() / 2);
  }

  auto by_sort_order = [this](const Row& a, const Row& b) {
    return ops::CompareForSort(a.tuple, b.tuple, keys_, desc_) < 0;
  };

  MRA_RETURN_IF_ERROR(child_->Open());
  RowBatch batch;
  while (true) {
    MRA_RETURN_IF_ERROR(child_->NextBatch(batch));
    if (batch.empty()) break;
    for (Row& row : batch) {
      buffer_bytes_ += ApproxRowBytes(row);
      buffer_weight_ += row.count;
      buffer_.push_back(std::move(row));
      if (limit_ > 0) {
        std::push_heap(buffer_.begin(), buffer_.end(), by_sort_order);
        PruneTopK();
      }
      // Spill the moment the run crosses the threshold — checked per row,
      // not per batch, so a single large batch cannot overshoot an armed
      // budget before the spill gets a chance to shed it.
      if (buffer_bytes_ >= threshold) {
        MRA_RETURN_IF_ERROR(SpillRun());
      }
    }
    // Budget check per input batch: a runaway non-spilling sort input is
    // caught while it grows.
    MRA_RETURN_IF_ERROR(ChargeMemTo(buffer_bytes_));
  }
  child_->Close();

  if (run_files_.empty()) {
    // In-memory fast path: one sort, emission walks the buffer.
    std::sort(buffer_.begin(), buffer_.end(), by_sort_order);
    return Status::OK();
  }

  // Something spilled: push the tail buffer out too and merge purely from
  // files, so emission order never depends on which rows happened to stay
  // resident.
  if (!buffer_.empty()) {
    MRA_RETURN_IF_ERROR(SpillRun());
    MRA_RETURN_IF_ERROR(ChargeMemTo(buffer_bytes_));
  }
  MRA_RETURN_IF_ERROR(StartMerge());
  std::string note =
      AnnotationText("spill", std::to_string(run_files_.size()) + " runs");
  set_annotation(base_annotation_.empty() ? note
                                          : base_annotation_ + ", " + note);
  return Status::OK();
}

void SortOp::AbortOpen() {
  // A failed Open leaves the operator Closed without a CloseImpl call, so
  // reclaim everything here: the wrapper only releases budget charges.
  child_->Close();
  buffer_.clear();
  buffer_bytes_ = 0;
  buffer_weight_ = 0;
  readers_.clear();
  merge_heap_.clear();
  merging_ = false;
  RemoveRunFiles();
}

void SortOp::PruneTopK() {
  // buffer_ is a max-heap under the sort order: the front is the worst
  // entry.  While the rest of the heap already carries `limit_` weight,
  // every remaining row orders at-or-before the front, so the front can
  // never reach the top `limit_` — drop it.
  auto by_sort_order = [this](const Row& a, const Row& b) {
    return ops::CompareForSort(a.tuple, b.tuple, keys_, desc_) < 0;
  };
  while (!buffer_.empty() &&
         buffer_weight_ - buffer_.front().count >= limit_) {
    std::pop_heap(buffer_.begin(), buffer_.end(), by_sort_order);
    buffer_weight_ -= buffer_.back().count;
    buffer_bytes_ -= std::min(buffer_bytes_, ApproxRowBytes(buffer_.back()));
    buffer_.pop_back();
  }
}

Status SortOp::SpillRun() {
  auto by_sort_order = [this](const Row& a, const Row& b) {
    return ops::CompareForSort(a.tuple, b.tuple, keys_, desc_) < 0;
  };
  std::sort(buffer_.begin(), buffer_.end(), by_sort_order);

  std::string final_path = NextRunPath();
  std::string tmp_path = final_path + ".tmp";
  // Record before writing so every abort path sees the file.
  run_files_.push_back(final_path);

  MRA_RETURN_IF_ERROR(fault::InjectIfArmed(SpillWriteFp()));
  uint64_t written = 0;
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot create sort run " + tmp_path);
    }
    for (const Row& row : buffer_) {
      storage::Encoder payload;
      payload.PutTuple(row.tuple);
      payload.PutU64(row.count);
      storage::Encoder header;
      header.PutU32(static_cast<uint32_t>(payload.buffer().size()));
      out.write(header.buffer().data(),
                static_cast<std::streamsize>(header.buffer().size()));
      out.write(payload.buffer().data(),
                static_cast<std::streamsize>(payload.buffer().size()));
      written += header.buffer().size() + payload.buffer().size();
    }
    out.flush();
    if (!out) {
      return Status::IoError("short write to sort run " + tmp_path);
    }
  }
  MRA_RETURN_IF_ERROR(fault::InjectIfArmed(SpillRenameFp()));
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::IoError("cannot publish sort run " + final_path + ": " +
                           ec.message());
  }
  SpillRunsCounter()->Inc();
  SpillBytesCounter()->Inc(written);
  ++spilled_runs_;

  buffer_.clear();
  buffer_bytes_ = 0;
  buffer_weight_ = 0;
  return Status::OK();
}

Status SortOp::StartMerge() {
  readers_.clear();
  merge_heap_.clear();
  for (const std::string& path : run_files_) {
    auto reader = std::make_unique<RunReader>();
    reader->path = path;
    reader->in.open(path, std::ios::binary);
    std::error_code ec;
    reader->bytes_left = fs::file_size(path, ec);
    if (!reader->in || ec) {
      return Status::IoError("cannot reopen sort run " + path);
    }
    MRA_RETURN_IF_ERROR(reader->Advance());
    if (!reader->done) {
      merge_heap_.push_back(readers_.size());
    }
    readers_.push_back(std::move(reader));
  }
  auto heap_after = [this](size_t a, size_t b) {
    // std::*_heap build a max-heap; invert for a min-heap, with the reader
    // index as a deterministic tie-break (ties are identical tuples).
    int c = ops::CompareForSort(readers_[a]->current.tuple,
                                readers_[b]->current.tuple, keys_, desc_);
    if (c != 0) return c > 0;
    return a > b;
  };
  std::make_heap(merge_heap_.begin(), merge_heap_.end(), heap_after);
  merging_ = true;
  return Status::OK();
}

std::optional<Row> SortOp::ClampEmit(Row row) {
  if (limit_ == 0) return std::optional<Row>(std::move(row));
  if (emitted_weight_ >= limit_) return std::nullopt;
  row.count = std::min<uint64_t>(row.count, limit_ - emitted_weight_);
  emitted_weight_ += row.count;
  return std::optional<Row>(std::move(row));
}

Result<std::optional<Row>> SortOp::NextImpl() {
  if (!merging_) {
    if (pos_ >= buffer_.size()) return std::optional<Row>();
    std::optional<Row> out = ClampEmit(std::move(buffer_[pos_]));
    if (!out.has_value()) return std::optional<Row>();
    ++pos_;
    return out;
  }

  auto heap_after = [this](size_t a, size_t b) {
    int c = ops::CompareForSort(readers_[a]->current.tuple,
                                readers_[b]->current.tuple, keys_, desc_);
    if (c != 0) return c > 0;
    return a > b;
  };
  while (!merge_heap_.empty()) {
    std::pop_heap(merge_heap_.begin(), merge_heap_.end(), heap_after);
    size_t idx = merge_heap_.back();
    merge_heap_.pop_back();
    Row row = std::move(readers_[idx]->current);
    MRA_RETURN_IF_ERROR(readers_[idx]->Advance());
    if (!readers_[idx]->done) {
      merge_heap_.push_back(idx);
      std::push_heap(merge_heap_.begin(), merge_heap_.end(), heap_after);
    }
    std::optional<Row> out = ClampEmit(std::move(row));
    if (!out.has_value()) return std::optional<Row>();  // LIMIT exhausted.
    return Result<std::optional<Row>>(std::move(out));
  }
  return std::optional<Row>();
}

void SortOp::CloseImpl() {
  child_->Close();
  buffer_.clear();
  buffer_bytes_ = 0;
  buffer_weight_ = 0;
  pos_ = 0;
  readers_.clear();
  merge_heap_.clear();
  merging_ = false;
  RemoveRunFiles();
}

void SortOp::RemoveRunFiles() {
  for (const std::string& path : run_files_) {
    std::error_code ec;
    fs::remove(path, ec);
    fs::remove(path + ".tmp", ec);
  }
  run_files_.clear();
}

// --- SortMergeJoinOp. ---

SortMergeJoinOp::SortMergeJoinOp(std::vector<size_t> left_keys,
                                 std::vector<size_t> right_keys,
                                 ExprPtr residual_or_null, PhysOpPtr left,
                                 PhysOpPtr right, uint64_t spill_bytes)
    : left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual_or_null)) {
  left_sort_ = std::make_unique<SortOp>(
      left_keys_, std::vector<bool>(left_keys_.size(), false), 0, spill_bytes,
      std::move(left));
  right_sort_ = std::make_unique<SortOp>(
      right_keys_, std::vector<bool>(right_keys_.size(), false), 0,
      spill_bytes, std::move(right));
  schema_ = left_sort_->schema().Concat(right_sort_->schema());
}

int SortMergeJoinOp::CompareKeys(const Tuple& left,
                                 const Tuple& right) const {
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    int c = left.at(left_keys_[i]).Compare(right.at(right_keys_[i]));
    if (c != 0) return c;
  }
  return 0;
}

Status SortMergeJoinOp::OpenImpl() {
  left_group_.clear();
  right_group_.clear();
  li_ = rj_ = 0;
  MRA_RETURN_IF_ERROR(left_sort_->Open());
  Status right_open = right_sort_->Open();
  if (!right_open.ok()) {
    left_sort_->Close();
    return right_open;
  }
  MRA_ASSIGN_OR_RETURN(left_ahead_, left_sort_->Next());
  MRA_ASSIGN_OR_RETURN(right_ahead_, right_sort_->Next());
  return Status::OK();
}

Status SortMergeJoinOp::FillGroup(PhysicalOperator& side,
                                  const std::vector<size_t>& keys,
                                  std::optional<Row>& ahead,
                                  std::vector<Row>& group) {
  group.clear();
  group.push_back(std::move(*ahead));
  while (true) {
    MRA_ASSIGN_OR_RETURN(ahead, side.Next());
    if (!ahead.has_value()) return Status::OK();
    for (size_t k : keys) {
      if (group.front().tuple.at(k).Compare(ahead->tuple.at(k)) != 0) {
        return Status::OK();
      }
    }
    group.push_back(std::move(*ahead));
  }
}

Result<std::optional<Row>> SortMergeJoinOp::NextImpl() {
  while (true) {
    // Drain the cross product of the current equal-key group pair.
    while (li_ < left_group_.size()) {
      if (rj_ >= right_group_.size()) {
        rj_ = 0;
        ++li_;
        continue;
      }
      const Row& lhs = left_group_[li_];
      const Row& rhs = right_group_[rj_++];
      Tuple combined = lhs.tuple.Concat(rhs.tuple);
      if (residual_ != nullptr) {
        MRA_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*residual_, combined));
        if (!keep) continue;
      }
      return std::optional<Row>(Row{std::move(combined),
                                    lhs.count * rhs.count});
    }
    left_group_.clear();
    right_group_.clear();
    li_ = rj_ = 0;

    // Align the two sorted streams on the next shared key.
    while (left_ahead_.has_value() && right_ahead_.has_value()) {
      int c = CompareKeys(left_ahead_->tuple, right_ahead_->tuple);
      if (c == 0) break;
      if (c < 0) {
        MRA_ASSIGN_OR_RETURN(left_ahead_, left_sort_->Next());
      } else {
        MRA_ASSIGN_OR_RETURN(right_ahead_, right_sort_->Next());
      }
    }
    if (!left_ahead_.has_value() || !right_ahead_.has_value()) {
      return std::optional<Row>();
    }
    MRA_RETURN_IF_ERROR(
        FillGroup(*left_sort_, left_keys_, left_ahead_, left_group_));
    MRA_RETURN_IF_ERROR(
        FillGroup(*right_sort_, right_keys_, right_ahead_, right_group_));

    // Both sides of one key group are resident for the cross product —
    // charge them like any other materialising state.
    uint64_t group_bytes = 0;
    for (const Row& r : left_group_) group_bytes += ApproxRowBytes(r);
    for (const Row& r : right_group_) group_bytes += ApproxRowBytes(r);
    MRA_RETURN_IF_ERROR(ChargeMemTo(group_bytes));
  }
}

void SortMergeJoinOp::CloseImpl() {
  left_sort_->Close();
  right_sort_->Close();
  left_group_.clear();
  right_group_.clear();
  left_ahead_.reset();
  right_ahead_.reset();
  li_ = rj_ = 0;
}

}  // namespace exec
}  // namespace mra
