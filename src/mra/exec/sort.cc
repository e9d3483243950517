#include "mra/exec/sort.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "mra/algebra/ops.h"
#include "mra/common/annotation.h"

namespace mra {
namespace exec {
namespace {

// --- Keyed sort. ---
//
// A buffered run is ordered through a flat array of fixed-width entries:
// per row, one order-preserving uint64_t word per normalized sort key plus
// the row's index.  Comparing two entries' words as unsigned integers
// agrees with Value::Compare (direction applied) wherever the words
// differ; where every word ties, the full ops::CompareForSort decides,
// then the row index.  So the order is exactly CompareForSort's, made
// stable, and the rows themselves move once, by a final permutation.
//
// The words are ordered by an LSD radix sort, one stable counting pass
// per byte, that visits only the bytes which vary across the run (an
// OR/AND over each word finds them).  Entries start in row order, so
// after the passes each run of entries whose words all tie is still in
// row order, and the comparator finishes only those runs.  Where radix
// cannot pay the comparator sorts the whole array: a tiny run, no
// varying byte (no key words, or every key equal), or more varying bytes
// than n has bits (about the comparison sort's log2 n levels).

constexpr uint64_t kSignBit = uint64_t{1} << 63;

// At most this many keys are normalized; the rest are decided by the
// CompareForSort fallback.
constexpr size_t kMaxKeyWords = 4;

template <size_t N>
struct KeyedEntry {
  uint64_t words[N > 0 ? N : 1];
  uint32_t row;
};
static_assert(sizeof(KeyedEntry<1>) == 2 * sizeof(uint64_t));
static_assert(sizeof(KeyedEntry<kMaxKeyWords>) ==
              (kMaxKeyWords + 1) * sizeof(uint64_t));

// The order-preserving word of one key value.  Integers, decimals, dates
// and booleans flip the sign bit of their int64.  A real maps its IEEE
// bits to a sign-magnitude-ordered word, with -0.0 folded onto 0.0 and
// every NaN onto the maximum (Value::Compare ties both pairs, and sorts
// NaN after +inf).  A string keeps an 8-byte big-endian prefix, zero
// padded: a prefix that differs orders like the whole bytewise compare.
uint64_t KeyWord(const Value& v) {
  switch (v.kind()) {
    case TypeKind::kReal: {
      double d = v.real_value();
      if (std::isnan(d)) return UINT64_MAX;
      if (d == 0.0) d = 0.0;
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
    }
    case TypeKind::kString: {
      const std::string_view str = v.string_view();
      uint64_t word = 0;
      for (size_t i = 0; i < std::min<size_t>(str.size(), 8); ++i) {
        word |= uint64_t{static_cast<unsigned char>(str[i])} << (56 - 8 * i);
      }
      return word;
    }
    case TypeKind::kBool:
      return (v.bool_value() ? 1 : 0) ^ kSignBit;
    case TypeKind::kInt:
      return static_cast<uint64_t>(v.int_value()) ^ kSignBit;
    case TypeKind::kDecimal:
      return static_cast<uint64_t>(v.decimal_scaled()) ^ kSignBit;
    case TypeKind::kDate:
      return static_cast<uint64_t>(int64_t{v.date_days()}) ^ kSignBit;
  }
  return 0;
}

// How many leading keys get a word: up to and including the first string
// key, since equal string prefixes need not be equal strings and a later
// word must not decide past them.
size_t NormalizedKeyWords(const RelationSchema& schema,
                          const std::vector<size_t>& keys) {
  size_t n = 0;
  for (size_t k : keys) {
    if (n == kMaxKeyWords) break;
    ++n;
    if (schema.TypeOf(k).kind() == TypeKind::kString) break;
  }
  return n;
}

// Bytes charged per buffered row for the key array: its entry (the words
// plus the row index, padded to a word) and the entry's slot in the radix
// sort's scratch array.
uint64_t KeyEntryBytes(size_t words) {
  return 2 * (std::max<size_t>(words, 1) + 1) * sizeof(uint64_t);
}

// Below this many rows the counting passes' fixed cost (a 256-slot
// histogram per byte) outweighs the few comparisons std::sort makes.
constexpr size_t kMinRadixRows = 64;

// One radix digit: a byte of one key word.
struct RadixDigit {
  uint32_t word;
  uint32_t shift;
};

// Stable LSD radix sort of `n` entries over `digits` (least significant
// first), ping-ponging between `entries` and `scratch`; returns the array
// that holds the sorted entries.
template <size_t N>
KeyedEntry<N>* RadixSort(KeyedEntry<N>* entries, KeyedEntry<N>* scratch,
                         size_t n, const std::vector<RadixDigit>& digits) {
  // Every digit's histogram in one pass, then each pass scatters stably.
  std::vector<std::array<uint32_t, 256>> offsets(digits.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < digits.size(); ++d) {
      ++offsets[d][(entries[i].words[digits[d].word] >> digits[d].shift) &
                   0xff];
    }
  }
  KeyedEntry<N>* from = entries;
  KeyedEntry<N>* to = scratch;
  for (size_t d = 0; d < digits.size(); ++d) {
    uint32_t next = 0;
    for (uint32_t& slot : offsets[d]) next += std::exchange(slot, next);
    const RadixDigit digit = digits[d];
    for (size_t i = 0; i < n; ++i) {
      to[offsets[d][(from[i].words[digit.word] >> digit.shift) & 0xff]++] =
          from[i];
    }
    std::swap(from, to);
  }
  return from;
}

// Sorts `rows` under CompareForSort (stable) through an N-word key array,
// then applies the permutation in place by following its cycles.
template <size_t N>
void SortKeyed(std::vector<Row>& rows, const std::vector<size_t>& keys,
               const std::vector<bool>& desc) {
  const size_t n = rows.size();
  MRA_CHECK_LE(n, size_t{UINT32_MAX});
  // Not value-initialised: every entry is written before it is read.
  auto entries = std::make_unique_for_overwrite<KeyedEntry<N>[]>(n);
  uint64_t any_set[N > 0 ? N : 1] = {};
  uint64_t all_set[N > 0 ? N : 1];
  std::fill(std::begin(all_set), std::end(all_set), UINT64_MAX);
  for (size_t i = 0; i < n; ++i) {
    const Tuple& tuple = rows[i].tuple;
    for (size_t w = 0; w < N; ++w) {
      uint64_t word = KeyWord(tuple.at(keys[w]));
      if (desc[w]) word = ~word;
      entries[i].words[w] = word;
      any_set[w] |= word;
      all_set[w] &= word;
    }
    entries[i].row = static_cast<uint32_t>(i);
  }
  auto before = [&](const KeyedEntry<N>& a, const KeyedEntry<N>& b) {
    for (size_t w = 0; w < N; ++w) {
      if (a.words[w] != b.words[w]) return a.words[w] < b.words[w];
    }
    int c = ops::CompareForSort(rows[a.row].tuple, rows[b.row].tuple, keys,
                                desc);
    if (c != 0) return c < 0;
    return a.row < b.row;
  };
  // The varying bytes, least significant (last word, low byte) first.
  std::vector<RadixDigit> digits;
  for (size_t w = N; w-- > 0;) {
    const uint64_t varying = any_set[w] ^ all_set[w];
    for (uint32_t shift = 0; shift < 64; shift += 8) {
      if ((varying >> shift) & 0xff) {
        digits.push_back({static_cast<uint32_t>(w), shift});
      }
    }
  }
  KeyedEntry<N>* sorted = entries.get();
  std::unique_ptr<KeyedEntry<N>[]> scratch;
  if (n < kMinRadixRows || digits.empty() ||
      digits.size() > static_cast<size_t>(std::bit_width(n))) {
    std::sort(sorted, sorted + n, before);
  } else {
    scratch = std::make_unique_for_overwrite<KeyedEntry<N>[]>(n);
    sorted = RadixSort(entries.get(), scratch.get(), n, digits);
    auto same_words = [](const KeyedEntry<N>& a, const KeyedEntry<N>& b) {
      return std::equal(std::begin(a.words), std::begin(a.words) + N,
                        std::begin(b.words));
    };
    for (size_t i = 0; i < n;) {
      size_t end = i + 1;
      while (end < n && same_words(sorted[i], sorted[end])) ++end;
      if (end - i > 1) std::sort(sorted + i, sorted + end, before);
      i = end;
    }
  }
  // sorted[i].row is the row that belongs at i; a visited slot is marked
  // by pointing it at itself.
  for (size_t i = 0; i < n; ++i) {
    if (sorted[i].row == i) continue;
    Row held = std::move(rows[i]);
    size_t at = i;
    while (true) {
      size_t from = sorted[at].row;
      sorted[at].row = static_cast<uint32_t>(at);
      if (from == i) {
        rows[at] = std::move(held);
        break;
      }
      rows[at] = std::move(rows[from]);
      at = from;
    }
  }
}

}  // namespace

SortOp::SortOp(std::vector<size_t> keys, std::vector<bool> desc,
               uint64_t limit, uint64_t spill_bytes, PhysOpPtr child)
    : keys_(std::move(keys)),
      desc_(std::move(desc)),
      limit_(limit),
      spill_bytes_(spill_bytes),
      child_(std::move(child)),
      key_words_(NormalizedKeyWords(child_->schema(), keys_)),
      key_entry_bytes_(KeyEntryBytes(key_words_)) {}

SortOp::~SortOp() { RemoveRunFiles(&run_files_); }

Status SortOp::OpenImpl(size_t) {
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
  RemoveRunFiles(&run_files_);
  spilled_runs_ = 0;
  set_annotation(base_annotation_);

  const uint64_t threshold = SpillThreshold(spill_bytes_, exec_context());

  auto by_sort_order = [this](const Row& a, const Row& b) {
    return ops::CompareForSort(a.tuple, b.tuple, keys_, desc_) < 0;
  };

  MRA_RETURN_IF_ERROR(child_->Open());
  // The buffer is sized once the child is open, from its estimate, at
  // most what one run holds below the spill threshold (and a LIMIT's
  // heap), so a reservation never outgrows the run it fills; the charge
  // holds the reserved room until the buffered rows outweigh it.
  const uint64_t row_bytes = sizeof(Row) + key_entry_bytes_;
  size_t cap = static_cast<size_t>(
      std::min<uint64_t>(threshold / row_bytes, kMaxPlannedRows));
  if (limit_ > 0 && limit_ < cap) cap = static_cast<size_t>(limit_) + 1;
  const size_t planned =
      PlannedRows(child_->estimated_rows(), exec_context(), cap);
  const uint64_t planned_bytes = planned * row_bytes;
  buffer_.reserve(planned);
  RowBatch batch;
  while (true) {
    MRA_RETURN_IF_ERROR(child_->NextBatch(batch));
    if (batch.empty()) break;
    for (Row& row : batch) {
      // Top-K: once the heap holds `limit_` weight, a row ordering at or
      // after its worst entry is out-weighed by entries that all order
      // before it, so it could never be emitted — skip it unbuffered.
      if (limit_ > 0 && buffer_weight_ >= limit_ &&
          ops::CompareForSort(row.tuple, buffer_.front().tuple, keys_,
                              desc_) >= 0) {
        continue;
      }
      // The row's key-array entry and its radix scratch are charged with
      // it: the sort allocates both per buffered row, so they count toward
      // the spill threshold.
      buffer_bytes_ +=
          sizeof(Row) + row.tuple.HeapBytes() + key_entry_bytes_;
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
    MRA_RETURN_IF_ERROR(ChargeMemTo(std::max(buffer_bytes_, planned_bytes)));
  }
  child_->Close();

  if (run_files_.empty()) {
    // In-memory fast path: one sort, emission walks the buffer.
    SortBuffer();
    return Status::OK();
  }

  // Something spilled: push the tail buffer out too and merge purely from
  // files, so emission order never depends on which rows happened to stay
  // resident.
  if (!buffer_.empty()) {
    MRA_RETURN_IF_ERROR(SpillRun());
  }
  // The merge reads only the files: the buffer's room goes back.
  buffer_ = std::vector<Row>();
  MRA_RETURN_IF_ERROR(ChargeMemTo(buffer_bytes_));
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
  RemoveRunFiles(&run_files_);
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
    const uint64_t freed =
        sizeof(Row) + buffer_.back().tuple.HeapBytes() + key_entry_bytes_;
    buffer_bytes_ -= std::min(buffer_bytes_, freed);
    buffer_.pop_back();
  }
}

void SortOp::SortBuffer() {
  switch (key_words_) {
    case 0:
      return SortKeyed<0>(buffer_, keys_, desc_);
    case 1:
      return SortKeyed<1>(buffer_, keys_, desc_);
    case 2:
      return SortKeyed<2>(buffer_, keys_, desc_);
    case 3:
      return SortKeyed<3>(buffer_, keys_, desc_);
    default:
      return SortKeyed<kMaxKeyWords>(buffer_, keys_, desc_);
  }
}

Status SortOp::SpillRun() {
  SortBuffer();
  RunWriter run;
  Status opened = run.Open();
  // Recorded before writing so every abort path sees the file.
  run_files_.push_back(run.path());
  MRA_RETURN_IF_ERROR(opened);
  for (const Row& row : buffer_) run.Append(row);
  MRA_RETURN_IF_ERROR(run.Finish());
  ++spilled_runs_;

  buffer_.clear();
  buffer_bytes_ = 0;
  buffer_weight_ = 0;
  return Status::OK();
}

Status SortOp::StartMerge() {
  readers_ = std::vector<RunReader>(run_files_.size());
  merge_heap_.clear();
  for (size_t i = 0; i < readers_.size(); ++i) {
    MRA_RETURN_IF_ERROR(readers_[i].Open(run_files_[i]));
    if (!readers_[i].done()) merge_heap_.push_back(i);
  }
  std::make_heap(merge_heap_.begin(), merge_heap_.end(),
                 [this](size_t a, size_t b) { return MergeAfter(a, b); });
  merging_ = true;
  return Status::OK();
}

bool SortOp::MergeAfter(size_t a, size_t b) const {
  // std::*_heap build a max-heap; invert for a min-heap, with the reader
  // index as a deterministic tie-break (ties are identical tuples, and
  // runs are written in input order, so the merge stays stable).
  int c = ops::CompareForSort(readers_[a].current().tuple,
                              readers_[b].current().tuple, keys_, desc_);
  if (c != 0) return c > 0;
  return a > b;
}

Result<bool> SortOp::NextSorted(Row& slot) {
  if (limit_ > 0 && emitted_weight_ >= limit_) return false;
  if (!merging_) {
    if (pos_ >= buffer_.size()) return false;
    // Swap rather than move: the slot's parked storage goes back to the
    // buffer, which Close frees wholesale.
    slot.tuple.Swap(buffer_[pos_].tuple);
    slot.count = buffer_[pos_].count;
    ++pos_;
  } else {
    if (merge_heap_.empty()) return false;
    auto heap_after = [this](size_t a, size_t b) {
      return MergeAfter(a, b);
    };
    std::pop_heap(merge_heap_.begin(), merge_heap_.end(), heap_after);
    size_t idx = merge_heap_.back();
    merge_heap_.pop_back();
    // Swap, so the reader decodes its next entry into the slot's parked
    // storage.
    slot.tuple.Swap(readers_[idx].current().tuple);
    slot.count = readers_[idx].current().count;
    MRA_RETURN_IF_ERROR(readers_[idx].Advance());
    if (!readers_[idx].done()) {
      merge_heap_.push_back(idx);
      std::push_heap(merge_heap_.begin(), merge_heap_.end(), heap_after);
    }
  }
  if (limit_ > 0) {
    slot.count = std::min<uint64_t>(slot.count, limit_ - emitted_weight_);
    emitted_weight_ += slot.count;
  }
  return true;
}

Status SortOp::NextBatchImpl(RowBatch& out, size_t) {
  while (!out.full()) {
    MRA_ASSIGN_OR_RETURN(bool more, NextSorted(out.AppendSlot()));
    if (!more) {
      out.Truncate(out.size() - 1);
      break;
    }
  }
  return Status::OK();
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
  RemoveRunFiles(&run_files_);
}

}  // namespace exec
}  // namespace mra
