// Ordered emission for the bag-stream executor: SortOp materialises its
// child, orders the rows under the shared ops::CompareForSort total order
// (sort keys with per-key direction, then a whole-tuple ascending
// tiebreak), and re-emits them as an ordered bag stream, batch by batch.
// Multiplicities stay folded: a row carrying count 1e6 is one run entry,
// never a million.  The order is computed over a flat array of
// order-preserving key words per row (docs/EXECUTION.md "Keyed sort"),
// radix-sorted on the bytes that vary: CompareForSort only runs where
// every word ties, and the buffered rows move once, by the final
// permutation.
//
// Memory discipline (docs/EXECUTION.md "Ordering and spill"): buffered
// rows, each with its key-array entry and that entry's radix scratch,
// are charged against the query budget per input batch; when the
// buffer crosses the spill threshold — the `sort_spill_bytes` knob, or
// half the armed query memory budget, whichever is smaller — the buffer
// is sorted and written out as a merge run through the storage encoder,
// and emission becomes a k-way streaming merge over the run files.  A
// LIMIT turns the buffer into a weighted Top-K heap: entries provably
// outside the top `limit` multiplicity-weight are pruned before they can
// force a spill, and per-run pruning stays sound because a tuple outside
// one run's top-k cannot enter the global top-k.  The run files are
// spill.h's, shared with the hash join's spilled build.

#ifndef MRA_EXEC_SORT_H_
#define MRA_EXEC_SORT_H_

#include <string>
#include <vector>

#include "mra/exec/operator.h"
#include "mra/exec/spill.h"

namespace mra {
namespace exec {

/// Ordered emission with optional weighted LIMIT and external-merge spill.
class SortOp final : public PhysicalOperator {
 public:
  /// `keys`/`desc` index the child schema; `limit` 0 means full sort.
  /// `spill_bytes` is ExecConfig::exec.sort_spill_bytes (0 = no fixed run
  /// cap; the budget-derived cap still applies when a budget is armed).
  SortOp(std::vector<size_t> keys, std::vector<bool> desc, uint64_t limit,
         uint64_t spill_bytes, PhysOpPtr child);
  ~SortOp() override;

  const RelationSchema& schema() const override { return child_->schema(); }
  std::string_view name() const override { return "Sort"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

  /// Merge runs written by the last Open (0 for a fully in-memory sort);
  /// survives Close so tests can assert the forced-spill path spilled.
  size_t spilled_runs() const { return spilled_runs_; }

  uint64_t limit() const { return limit_; }

 protected:
  Status OpenImpl() override;
  Status NextBatchImpl(RowBatch& out) override;
  void CloseImpl() override;

 private:
  /// The whole Open body; OpenImpl wraps it so every failure path (child
  /// error, injected spill fault, budget trip) funnels through AbortOpen —
  /// the wrapper never calls CloseImpl after a failed Open, so run files
  /// must be reclaimed here.
  Status OpenInner();
  void AbortOpen();

  /// Orders buffer_ under CompareForSort (stable) through the key array.
  void SortBuffer();

  /// Sorts buffer_ and writes it as one length-prefixed run file
  /// (run.tmp, fsync-free write, then rename); clears the buffer.
  Status SpillRun();

  /// Weighted Top-K pruning: pops heap entries that provably cannot reach
  /// the top `limit_` multiplicity-weight.
  void PruneTopK();

  /// Initialises the k-way merge over run_files_ (readers + min-heap).
  Status StartMerge();

  /// The merge heap's order over reader indexes (a min-heap on the
  /// readers' current rows).
  bool MergeAfter(size_t a, size_t b) const;

  /// Moves the next row in sort order into `slot`, its count clamped
  /// against the remaining LIMIT weight; false at end of stream.
  Result<bool> NextSorted(Row& slot);

  std::vector<size_t> keys_;
  std::vector<bool> desc_;
  uint64_t limit_;
  uint64_t spill_bytes_;
  PhysOpPtr child_;
  size_t key_words_;           // Leading keys normalized into key words.
  uint64_t key_entry_bytes_;   // A key-array entry and its radix scratch,
                               // charged per row.

  // In-memory buffer: plain rows for a full sort, a max-heap (worst entry
  // at the front) while a LIMIT is pruning.
  std::vector<Row> buffer_;
  uint64_t buffer_bytes_ = 0;
  uint64_t buffer_weight_ = 0;  // Multiplicity-weighted size of buffer_.
  size_t pos_ = 0;              // In-memory emission cursor.
  uint64_t emitted_weight_ = 0;

  // Spill state.
  size_t spilled_runs_ = 0;  // Runs written by the last Open; survives Close.
  std::vector<std::string> run_files_;
  std::vector<RunReader> readers_;
  std::vector<size_t> merge_heap_;  // Reader indexes, min-heap on current.
  bool merging_ = false;

  // Planner annotation captured on first Open so the runtime spill note
  // can be re-derived instead of re-appended on reopen.
  std::string base_annotation_;
  bool base_annotation_captured_ = false;
};

}  // namespace exec
}  // namespace mra

#endif  // MRA_EXEC_SORT_H_
