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
// one run's top-k cannot enter the global top-k.
//
// SortMergeJoinOp is the planner's second equi-join strategy: both inputs
// run through internal SortOps on the join keys (inheriting the spill
// machinery and the ExecContext wiring through children()), then a single
// forward pass pairs equal-key groups; output multiplicity is the product
// of the matched input multiplicities (Definition 3.1), with non-equi
// residual conjuncts applied to the concatenated tuple.

#ifndef MRA_EXEC_SORT_H_
#define MRA_EXEC_SORT_H_

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mra/exec/operator.h"
#include "mra/expr/scalar_expr.h"

namespace mra {
namespace exec {

/// Reads the next entry of a sort run file — `length(u32) ++ payload`,
/// the payload the storage encoding of `tuple ++ count` — from `in`, of
/// which `*bytes_left` bytes remain; nullopt at the file's clean end.  A
/// length past the bytes left is Corruption before anything is allocated.
/// `path` names the run in errors.  Exposed for tests.
Result<std::optional<Row>> ReadRunEntry(std::istream& in,
                                        uint64_t* bytes_left,
                                        const std::string& path);

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
  struct RunReader;

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

  void RemoveRunFiles();

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
  std::vector<std::unique_ptr<RunReader>> readers_;
  std::vector<size_t> merge_heap_;  // Reader indexes, min-heap on current.
  bool merging_ = false;

  // Planner annotation captured on first Open so the runtime spill note
  // can be re-derived instead of re-appended on reopen.
  std::string base_annotation_;
  bool base_annotation_captured_ = false;
};

/// Equi-join by merge over key-sorted inputs.
class SortMergeJoinOp final : public PhysicalOperator {
 public:
  /// `left_keys[i]` pairs with `right_keys[i]` (indexes local to each
  /// side); `residual_or_null` is evaluated over the concatenated tuple.
  /// `spill_bytes` is forwarded to the internal per-input SortOps.
  SortMergeJoinOp(std::vector<size_t> left_keys,
                  std::vector<size_t> right_keys, ExprPtr residual_or_null,
                  PhysOpPtr left, PhysOpPtr right, uint64_t spill_bytes);

  const RelationSchema& schema() const override { return schema_; }
  std::string_view name() const override { return "SortMergeJoin"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {left_sort_.get(), right_sort_.get()};
  }

 protected:
  Status OpenImpl() override;
  Status NextBatchImpl(RowBatch& out) override;
  void CloseImpl() override;

 private:
  /// Row-at-a-time reads over one sorted input's batch stream.
  struct Cursor {
    SortOp* side = nullptr;
    RowBatch batch;
    size_t pos = 0;

    void Reset() {
      batch.Clear();
      pos = 0;
    }
    /// The next row of `side`, or nullopt at end of stream.
    Result<std::optional<Row>> Next();
  };

  /// left key attrs vs right key attrs under Value::Compare, in key order.
  int CompareKeys(const Tuple& left, const Tuple& right) const;

  /// Consumes every row whose key equals `group.front()`'s from `cursor`
  /// into `group`, leaving the first differing row in `ahead`.
  Status FillGroup(Cursor& cursor, const std::vector<size_t>& keys,
                   std::optional<Row>& ahead, std::vector<Row>& group);

  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
  ExprPtr residual_;
  std::unique_ptr<SortOp> left_sort_;
  std::unique_ptr<SortOp> right_sort_;
  RelationSchema schema_;

  Cursor left_cursor_;
  Cursor right_cursor_;
  std::optional<Row> left_ahead_;
  std::optional<Row> right_ahead_;
  std::vector<Row> left_group_;
  std::vector<Row> right_group_;
  size_t li_ = 0;  // Cross-product cursor over the current group pair.
  size_t rj_ = 0;
};

}  // namespace exec
}  // namespace mra

#endif  // MRA_EXEC_SORT_H_
