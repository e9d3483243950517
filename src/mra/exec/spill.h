// Run files: the spill format that SortOp's merge runs and HashJoinOp's
// build and probe chunks share (docs/EXECUTION.md "Ordering and spill").
// A run is a sequence of entries `length(u32) ++ payload`, the payload the
// storage encoding of `tuple ++ count`, written to `<path>.tmp` and
// renamed to its final path once complete.  Both operators record a run's
// path before anything can fail and remove it (and its .tmp) on Close, on
// a failed Open and in their destructors.  The `sort.spill.write`,
// `sort.spill.rename` and `sort.spill.read` failpoints fire on every run,
// whichever operator writes it.

#ifndef MRA_EXEC_SPILL_H_
#define MRA_EXEC_SPILL_H_

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "mra/exec/operator.h"
#include "mra/storage/serializer.h"

namespace mra {
namespace exec {

/// The in-memory cap past which a sort run or a join build spills:
/// `spill_bytes` (ExecConfig::exec.sort_spill_bytes) when set, further
/// bounded by half of `ctx`'s armed query memory budget, which leaves the
/// rest of the plan headroom instead of racing the budget to the kill.
/// UINT64_MAX when neither applies.
uint64_t SpillThreshold(uint64_t spill_bytes, const ExecContext* ctx);

/// Reads the next entry of a run file from `in`, of which `*bytes_left`
/// bytes remain, into `*row`, through `*payload`, a buffer reused across
/// entries; false at the file's clean end.  A length past the bytes left
/// is Corruption before anything is allocated.  `path` names the run in
/// errors.  Exposed for tests.
Result<bool> ReadRunEntry(std::istream& in, uint64_t* bytes_left,
                          const std::string& path, std::string* payload,
                          Row* row);

/// Writes one run under a fresh path in the system temp directory.
class RunWriter {
 public:
  /// Starts the run.  path() is set before anything can fail, so the
  /// caller can always record it for removal.
  Status Open();
  bool is_open() const { return out_.is_open(); }
  const std::string& path() const { return path_; }

  /// Appends one entry; a write error surfaces at Finish.
  void Append(const Row& row);

  /// Flushes the run and renames it to path(); counts it in the
  /// `sort.spill_runs` and `sort.spill_bytes` counters.
  Status Finish();

 private:
  std::ofstream out_;
  std::string path_;
  uint64_t written_ = 0;
  storage::Encoder entry_;  // One entry's prefix and payload, reused.
};

/// Streams one run entry by entry: the length prefix makes each entry
/// independently decodable, so no reader buffers a whole run.
class RunReader {
 public:
  /// Opens `path` and reads its first entry.
  Status Open(const std::string& path);
  /// Reads the next entry into current(), or marks the run done.
  Status Advance();

  bool done() const { return done_; }
  /// The entry last read; valid while !done().  The caller may move it
  /// out before the next Advance, or swap in a spent tuple whose storage
  /// the next entry then reuses.
  Row& current() { return current_; }
  const Row& current() const { return current_; }

 private:
  std::ifstream in_;
  std::string path_;
  uint64_t bytes_left_ = 0;
  std::string payload_;  // The entry being decoded, reused.
  Row current_;
  bool done_ = true;
};

/// Removes every run in `files`, published or still .tmp, and clears it.
void RemoveRunFiles(std::vector<std::string>* files);

}  // namespace exec
}  // namespace mra

#endif  // MRA_EXEC_SPILL_H_
