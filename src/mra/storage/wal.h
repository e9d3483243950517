// Write-ahead log: an append-only file of CRC-framed records providing the
// durability half of the paper's transaction model (§4.3).  Each committed
// transaction appends one record before its effects are considered durable;
// recovery replays intact records and tolerates a torn tail (a partially
// written final record), reporting corruption anywhere else.
//
// Frame layout: [u32 magic][u32 payload_len][u32 crc32(payload)][payload].

#ifndef MRA_STORAGE_WAL_H_
#define MRA_STORAGE_WAL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "mra/common/result.h"

namespace mra {
namespace storage {

/// Appends framed records to a log file.
///
/// Failpoints (docs/RECOVERY.md): `wal.append` — an `error` action fails
/// the append before any byte is written, `torn(N)` persists only the
/// first N bytes of the frame and then fails (a simulated crash
/// mid-write); `wal.sync` fails or aborts inside Sync().
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens (creating if needed) `path` for appending.
  static Result<WalWriter> Open(const std::string& path);

  /// Appends one framed record and flushes it to the OS.  When `sync` is
  /// true the record is also fsync'ed to stable storage before returning.
  Status Append(std::string_view payload, bool sync);

  /// fsync the file.
  Status Sync();

  void Close();

 private:
  std::FILE* file_ = nullptr;
};

/// How ReadWal treats corruption that is not a clean torn tail.
enum class Salvage {
  /// Mid-log corruption fails the read with Corruption (default).
  kNone,
  /// Mid-log corruption keeps the intact prefix: the result carries the
  /// records up to the corrupt frame, `salvaged` set, and the number of
  /// structurally identifiable frames that were discarded.  Reported via
  /// the `wal.salvaged_*` metrics.
  kPrefix,
};

/// Outcome of reading a log.
struct WalReadResult {
  std::vector<std::string> records;
  /// True when the file ended with a partially written record, which
  /// recovery discards (the transaction never acknowledged its commit).
  bool torn_tail = false;
  /// True when Salvage::kPrefix dropped a corrupt suffix mid-log.
  bool salvaged = false;
  /// Byte offset one past the last intact record — the length the file
  /// must be truncated to before any new record is appended, so a fresh
  /// commit is never written after a partial or corrupt frame.
  uint64_t valid_bytes = 0;
  /// Salvage only: frames after the corruption point that still parse
  /// structurally (magic + plausible length), i.e. records lost to the
  /// corrupt stretch, plus one for the corrupt frame itself.
  uint64_t discarded_records = 0;
};

/// Reads all intact records of the log at `path`.  A missing file yields an
/// empty result.  A malformed frame that is not a clean torn tail (e.g. a
/// CRC mismatch followed by further data) returns Corruption — unless
/// `salvage` is kPrefix, which recovers the intact prefix instead.
Result<WalReadResult> ReadWal(const std::string& path,
                              Salvage salvage = Salvage::kNone);

/// Truncates the log to empty (after a checkpoint).
Status TruncateWal(const std::string& path);

/// Truncates the log to its intact prefix (`valid_bytes` from a read that
/// reported a torn tail or salvaged corruption).
Status TruncateWalToOffset(const std::string& path, uint64_t valid_bytes);

}  // namespace storage
}  // namespace mra

#endif  // MRA_STORAGE_WAL_H_
