#include "mra/exec/spill.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string_view>

#include "mra/fault/failpoint.h"
#include "mra/obs/metrics.h"
#include "mra/storage/serializer.h"

namespace mra {
namespace exec {
namespace {

namespace fs = std::filesystem;

// Injection sites for the spill torture cases (docs/RECOVERY.md catalog):
// one hit per run write, per rename, and per entry read.
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

// Fresh run-file path under the system temp directory; the process-wide
// sequence keeps concurrent operators (and lanes) from colliding.
std::string NextRunPath() {
  static std::atomic<uint64_t> seq{0};
  uint64_t n = seq.fetch_add(1, std::memory_order_relaxed);
  fs::path dir = fs::temp_directory_path();
  return (dir / ("mra_sort_" + std::to_string(::getpid()) + "_run" +
                 std::to_string(n)))
      .string();
}

}  // namespace

uint64_t SpillThreshold(uint64_t spill_bytes, const ExecContext* ctx) {
  uint64_t threshold = spill_bytes > 0 ? spill_bytes : UINT64_MAX;
  if (ctx != nullptr && ctx->mem_budget() > 0) {
    threshold = std::min(threshold, ctx->mem_budget() / 2);
  }
  return threshold;
}

Result<bool> ReadRunEntry(std::istream& in, uint64_t* bytes_left,
                          const std::string& path, std::string* payload,
                          Row* row) {
  char len_buf[4];
  in.read(len_buf, sizeof(len_buf));
  if (in.gcount() == 0 && in.eof()) return false;
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
  payload->resize(len);
  in.read(payload->data(), len);
  if (static_cast<uint32_t>(in.gcount()) != len) {
    return Status::Corruption("torn entry payload in sort run " + path);
  }
  storage::Decoder dec(*payload);
  MRA_RETURN_IF_ERROR(dec.GetTuple(&row->tuple));
  MRA_ASSIGN_OR_RETURN(row->count, dec.GetU64());
  return true;
}

Status RunWriter::Open() {
  path_ = NextRunPath();
  written_ = 0;
  MRA_RETURN_IF_ERROR(fault::InjectIfArmed(SpillWriteFp()));
  const std::string tmp_path = path_ + ".tmp";
  out_.open(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out_) return Status::IoError("cannot create sort run " + tmp_path);
  return Status::OK();
}

void RunWriter::Append(const Row& row) {
  entry_.Clear();
  entry_.PutU32(0);  // The length prefix, patched once the payload is in.
  entry_.PutTuple(row.tuple);
  entry_.PutU64(row.count);
  const std::string& bytes = entry_.buffer();
  entry_.PatchU32(0, static_cast<uint32_t>(bytes.size() - sizeof(uint32_t)));
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  written_ += bytes.size();
}

Status RunWriter::Finish() {
  out_.close();
  if (!out_) return Status::IoError("short write to sort run " + path_);
  MRA_RETURN_IF_ERROR(fault::InjectIfArmed(SpillRenameFp()));
  std::error_code ec;
  fs::rename(path_ + ".tmp", path_, ec);
  if (ec) {
    return Status::IoError("cannot publish sort run " + path_ + ": " +
                           ec.message());
  }
  static obs::Counter* runs =
      obs::MetricsRegistry::Global().GetCounter("sort.spill_runs");
  static obs::Counter* bytes =
      obs::MetricsRegistry::Global().GetCounter("sort.spill_bytes");
  runs->Inc();
  bytes->Inc(written_);
  return Status::OK();
}

Status RunReader::Open(const std::string& path) {
  path_ = path;
  in_ = std::ifstream(path, std::ios::binary);
  std::error_code ec;
  bytes_left_ = fs::file_size(path, ec);
  if (!in_ || ec) return Status::IoError("cannot reopen sort run " + path);
  return Advance();
}

Status RunReader::Advance() {
  done_ = true;
  MRA_RETURN_IF_ERROR(fault::InjectIfArmed(SpillReadFp()));
  MRA_ASSIGN_OR_RETURN(bool read, ReadRunEntry(in_, &bytes_left_, path_,
                                               &payload_, &current_));
  done_ = !read;
  return Status::OK();
}

void RemoveRunFiles(std::vector<std::string>* files) {
  for (const std::string& path : *files) {
    std::error_code ec;
    fs::remove(path, ec);
    fs::remove(path + ".tmp", ec);
  }
  files->clear();
}

}  // namespace exec
}  // namespace mra
