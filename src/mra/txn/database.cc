#include "mra/txn/database.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>

#include "mra/fault/failpoint.h"
#include "mra/obs/metrics.h"
#include "mra/storage/plan_serializer.h"
#include "mra/storage/serializer.h"
#include "mra/txn/transaction.h"

namespace mra {

namespace {

// WAL record kinds (layouts in docs/RECOVERY.md).
//
// kRecCommit is the original commit record — every touched relation's
// whole after-image.  It is no longer written, but recovery still replays
// it so logs from before kRecCommitDelta keep loading.
constexpr uint8_t kRecCommit = 1;
constexpr uint8_t kRecCreateRelation = 2;
constexpr uint8_t kRecDropRelation = 3;
constexpr uint8_t kRecAddConstraint = 4;
constexpr uint8_t kRecDropConstraint = 5;
constexpr uint8_t kRecAnalyze = 6;
constexpr uint8_t kRecCommitDelta = 7;

// How kRecCommitDelta logs one relation: the touched tuples with their
// new absolute multiplicities, or (when the bracket replaced the
// relation) its whole after-image.
constexpr uint8_t kChangeTuples = 0;
constexpr uint8_t kChangeImage = 1;

// The fewest bytes one (tuple, multiplicity) entry can occupy.
constexpr size_t kMinEntryBytes = 12;

constexpr char kWalFile[] = "wal.log";
constexpr char kCheckpointFile[] = "checkpoint.mra";

Result<std::string> ReadFileContents(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no file " + path);
  std::string contents;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::IoError("cannot read " + path);
  return contents;
}

/// fsyncs the directory containing `path`, making a just-renamed entry
/// durable (the rename itself lives in the directory, not the file).
Status SyncParentDir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open directory " + dir + ": " +
                           std::strerror(errno));
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("cannot fsync directory " + dir + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

/// Crash-safe file install: write to `path.tmp`, fsync the data, rename
/// over `path`, fsync the parent directory.  A crash at any point leaves
/// either the old file or the complete new one — never a partial image,
/// and never a rename that evaporates with the directory's page cache.
///
/// Failpoints: `checkpoint.write` (error / torn tmp image),
/// `checkpoint.sync`, `checkpoint.rename` (fails or aborts before the
/// rename), `checkpoint.dirsync` (after the rename, before the directory
/// fsync).
Status WriteFileAtomically(const std::string& path,
                           const std::string& contents) {
  static fault::Failpoint* fp_write =
      fault::FaultRegistry::Global().Get("checkpoint.write");
  static fault::Failpoint* fp_sync =
      fault::FaultRegistry::Global().Get("checkpoint.sync");
  static fault::Failpoint* fp_rename =
      fault::FaultRegistry::Global().Get("checkpoint.rename");
  static fault::Failpoint* fp_dirsync =
      fault::FaultRegistry::Global().Get("checkpoint.dirsync");

  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot create " + tmp);
  bool ok;
  fault::Failpoint::Outcome fo = fp_write->Hit();
  if (fo.kind == fault::ActionKind::kError) {
    std::fclose(f);
    return fp_write->InjectedError();
  }
  if (fo.kind == fault::ActionKind::kTorn) {
    size_t keep = std::min<size_t>(fo.keep_bytes, contents.size());
    std::fwrite(contents.data(), 1, keep, f);
    std::fclose(f);
    return fp_write->InjectedError();
  }
  ok = std::fwrite(contents.data(), 1, contents.size(), f) ==
       contents.size();
  ok = (std::fflush(f) == 0) && ok;
  // fsync the image before the rename: renaming first could install a
  // checkpoint whose bytes never reach the disk, and the subsequent WAL
  // truncate would then delete the only durable copy of the database.
  Status injected = fault::InjectIfArmed(fp_sync);
  ok = injected.ok() && (::fsync(::fileno(f)) == 0) && ok;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    return injected.ok() ? Status::IoError("cannot write " + tmp) : injected;
  }
  MRA_RETURN_IF_ERROR(fault::InjectIfArmed(fp_rename));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IoError("cannot install " + path + ": " + ec.message());
  MRA_RETURN_IF_ERROR(fault::InjectIfArmed(fp_dirsync));
  return SyncParentDir(path);
}

obs::Counter* ReplayToleratedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("wal.replay.tolerated");
  return c;
}

// Installs a logged after-image during replay.  In the already-applied
// region before a checkpoint the relation may have been dropped later
// (NotFound), or dropped and recreated over another schema
// (InvalidArgument), so the image has nowhere to land — and needs none.
Status InstallReplayedImage(Catalog* catalog, Relation rel,
                            bool checkpoint_loaded) {
  std::string name = rel.schema().name();
  Status s = catalog->SetRelation(name, std::move(rel));
  if (!s.ok()) {
    if (!(checkpoint_loaded && (s.code() == StatusCode::kNotFound ||
                                s.code() == StatusCode::kInvalidArgument))) {
      return s;
    }
    ReplayToleratedCounter()->Inc();
  }
  return Status::OK();
}

}  // namespace

std::string Database::wal_path() const {
  return options_.directory + "/" + kWalFile;
}

std::string Database::checkpoint_path() const {
  return options_.directory + "/" + kCheckpointFile;
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  auto db = std::unique_ptr<Database>(new Database());
  db->options_ = std::move(options);
  if (db->durable()) {
    std::error_code ec;
    std::filesystem::create_directories(db->options_.directory, ec);
    if (ec) {
      return Status::IoError("cannot create database directory: " +
                             ec.message());
    }
    MRA_RETURN_IF_ERROR(db->Recover());
    MRA_ASSIGN_OR_RETURN(db->wal_, storage::WalWriter::Open(db->wal_path()));
  }
  return db;
}

Database::~Database() = default;

Status Database::Recover() {
  // 1. Load the newest checkpoint, if any (catalog image + constraints).
  bool checkpoint_loaded = false;
  Result<std::string> image = ReadFileContents(checkpoint_path());
  if (image.ok()) {
    checkpoint_loaded = true;
    storage::Decoder dec(*image);
    MRA_ASSIGN_OR_RETURN(std::string catalog_bytes, dec.GetString());
    MRA_ASSIGN_OR_RETURN(catalog_, storage::DecodeCatalog(catalog_bytes));
    MRA_ASSIGN_OR_RETURN(uint32_t n_constraints, dec.GetU32());
    for (uint32_t i = 0; i < n_constraints; ++i) {
      MRA_ASSIGN_OR_RETURN(std::string name, dec.GetString());
      MRA_ASSIGN_OR_RETURN(PlanPtr plan, storage::DecodePlan(&dec));
      constraints_.emplace(std::move(name), std::move(plan));
    }
    if (!dec.AtEnd()) {
      return Status::Corruption("trailing bytes in checkpoint image");
    }
  } else if (image.status().code() != StatusCode::kNotFound) {
    return image.status();
  }

  // 2. Replay intact WAL records.
  //
  // When a checkpoint image was loaded, a DDL record that is already
  // reflected in it is tolerated rather than treated as corruption: a
  // crash between the checkpoint's rename and the WAL truncate leaves a
  // log whose records are all already applied (commit records carry
  // absolute multiplicities or after-images, so re-applying them is
  // naturally idempotent; DDL replay must be made so).  Without a
  // checkpoint the WAL is the entire history and a duplicate create /
  // missing drop is genuine corruption.
  obs::Counter* tolerated = ReplayToleratedCounter();
  MRA_ASSIGN_OR_RETURN(
      storage::WalReadResult wal,
      storage::ReadWal(wal_path(), options_.salvage_wal
                                       ? storage::Salvage::kPrefix
                                       : storage::Salvage::kNone));
  for (const std::string& record : wal.records) {
    storage::Decoder dec(record);
    MRA_ASSIGN_OR_RETURN(uint8_t kind, dec.GetU8());
    switch (kind) {
      case kRecCreateRelation: {
        MRA_ASSIGN_OR_RETURN(RelationSchema schema, dec.GetSchema());
        Status s = catalog_.CreateRelation(std::move(schema));
        if (!s.ok()) {
          if (!(checkpoint_loaded &&
                s.code() == StatusCode::kAlreadyExists)) {
            return s;
          }
          tolerated->Inc();
        }
        break;
      }
      case kRecDropRelation: {
        MRA_ASSIGN_OR_RETURN(std::string name, dec.GetString());
        Status s = catalog_.DropRelation(name);
        if (!s.ok()) {
          if (!(checkpoint_loaded && s.code() == StatusCode::kNotFound)) {
            return s;
          }
          tolerated->Inc();
        }
        break;
      }
      case kRecAddConstraint: {
        MRA_ASSIGN_OR_RETURN(std::string name, dec.GetString());
        MRA_ASSIGN_OR_RETURN(PlanPtr plan, storage::DecodePlan(&dec));
        constraints_[std::move(name)] = std::move(plan);
        break;
      }
      case kRecDropConstraint: {
        MRA_ASSIGN_OR_RETURN(std::string name, dec.GetString());
        if (constraints_.erase(name) == 0) {
          if (!checkpoint_loaded) {
            return Status::Corruption("WAL drops unknown constraint " + name);
          }
          tolerated->Inc();
        }
        break;
      }
      case kRecAnalyze: {
        MRA_ASSIGN_OR_RETURN(std::string name, dec.GetString());
        MRA_ASSIGN_OR_RETURN(stats::TableStatistics stats,
                             dec.GetStatistics());
        Status s = catalog_.SetStatistics(name, std::move(stats));
        if (!s.ok()) {
          if (!(checkpoint_loaded && s.code() == StatusCode::kNotFound)) {
            return s;
          }
          tolerated->Inc();
        }
        break;
      }
      case kRecCommit: {
        MRA_ASSIGN_OR_RETURN(uint64_t txn_id, dec.GetU64());
        MRA_ASSIGN_OR_RETURN(uint64_t time, dec.GetU64());
        MRA_ASSIGN_OR_RETURN(uint32_t n, dec.GetU32());
        for (uint32_t i = 0; i < n; ++i) {
          MRA_ASSIGN_OR_RETURN(Relation rel, dec.GetRelation());
          MRA_RETURN_IF_ERROR(InstallReplayedImage(&catalog_, std::move(rel),
                                                   checkpoint_loaded));
        }
        catalog_.set_logical_time(std::max(catalog_.logical_time(), time));
        next_txn_id_ = std::max(next_txn_id_, txn_id + 1);
        break;
      }
      case kRecCommitDelta:
        MRA_RETURN_IF_ERROR(ReplayCommitDelta(&dec, checkpoint_loaded));
        break;
      default:
        return Status::Corruption("unknown WAL record kind " +
                                  std::to_string(kind));
    }
    if (!dec.AtEnd()) {
      return Status::Corruption("trailing bytes in WAL record");
    }
  }

  // 3. If the log ended in a torn frame (or a salvage dropped a corrupt
  // suffix), chop the file back to its intact prefix *before* the writer
  // reopens it for appending — a fresh commit written after a partial
  // frame would make the whole log unreadable on the next recovery.
  if (wal.torn_tail || wal.salvaged) {
    MRA_RETURN_IF_ERROR(
        storage::TruncateWalToOffset(wal_path(), wal.valid_bytes));
  }
  return Status::OK();
}

Status Database::ReplayCommitDelta(storage::Decoder* dec,
                                   bool checkpoint_loaded) {
  MRA_ASSIGN_OR_RETURN(uint64_t txn_id, dec->GetU64());
  MRA_ASSIGN_OR_RETURN(uint64_t time, dec->GetU64());
  MRA_ASSIGN_OR_RETURN(uint32_t n, dec->GetU32());
  for (uint32_t i = 0; i < n; ++i) {
    MRA_ASSIGN_OR_RETURN(uint8_t form, dec->GetU8());
    if (form == kChangeImage) {
      MRA_ASSIGN_OR_RETURN(Relation rel, dec->GetRelation());
      MRA_RETURN_IF_ERROR(InstallReplayedImage(&catalog_, std::move(rel),
                                               checkpoint_loaded));
      continue;
    }
    if (form != kChangeTuples) {
      return Status::Corruption("unknown change form " +
                                std::to_string(form) + " in commit record");
    }
    MRA_ASSIGN_OR_RETURN(RelationSchema schema, dec->GetSchema());
    MRA_ASSIGN_OR_RETURN(uint64_t count, dec->GetU64());
    MRA_RETURN_IF_ERROR(dec->CheckCount(count, kMinEntryBytes));
    // Where the tuples land.  Before a checkpoint, the relation may since
    // have been dropped (or dropped and recreated over another schema);
    // the record is then already superseded and its tuples land nowhere.
    Relation* target = nullptr;
    Result<Relation*> found = catalog_.GetMutableRelation(schema.name());
    if (found.ok() && (*found)->schema().CompatibleWith(schema)) {
      target = *found;
    } else if (checkpoint_loaded) {
      ReplayToleratedCounter()->Inc();
    } else if (!found.ok()) {
      return found.status();
    } else {
      return Status::Corruption("commit record for " + schema.name() +
                                " has schema " + schema.ToString() +
                                ", the catalog has " +
                                (*found)->schema().ToString());
    }
    Tuple previous;
    for (uint64_t k = 0; k < count; ++k) {
      MRA_ASSIGN_OR_RETURN(Tuple tuple, dec->GetTuple());
      MRA_ASSIGN_OR_RETURN(uint64_t multiplicity, dec->GetU64());
      if (Status s = tuple.ConformsTo(schema); !s.ok()) {
        return Status::Corruption("commit record tuple: " + s.message());
      }
      if (k > 0 && previous.Compare(tuple) >= 0) {
        return Status::Corruption("commit record tuples of " + schema.name() +
                                  " are not in canonical order");
      }
      // An absolute count: applying it twice is applying it once.
      if (target != nullptr) target->SetMultiplicity(tuple, multiplicity);
      previous = std::move(tuple);
    }
  }
  catalog_.set_logical_time(std::max(catalog_.logical_time(), time));
  next_txn_id_ = std::max(next_txn_id_, txn_id + 1);
  return Status::OK();
}

Status Database::CreateRelation(RelationSchema schema) {
  MRA_ASSIGN_OR_RETURN(auto lock, LockOutsideBracket("DDL"));
  MRA_RETURN_IF_ERROR(catalog_.CreateRelation(schema));
  if (durable()) {
    Status s = AppendDdlRecord(kRecCreateRelation, schema, schema.name());
    if (!s.ok()) {
      // Keep memory and log consistent on failure.
      (void)catalog_.DropRelation(schema.name());
      return s;
    }
  }
  return Status::OK();
}

Status Database::DropRelation(const std::string& name) {
  MRA_ASSIGN_OR_RETURN(auto lock, LockOutsideBracket("DDL"));
  MRA_ASSIGN_OR_RETURN(const Relation* existing, catalog_.GetRelation(name));
  Relation saved = *existing;
  MRA_RETURN_IF_ERROR(catalog_.DropRelation(name));
  if (durable()) {
    Status s = AppendDdlRecord(kRecDropRelation, RelationSchema{}, name);
    if (!s.ok()) {
      RelationSchema schema = saved.schema();
      (void)catalog_.CreateRelation(schema);
      (void)catalog_.SetRelation(name, std::move(saved));
      return s;
    }
  }
  return Status::OK();
}

Result<stats::TableStatistics> Database::Analyze(const std::string& name) {
  MRA_ASSIGN_OR_RETURN(auto lock, LockOutsideBracket("ANALYZE"));
  static obs::Counter* analyzes =
      obs::MetricsRegistry::Global().GetCounter("stats.analyze_total");
  static obs::Histogram* duration =
      obs::MetricsRegistry::Global().GetHistogram("stats.analyze_us");
  auto start = std::chrono::steady_clock::now();
  MRA_ASSIGN_OR_RETURN(const Relation* rel, catalog_.GetRelation(name));
  stats::TableStatistics stats =
      stats::Analyze(*rel, catalog_.logical_time());
  if (durable()) {
    storage::Encoder enc;
    enc.PutU8(kRecAnalyze);
    enc.PutString(name);
    enc.PutStatistics(stats);
    MRA_RETURN_IF_ERROR(wal_.Append(enc.buffer(), options_.sync_commits));
  }
  MRA_RETURN_IF_ERROR(catalog_.SetStatistics(name, stats));
  analyzes->Inc();
  duration->Observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return stats;
}

Status Database::AppendDdlRecord(uint8_t kind, const RelationSchema& schema,
                                 const std::string& name) {
  storage::Encoder enc;
  enc.PutU8(kind);
  if (kind == kRecCreateRelation) {
    enc.PutSchema(schema);
  } else {
    enc.PutString(name);
  }
  return wal_.Append(enc.buffer(), options_.sync_commits);
}

Status Database::AddConstraint(const std::string& name,
                               PlanPtr violation_query) {
  MRA_ASSIGN_OR_RETURN(auto lock, LockOutsideBracket("a constraint change"));
  if (name.empty() || violation_query == nullptr) {
    return Status::InvalidArgument("constraint needs a name and a query");
  }
  if (constraints_.count(name) > 0) {
    return Status::AlreadyExists("constraint " + name + " already exists");
  }
  // The WAL and every checkpoint persist the plan, and recovery must read
  // it back: refuse what the decoder would (e.g. nesting past its limit).
  Status decodes = storage::DecodePlanFromString(
                       storage::EncodePlanToString(*violation_query))
                       .status();
  if (!decodes.ok()) {
    return Status::InvalidArgument("constraint " + name +
                                   " cannot be persisted: " +
                                   decodes.message());
  }
  // The current state must already satisfy the constraint.
  MRA_ASSIGN_OR_RETURN(Relation violations,
                       EvaluatePlan(*violation_query, catalog_));
  if (!violations.empty()) {
    return Status::ConstraintViolation(
        "constraint " + name + " is violated by the current state (e.g. " +
        violations.begin()->first.ToString() + ")");
  }
  if (durable()) {
    storage::Encoder enc;
    enc.PutU8(kRecAddConstraint);
    enc.PutString(name);
    storage::EncodePlan(&enc, *violation_query);
    MRA_RETURN_IF_ERROR(wal_.Append(enc.buffer(), options_.sync_commits));
  }
  constraints_.emplace(name, std::move(violation_query));
  return Status::OK();
}

Status Database::DropConstraint(const std::string& name) {
  MRA_ASSIGN_OR_RETURN(auto lock, LockOutsideBracket("a constraint change"));
  if (constraints_.count(name) == 0) {
    return Status::NotFound("no constraint named " + name);
  }
  if (durable()) {
    storage::Encoder enc;
    enc.PutU8(kRecDropConstraint);
    enc.PutString(name);
    MRA_RETURN_IF_ERROR(wal_.Append(enc.buffer(), options_.sync_commits));
  }
  constraints_.erase(name);
  return Status::OK();
}

std::vector<std::string> Database::ConstraintNames() const {
  std::vector<std::string> names;
  names.reserve(constraints_.size());
  for (const auto& [name, plan] : constraints_) names.push_back(name);
  return names;
}

Status Database::CheckConstraints(const RelationProvider& view) const {
  for (const auto& [name, plan] : constraints_) {
    MRA_ASSIGN_OR_RETURN(Relation violations, EvaluatePlan(*plan, view));
    if (!violations.empty()) {
      return Status::ConstraintViolation(
          "transaction would violate constraint " + name + " (e.g. " +
          violations.begin()->first.ToString() + ")");
    }
  }
  return Status::OK();
}

Result<std::unique_lock<std::shared_mutex>> Database::LockOutsideBracket(
    const char* what) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (txn_active_) {
    return Status::TxnError(std::string(what) +
                            " is not allowed while a transaction is active");
  }
  return lock;
}

Result<std::unique_ptr<Transaction>> Database::Begin(bool wait) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (txn_active_ && !wait) {
    return Status::TxnError(
        "a transaction is already active (serial isolation)");
  }
  txn_slot_cv_.wait(lock, [this] { return !txn_active_; });
  txn_active_ = true;
  return std::unique_ptr<Transaction>(new Transaction(this, next_txn_id_++));
}

std::string Database::EncodeCommitRecord(
    uint64_t txn_id,
    const std::map<std::string, RelationChange>& changes) const {
  storage::Encoder enc;
  enc.PutU8(kRecCommitDelta);
  enc.PutU64(txn_id);
  enc.PutU64(catalog_.logical_time() + 1);
  enc.PutU32(static_cast<uint32_t>(changes.size()));
  for (const auto& [name, change] : changes) {
    if (change.replaced) {
      enc.PutU8(kChangeImage);
      enc.PutRelation(*change.image);
      continue;
    }
    enc.PutU8(kChangeTuples);
    enc.PutSchema(change.base->schema());
    std::vector<const RelationChange::Overlay::value_type*> entries;
    entries.reserve(change.overlay.size());
    for (const auto& entry : change.overlay) entries.push_back(&entry);
    std::sort(entries.begin(), entries.end(), [](const auto* a, const auto* b) {
      return a->first.Compare(b->first) < 0;
    });
    enc.PutU64(entries.size());
    for (const auto* entry : entries) {
      enc.PutTuple(entry->first);
      enc.PutU64(entry->second);
    }
  }
  return enc.TakeBuffer();
}

Status Database::ApplyCommit(uint64_t txn_id,
                             std::map<std::string, RelationChange> changes) {
  // A bracket that changed nothing (only queries and temporaries, or empty
  // operands) is no transition: it logs no record and time does not move,
  // so a reopened database reaches the live one's logical time.
  const bool changed =
      std::any_of(changes.begin(), changes.end(), [](const auto& entry) {
        return entry.second.replaced || !entry.second.overlay.empty();
      });
  // Encoded before the exclusive lock, so readers run while it is built.
  // The caller holds the transaction slot, which refuses every other
  // writer: the logical time the record names cannot move meanwhile, and
  // each change's `base` is still the catalog's relation.
  std::string record;
  if (changed && durable()) record = EncodeCommitRecord(txn_id, changes);
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (changed) {
    // Log first (write-ahead), then install in memory.
    if (durable()) {
      MRA_RETURN_IF_ERROR(wal_.Append(record, options_.sync_commits));
    }
    for (auto& [name, change] : changes) {
      MRA_ASSIGN_OR_RETURN(Relation* target,
                           catalog_.GetMutableRelation(name));
      if (change.replaced) {
        // The displaced image stays in `changes`, freed after the lock.
        std::swap(*target, *change.image);
        continue;
      }
      for (const auto& [tuple, count] : change.overlay) {
        target->SetMultiplicity(tuple, count);
      }
    }
    catalog_.AdvanceTime();
  }
  txn_active_ = false;
  txn_slot_cv_.notify_all();
  lock.unlock();
  changes.clear();
  return Status::OK();
}

void Database::EndTransaction() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  txn_active_ = false;
  txn_slot_cv_.notify_all();
}

Status Database::Checkpoint() {
  if (!durable()) return Status::OK();
  MRA_ASSIGN_OR_RETURN(auto lock, LockOutsideBracket("a checkpoint"));
  storage::Encoder image;
  std::string catalog_bytes = storage::EncodeCatalog(catalog_);
  image.PutString(catalog_bytes);
  image.PutU32(static_cast<uint32_t>(constraints_.size()));
  for (const auto& [name, plan] : constraints_) {
    image.PutString(name);
    storage::EncodePlan(&image, *plan);
  }
  MRA_RETURN_IF_ERROR(WriteFileAtomically(checkpoint_path(), image.buffer()));
  // A crash here (exercised via the wal.truncate failpoint) leaves the
  // new checkpoint installed with the old WAL intact; recovery's
  // tolerant replay converges back to this same state.
  static fault::Failpoint* fp_truncate =
      fault::FaultRegistry::Global().Get("wal.truncate");
  MRA_RETURN_IF_ERROR(fault::InjectIfArmed(fp_truncate));
  MRA_RETURN_IF_ERROR(storage::TruncateWal(wal_path()));
  obs::MetricsRegistry::Global().GetCounter("db.checkpoints")->Inc();
  return Status::OK();
}

}  // namespace mra
