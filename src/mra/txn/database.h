// The database engine: committed state + transaction management +
// durability.  Implements §4.3 of the paper: transactions are bracketed
// programs executed with atomicity (all-or-nothing installation of
// D_{t+1}), correctness (schema validation throughout), isolation (serial:
// one active transaction at a time) and durability (WAL + checkpoint).
//
// Thread model: a Database may be shared across threads (the network
// server hands every session its own Interpreter over one Database).
// Writers — Begin/commit, DDL, constraints, Checkpoint — serialize on an
// internal shared_mutex; read-only queries hold a shared lock for their
// whole evaluation (take one via ReadLock()), so they run concurrently
// with each other and never observe a half-installed commit.  A
// Transaction's own reads of the committed state need no lock: while a
// bracket is active every other mutator is refused before touching the
// catalog, so only the bracket's thread can write.

#ifndef MRA_TXN_DATABASE_H_
#define MRA_TXN_DATABASE_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "mra/algebra/plan.h"
#include "mra/catalog/catalog.h"
#include "mra/storage/wal.h"

namespace mra {

namespace storage {
class Decoder;
}  // namespace storage

class Transaction;

/// What one transaction bracket did to one database relation R.  Until the
/// bracket replaces R it is an overlay over the committed relation: R's
/// touched tuples with their new absolute multiplicities, the partial
/// count function base ⊕ overlay denotes.  Once replaced, it is R's whole
/// after-image.
struct RelationChange {
  using Overlay = std::unordered_map<Tuple, uint64_t, TupleHash, TupleEq>;

  /// The committed R the bracket started from, read but never written by
  /// the bracket (see Transaction on why it stays valid).
  const Relation* base = nullptr;
  /// Unless `replaced`: every tuple an insert/delete named, with R's new
  /// multiplicity, 0 meaning removed.  The commit logs exactly these and
  /// applies them to the committed relation in place.
  Overlay overlay;
  /// Distinct tuples of base ⊕ overlay: the size the replacement rule
  /// compares against.
  size_t distinct = 0;
  /// Unless `replaced`: base ⊕ overlay, materialised when the bracket
  /// first reads R after writing it and kept current by later edits.
  /// Once `replaced`: R's after-image.
  std::optional<Relation> image;
  /// The bracket replaced R rather than edited it (update, or an
  /// insert/delete whose operand had at least as many distinct tuples as
  /// R): the commit logs `image` whole and installs a compact copy of it.
  bool replaced = false;
};

struct DatabaseOptions {
  /// Directory for the WAL and checkpoint files.  Empty means a purely
  /// in-memory database (no durability).
  std::string directory;
  /// fsync the WAL on every commit.  Off by default: crash-consistency
  /// is preserved either way (torn tails are discarded), fsync only
  /// narrows the window of acknowledged-but-lost commits.
  bool sync_commits = false;
  /// Salvage a corrupt WAL on open: recover the intact prefix instead of
  /// failing with Corruption (storage::Salvage::kPrefix; the dropped
  /// suffix is reported through the wal.salvaged_* metrics).  The log is
  /// truncated back to the surviving prefix before new commits append.
  bool salvage_wal = false;
};

/// A multi-set relational database.
class Database {
 public:
  /// Opens (and, when `options.directory` is set, recovers) a database.
  /// Recovery loads the newest checkpoint and replays the WAL; a torn WAL
  /// tail is discarded, other corruption fails the open.
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options = {});

  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// DDL (a documented extension; see DESIGN.md): creates an empty
  /// relation.  Not allowed while a transaction is active; logged for
  /// durability.
  Status CreateRelation(RelationSchema schema);
  Status DropRelation(const std::string& name);

  /// ANALYZE <relation>: scans the committed instance, stores a statistics
  /// snapshot in the catalog and WAL-logs it (durability mirrors DDL).
  /// Returns the snapshot so the statement layer can render a summary.
  /// Not allowed while a transaction is active.
  Result<stats::TableStatistics> Analyze(const std::string& name);

  /// The committed state D_t (Definition 2.5/2.6).
  const Catalog& catalog() const { return catalog_; }

  /// Opens a transaction bracket (Definition 4.3).  Serial isolation: at
  /// most one transaction is active; a second Begin is a TxnError — unless
  /// `wait` is set, in which case Begin blocks until the slot frees (how
  /// concurrent server sessions queue their brackets).
  Result<std::unique_ptr<Transaction>> Begin(bool wait = false);

  /// Shared lock over the committed state.  Hold it while evaluating a
  /// read-only query against catalog() from a thread that may race with
  /// commits; Interpreter::Query does this automatically.
  std::shared_lock<std::shared_mutex> ReadLock() const {
    return std::shared_lock<std::shared_mutex>(mutex_);
  }

  /// Registers an integrity constraint: `violation_query` is a plan that
  /// must evaluate to the EMPTY multi-set in every committed state (the
  /// §4.3 correctness property; semantics after the paper's companion
  /// work [11]).  The current state must already satisfy it.  Constraints
  /// are checked against each transaction's post-state at commit;
  /// violations abort the bracket.  Constraints are in-memory: reopen
  /// re-registers them (see DESIGN.md).  Not allowed mid-transaction.
  Status AddConstraint(const std::string& name, PlanPtr violation_query);

  Status DropConstraint(const std::string& name);

  /// Names of registered constraints, sorted.
  std::vector<std::string> ConstraintNames() const;

  /// Serializes the full state and truncates the WAL.
  Status Checkpoint();

  uint64_t logical_time() const { return catalog_.logical_time(); }

  /// Paths used when durable (for tests).
  std::string wal_path() const;
  std::string checkpoint_path() const;

 private:
  friend class Transaction;

  Database() = default;

  bool durable() const { return !options_.directory.empty(); }

  // Called by Transaction::Commit with the bracket's changes.  Encodes the
  // commit record (before taking the exclusive lock: the caller holds the
  // transaction slot, so logical time cannot move meanwhile), logs it,
  // applies each overlay to its committed relation in place and swaps in
  // each replaced relation's image, advances time and releases the
  // transaction slot.
  Status ApplyCommit(uint64_t txn_id,
                     std::map<std::string, RelationChange> changes);

  // The WAL record of a commit: per relation, either the touched tuples
  // with their new absolute multiplicities or the whole after-image.
  std::string EncodeCommitRecord(
      uint64_t txn_id,
      const std::map<std::string, RelationChange>& changes) const;

  // Replays one kRecCommitDelta record (the fields after its kind byte).
  Status ReplayCommitDelta(storage::Decoder* dec, bool checkpoint_loaded);

  // The exclusive lock for a top-level action (`what`: DDL, ANALYZE, …),
  // refused with TxnError while a bracket holds the transaction slot.
  Result<std::unique_lock<std::shared_mutex>> LockOutsideBracket(
      const char* what);

  // Releases the transaction slot without committing (abort / destruction).
  void EndTransaction();

  // Evaluates every constraint against `view` (a transaction's post-state);
  // returns ConstraintViolation naming the first violated constraint.
  Status CheckConstraints(const RelationProvider& view) const;

  Status AppendDdlRecord(uint8_t kind, const RelationSchema& schema,
                         const std::string& name);
  Status Recover();

  DatabaseOptions options_;
  Catalog catalog_;
  std::map<std::string, PlanPtr> constraints_;
  storage::WalWriter wal_;
  uint64_t next_txn_id_ = 1;
  bool txn_active_ = false;
  /// Writers exclusive, query evaluation shared (see the thread model
  /// note at the top of this header).
  mutable std::shared_mutex mutex_;
  /// Signalled when the transaction slot frees, for Begin(wait=true).
  std::condition_variable_any txn_slot_cv_;
};

}  // namespace mra

#endif  // MRA_TXN_DATABASE_H_
