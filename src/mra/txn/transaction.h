// Transactions (Definition 4.3) and the statement semantics of
// Definition 4.1 they execute.
//
// A Transaction is an overlay over the committed state D_t:
//  * reads resolve temporaries first, then the relations the bracket
//    wrote, then the committed catalog — these are the intermediate states
//    D^{t.i}, visible only inside the bracket;
//  * insert/delete record, per touched tuple, R's new absolute
//    multiplicity over the committed R (R ← R ⊎ E and R ← R − E of
//    Definition 4.1 in O(|E|), never copying R); update, or an operand at
//    least as large as R, replaces R with a whole after-image instead;
//  * assignment creates a temporary relation, removed at the bracket's end;
//  * Commit atomically installs D_{t+1} (and logs it when durable),
//    applying each overlay to the committed relation in place;
//  * Abort discards everything, leaving D_t untouched.
//
// The committed relations an overlay points into stay valid for the whole
// bracket: while the bracket holds the transaction slot, every catalog
// mutator (DDL, constraints, Analyze, Checkpoint) is refused, only the
// commit itself writes the catalog, and the catalog is a std::map whose
// nodes never move.

#ifndef MRA_TXN_TRANSACTION_H_
#define MRA_TXN_TRANSACTION_H_

#include <map>
#include <string>
#include <vector>

#include "mra/expr/scalar_expr.h"
#include "mra/txn/database.h"

namespace mra {

class Transaction final : public RelationProvider {
 public:
  ~Transaction() override;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Reads through the overlay: temporaries, then written relations, then
  /// the committed state.  This is the view expressions evaluate against.
  /// A relation the bracket edited is materialised once, on its first read
  /// after a write, and kept current by later edits.
  Result<const Relation*> GetRelation(const std::string& name) const override;

  /// Statistics resolve against the committed state: snapshots describe
  /// D_t and simply read stale against the bracket's writes, the
  /// same staleness contract as ordinary writes.  Temporaries have none.
  const stats::TableStatistics* GetStatistics(
      const std::string& name) const override;

  /// insert(R, E): R ← R ⊎ E (Definition 4.1), in O(|E|) unless E is at
  /// least as large as R.  `delta` must be schema-compatible with R; the
  /// check and its error are ops::Union's.
  Status Insert(const std::string& name, const Relation& delta);

  /// delete(R, E): R ← R − E (Definition 4.1), like Insert, with
  /// ops::Difference's operand check and error.
  Status Delete(const std::string& name, const Relation& delta);

  /// update(R, E, α): R ← (R − E) ⊎ π_α(R ∩ E) (Definition 4.1).  α must
  /// be structure-preserving: π_α(R) must have R's schema.
  Status Update(const std::string& name, const Relation& matched,
                const std::vector<ExprPtr>& alpha);

  /// R = E: binds a *new* temporary relational variable (Definition 4.1).
  /// The name must not collide with a database relation or an existing
  /// temporary; temporaries vanish at commit/abort.
  Status Assign(const std::string& name, Relation value);

  /// Ends the bracket, installing D_{t+1} atomically (and durably when the
  /// database has a directory).  The transaction becomes inactive.
  Status Commit();

  /// Ends the bracket discarding all effects; D_t remains current.
  Status Abort();

  bool active() const { return active_; }
  uint64_t id() const { return id_; }

  /// Names of temporaries created so far (for the REPL's introspection).
  std::vector<std::string> TemporaryNames() const;

 private:
  friend class Database;

  Transaction(Database* db, uint64_t id) : db_(db), id_(id) {}

  // The bracket's change to database relation `name`, started as an empty
  // overlay over the committed relation on first write.
  Result<RelationChange*> GetWritable(const std::string& name);

  Status CheckActive() const;

  Database* db_;
  uint64_t id_;
  bool active_ = true;
  // Written relations; mutable because GetRelation materialises a written
  // relation's view on first read.
  mutable std::map<std::string, RelationChange> working_;
  std::map<std::string, Relation> temps_;    // Assignment targets.
};

}  // namespace mra

#endif  // MRA_TXN_TRANSACTION_H_
