// Transactions (Definition 4.3) and the statement semantics of
// Definition 4.1 they execute.
//
// A Transaction is a copy-on-write overlay over the committed state D_t:
//  * reads resolve temporaries first, then modified working copies, then
//    the committed catalog — these are the intermediate states D^{t.i},
//    visible only inside the bracket;
//  * insert/delete edit a working copy in place and update replaces it
//    (R ← … of Definition 4.1); on durable databases insert/delete also
//    note the tuples they touch, so the commit logs O(delta) bytes;
//  * assignment creates a temporary relation, removed at the bracket's end;
//  * Commit atomically installs D_{t+1} (and logs it when durable);
//  * Abort discards everything, leaving D_t untouched.

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

  /// Reads through the overlay: temporaries, then working copies, then the
  /// committed state.  This is the view expressions evaluate against.
  Result<const Relation*> GetRelation(const std::string& name) const override;

  /// Statistics resolve against the committed state: snapshots describe
  /// D_t and simply read stale against the bracket's working copies, the
  /// same staleness contract as ordinary writes.  Temporaries have none.
  const stats::TableStatistics* GetStatistics(
      const std::string& name) const override;

  /// insert(R, E): R ← R ⊎ E (Definition 4.1), edited in place.  `delta`
  /// must be schema-compatible with R; the check and its error are
  /// ops::Union's.
  Status Insert(const std::string& name, const Relation& delta);

  /// delete(R, E): R ← R − E (Definition 4.1), edited in place, with
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

  // Fetches the current working version of a database relation, copying it
  // into the overlay on first write.
  Result<RelationChange*> GetWritable(const std::string& name);

  // Before an insert/delete of `delta` into `change`: marks the relation
  // replaced when `delta` has at least as many distinct tuples as it;
  // otherwise, on durable databases, notes the tuples `delta` names.
  void NoteTouched(RelationChange* change, const Relation& delta) const;

  Status CheckActive() const;

  Database* db_;
  uint64_t id_;
  bool active_ = true;
  std::map<std::string, RelationChange> working_;  // Modified relations.
  std::map<std::string, Relation> temps_;    // Assignment targets.
};

}  // namespace mra

#endif  // MRA_TXN_TRANSACTION_H_
