// Database schemas and instances (Definitions 2.5 and 2.6): a set of named
// relation schemas together with their current instances and the logical
// time of the state.  Catalog is the in-memory "database state" D_t; the
// transaction layer (mra/txn) layers atomicity and durability on top.

#ifndef MRA_CATALOG_CATALOG_H_
#define MRA_CATALOG_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "mra/algebra/evaluator.h"
#include "mra/common/result.h"
#include "mra/core/relation.h"
#include "mra/stats/table_statistics.h"

namespace mra {

/// A database state: named relations plus logical time.
class Catalog final : public RelationProvider {
 public:
  Catalog() = default;

  /// Adds an empty relation for `schema`.  The schema must carry a name
  /// (Definition 2.5: relations in a database are addressed by name);
  /// duplicates are AlreadyExists.
  Status CreateRelation(RelationSchema schema);

  Status DropRelation(const std::string& name);

  bool HasRelation(const std::string& name) const {
    return relations_.count(name) > 0;
  }

  /// RelationProvider: resolves a name to its current instance.
  Result<const Relation*> GetRelation(const std::string& name) const override;

  /// Mutable access for the statement layer.
  Result<Relation*> GetMutableRelation(const std::string& name);

  /// Replaces the instance bound to `name` (the ← of Definition 4.1).  The
  /// new instance must be schema-compatible with the declared schema.
  Status SetRelation(const std::string& name, Relation relation);

  /// Names of all relations, sorted (a database schema is a *set* of
  /// relation schemas; sorting only fixes iteration order).
  std::vector<std::string> RelationNames() const;

  size_t relation_count() const { return relations_.size(); }

  /// Installs an ANALYZE snapshot for `name` (NotFound if the relation does
  /// not exist).  Statistics are advisory: they go stale rather than invalid
  /// when the instance changes, and are dropped with the relation.
  Status SetStatistics(const std::string& name, stats::TableStatistics stats);

  /// RelationProvider: the last snapshot for `name`, or nullptr.
  const stats::TableStatistics* GetStatistics(
      const std::string& name) const override;

  /// All stored snapshots, for checkpoint serialization (sorted by name).
  const std::map<std::string, stats::TableStatistics>& statistics() const {
    return statistics_;
  }

  /// The logical time t of this state (Definition 2.6).
  uint64_t logical_time() const { return logical_time_; }
  /// Installs the next state: a single-step transition D_t → D_{t+1}.
  void AdvanceTime() { ++logical_time_; }
  void set_logical_time(uint64_t t) { logical_time_ = t; }

 private:
  // std::map keeps deterministic iteration for serialization and printing.
  std::map<std::string, Relation> relations_;
  std::map<std::string, stats::TableStatistics> statistics_;
  uint64_t logical_time_ = 0;
};

}  // namespace mra

#endif  // MRA_CATALOG_CATALOG_H_
