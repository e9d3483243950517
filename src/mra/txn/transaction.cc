#include "mra/txn/transaction.h"

#include <algorithm>
#include <chrono>

#include "mra/algebra/ops.h"
#include "mra/obs/metrics.h"

namespace mra {

namespace {

obs::Counter* TxnCommitCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("txn.commits");
  return c;
}

obs::Counter* TxnAbortCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("txn.aborts");
  return c;
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The bracket's current state of R: the committed relation while nothing
// was edited, else base ⊕ overlay, materialised once and then kept current
// by EditCount.
const Relation& View(RelationChange& change) {
  if (change.image) return *change.image;
  if (change.overlay.empty()) return *change.base;
  change.image = *change.base;
  for (const auto& [tuple, count] : change.overlay) {
    change.image->SetMultiplicity(tuple, count);
  }
  return *change.image;
}

// The replacement rule: an insert/delete whose non-empty operand has at
// least as many distinct tuples as R's current state replaces R, keeping
// that state as the after-image.  Returns the after-image to edit, or
// nullptr when the statement edits the overlay (an empty operand edits
// nothing, so the bracket stays a no-op).
Relation* ReplacedTarget(RelationChange& change, const Relation& delta) {
  if (!change.replaced) {
    if (delta.empty() || delta.distinct_size() < change.distinct) {
      return nullptr;
    }
    View(change);
    if (!change.image) change.image = *change.base;
    change.overlay.clear();
    change.replaced = true;
  }
  return &*change.image;
}

// R(tuple) ← next(R(tuple)) on an edited relation: the new absolute count
// goes into the overlay, and into the materialised view when there is one.
template <typename Next>
void EditCount(RelationChange& change, const Tuple& tuple, Next next) {
  auto [it, fresh] = change.overlay.try_emplace(tuple, 0);
  const uint64_t old = fresh ? change.base->Multiplicity(tuple) : it->second;
  const uint64_t count = next(old);
  it->second = count;
  if (old == 0 && count > 0) ++change.distinct;
  if (old > 0 && count == 0) --change.distinct;
  if (change.image) change.image->SetMultiplicity(tuple, count);
}

}  // namespace

Transaction::~Transaction() {
  // An abandoned bracket aborts (atomicity: D_t remains current).
  if (active_) {
    (void)Abort();
  }
}

Status Transaction::CheckActive() const {
  if (!active_) {
    return Status::TxnError("transaction " + std::to_string(id_) +
                            " is no longer active");
  }
  return Status::OK();
}

Result<const Relation*> Transaction::GetRelation(
    const std::string& name) const {
  MRA_RETURN_IF_ERROR(CheckActive());
  if (auto it = temps_.find(name); it != temps_.end()) return &it->second;
  if (auto it = working_.find(name); it != working_.end()) {
    return &View(it->second);
  }
  return db_->catalog_.GetRelation(name);
}

const stats::TableStatistics* Transaction::GetStatistics(
    const std::string& name) const {
  if (!active_ || temps_.count(name) > 0) return nullptr;
  return db_->catalog_.GetStatistics(name);
}

Result<RelationChange*> Transaction::GetWritable(const std::string& name) {
  if (temps_.count(name) > 0) {
    return Status::TxnError("cannot update temporary relation " + name +
                            " (temporaries are assignment-only)");
  }
  if (auto it = working_.find(name); it != working_.end()) return &it->second;
  MRA_ASSIGN_OR_RETURN(const Relation* base, db_->catalog_.GetRelation(name));
  RelationChange* change = &working_[name];
  change->base = base;
  change->distinct = base->distinct_size();
  return change;
}

Status Transaction::Insert(const std::string& name, const Relation& delta) {
  MRA_RETURN_IF_ERROR(CheckActive());
  MRA_ASSIGN_OR_RETURN(RelationChange* change, GetWritable(name));
  MRA_RETURN_IF_ERROR(ops::CheckCompatible(*change->base, delta, "union"));
  // insert(R, R) through the API: read the operand before editing it.
  if (change->image && &delta == &*change->image) {
    return Insert(name, Relation(delta));
  }
  // R ← R ⊎ E.
  if (Relation* rel = ReplacedTarget(*change, delta)) {
    // A bulk load into an empty image sizes it once: every delta tuple is
    // new.  Into a filled one the delta may repeat the image's tuples, so
    // the image grows only as they turn out new.
    if (rel->distinct_size() == 0) rel->Reserve(delta.distinct_size());
    for (const auto& [tuple, count] : delta) rel->InsertUnchecked(tuple, count);
    return Status::OK();
  }
  for (const auto& [tuple, count] : delta) {
    EditCount(*change, tuple, [count](uint64_t old) { return old + count; });
  }
  return Status::OK();
}

Status Transaction::Delete(const std::string& name, const Relation& delta) {
  MRA_RETURN_IF_ERROR(CheckActive());
  MRA_ASSIGN_OR_RETURN(RelationChange* change, GetWritable(name));
  MRA_RETURN_IF_ERROR(
      ops::CheckCompatible(*change->base, delta, "difference"));
  if (change->image && &delta == &*change->image) {
    return Delete(name, Relation(delta));
  }
  // R ← R − E, clamped at zero.
  if (Relation* rel = ReplacedTarget(*change, delta)) {
    for (const auto& [tuple, count] : delta) rel->Remove(tuple, count);
    return Status::OK();
  }
  for (const auto& [tuple, count] : delta) {
    EditCount(*change, tuple,
              [count](uint64_t old) { return old - std::min(old, count); });
  }
  return Status::OK();
}

Status Transaction::Update(const std::string& name, const Relation& matched,
                           const std::vector<ExprPtr>& alpha) {
  MRA_RETURN_IF_ERROR(CheckActive());
  MRA_ASSIGN_OR_RETURN(RelationChange* change, GetWritable(name));
  const Relation& rel = View(*change);
  // Definition 4.1 requires α to be structure-preserving: π_α of a
  // relation with R's schema has R's schema again.
  MRA_ASSIGN_OR_RETURN(RelationSchema projected,
                       InferProjectionSchema(alpha, rel.schema()));
  if (!projected.CompatibleWith(rel.schema())) {
    return Status::TypeError(
        "update expression list is not structure-preserving: yields " +
        projected.ToString() + " for relation " + rel.schema().ToString());
  }
  // R ← (R − E) ⊎ π_α(R ∩ E).
  MRA_ASSIGN_OR_RETURN(Relation untouched, ops::Difference(rel, matched));
  MRA_ASSIGN_OR_RETURN(Relation hit, ops::Intersect(rel, matched));
  MRA_ASSIGN_OR_RETURN(Relation rewritten, ops::Project(alpha, hit));
  // ops::Project synthesises attribute names; restore R's.
  Relation renamed(rel.schema());
  for (const auto& [tuple, count] : rewritten) {
    MRA_RETURN_IF_ERROR(renamed.Insert(tuple, count));
  }
  MRA_ASSIGN_OR_RETURN(Relation result, ops::Union(untouched, renamed));
  result.set_schema_name(name);
  change->image = std::move(result);
  change->overlay.clear();
  change->replaced = true;  // Logged whole: α may rewrite any tuple.
  return Status::OK();
}

Status Transaction::Assign(const std::string& name, Relation value) {
  MRA_RETURN_IF_ERROR(CheckActive());
  if (db_->catalog_.HasRelation(name)) {
    return Status::AlreadyExists(
        "assignment target " + name +
        " names a database relation (Definition 4.1: assignment introduces "
        "a new relational variable)");
  }
  value.set_schema_name(name);
  temps_[name] = std::move(value);  // Re-assignment of a temporary is allowed.
  return Status::OK();
}

Status Transaction::Commit() {
  static obs::Histogram* commit_us =
      obs::MetricsRegistry::Global().GetHistogram("txn.commit_us");

  MRA_RETURN_IF_ERROR(CheckActive());
  uint64_t t0 = NowMicros();
  // Correctness (§4.3): the post-state D_{t+1} must satisfy every
  // registered integrity constraint; otherwise the bracket aborts and D_t
  // stays current.  The overlay view *is* the candidate post-state.
  Status valid = db_->CheckConstraints(*this);
  if (!valid.ok()) {
    active_ = false;
    working_.clear();
    temps_.clear();
    db_->EndTransaction();
    TxnAbortCounter()->Inc();
    return valid;
  }
  Status s = db_->ApplyCommit(id_, std::move(working_));
  if (!s.ok()) {
    // Failed installation leaves D_t current; the bracket ends aborted.
    active_ = false;
    working_.clear();
    temps_.clear();
    db_->EndTransaction();
    TxnAbortCounter()->Inc();
    return s;
  }
  active_ = false;
  working_.clear();
  temps_.clear();
  TxnCommitCounter()->Inc();
  commit_us->Observe(NowMicros() - t0);
  return Status::OK();
}

Status Transaction::Abort() {
  MRA_RETURN_IF_ERROR(CheckActive());
  active_ = false;
  working_.clear();
  temps_.clear();
  db_->EndTransaction();
  TxnAbortCounter()->Inc();
  return Status::OK();
}

std::vector<std::string> Transaction::TemporaryNames() const {
  std::vector<std::string> names;
  names.reserve(temps_.size());
  for (const auto& [name, rel] : temps_) names.push_back(name);
  return names;
}

}  // namespace mra
