// Tests for the transaction layer: the statement semantics of
// Definition 4.1 and the ACID properties of Definition 4.3, including
// durability (WAL + checkpoint recovery) and crash injection.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>

#include "mra/algebra/ops.h"
#include "mra/lang/interpreter.h"
#include "mra/storage/serializer.h"
#include "mra/txn/database.h"
#include "mra/txn/transaction.h"
#include "test_util.h"

namespace mra {
namespace {

using ::mra::testing::IntRel;
using ::mra::testing::IntTuple;
using ::mra::testing::RandomIntRelation;

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("mra_txn_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

RelationSchema XSchema(const std::string& name) {
  return RelationSchema(name, {{"x", Type::Int()}});
}

Relation Delta(const std::vector<std::pair<int64_t, uint64_t>>& rows) {
  Relation r(RelationSchema({{"x", Type::Int()}}));
  for (auto [v, c] : rows) r.InsertUnchecked(IntTuple({v}), c);
  return r;
}

TEST(DatabaseTest, CreateAndDropRelations) {
  auto db = Database::Open();
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  EXPECT_EQ((*db)->CreateRelation(XSchema("r")).code(),
            StatusCode::kAlreadyExists);
  ASSERT_OK((*db)->DropRelation("r"));
  EXPECT_EQ((*db)->DropRelation("r").code(), StatusCode::kNotFound);
}

TEST(TransactionTest, InsertIsUnion) {
  auto db = Database::Open();
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  auto txn = (*db)->Begin();
  ASSERT_OK(txn);
  ASSERT_OK((*txn)->Insert("r", Delta({{1, 2}})));
  ASSERT_OK((*txn)->Insert("r", Delta({{1, 1}, {2, 1}})));
  auto view = (*txn)->GetRelation("r");
  ASSERT_OK(view);
  EXPECT_EQ((*view)->Multiplicity(IntTuple({1})), 3u);
  ASSERT_OK((*txn)->Commit());
  EXPECT_EQ((*db)->catalog().GetRelation("r").value()->size(), 4u);
}

TEST(TransactionTest, DeleteIsClampedDifference) {
  auto db = Database::Open();
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  {
    auto txn = (*db)->Begin();
    ASSERT_OK(txn);
    ASSERT_OK((*txn)->Insert("r", Delta({{1, 3}, {2, 1}})));
    ASSERT_OK((*txn)->Commit());
  }
  auto txn = (*db)->Begin();
  ASSERT_OK(txn);
  ASSERT_OK((*txn)->Delete("r", Delta({{1, 5}, {9, 1}})));
  ASSERT_OK((*txn)->Commit());
  const Relation* r = (*db)->catalog().GetRelation("r").value();
  EXPECT_EQ(r->Multiplicity(IntTuple({1})), 0u);
  EXPECT_EQ(r->Multiplicity(IntTuple({2})), 1u);
}

TEST(TransactionTest, UpdateFollowsDefinition41) {
  // update(R, E, α): R ← (R − E) ⊎ π_α(R ∩ E).
  auto db = Database::Open();
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  {
    auto txn = (*db)->Begin();
    ASSERT_OK(txn);
    ASSERT_OK((*txn)->Insert("r", Delta({{1, 2}, {5, 1}})));
    ASSERT_OK((*txn)->Commit());
  }
  auto txn = (*db)->Begin();
  ASSERT_OK(txn);
  // E = {1:1} (only one of the two copies), α = (x * 10).
  ASSERT_OK((*txn)->Update("r", Delta({{1, 1}}),
                           {Mul(Attr(0), Lit(int64_t{10}))}));
  ASSERT_OK((*txn)->Commit());
  const Relation* r = (*db)->catalog().GetRelation("r").value();
  EXPECT_EQ(r->Multiplicity(IntTuple({1})), 1u);   // one copy stayed
  EXPECT_EQ(r->Multiplicity(IntTuple({10})), 1u);  // one copy rewritten
  EXPECT_EQ(r->Multiplicity(IntTuple({5})), 1u);
}

TEST(TransactionTest, UpdateRejectsNonStructurePreservingAlpha) {
  auto db = Database::Open();
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  auto txn = (*db)->Begin();
  ASSERT_OK(txn);
  EXPECT_EQ((*txn)->Update("r", Delta({}), {Lit("wrong-type")}).code(),
            StatusCode::kTypeError);
}

TEST(TransactionTest, AbortRestoresPreTransactionState) {
  auto db = Database::Open();
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  uint64_t t0 = (*db)->logical_time();
  auto txn = (*db)->Begin();
  ASSERT_OK(txn);
  ASSERT_OK((*txn)->Insert("r", Delta({{1, 100}})));
  ASSERT_OK((*txn)->Abort());
  EXPECT_TRUE((*db)->catalog().GetRelation("r").value()->empty());
  EXPECT_EQ((*db)->logical_time(), t0);  // no transition happened
}

TEST(TransactionTest, CommitAdvancesLogicalTime) {
  auto db = Database::Open();
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  uint64_t t0 = (*db)->logical_time();
  auto txn = (*db)->Begin();
  ASSERT_OK(txn);
  ASSERT_OK((*txn)->Insert("r", Delta({{1, 1}})));
  ASSERT_OK((*txn)->Commit());
  EXPECT_EQ((*db)->logical_time(), t0 + 1);
}

TEST(TransactionTest, IntermediateStatesInvisibleOutside) {
  auto db = Database::Open();
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  auto txn = (*db)->Begin();
  ASSERT_OK(txn);
  ASSERT_OK((*txn)->Insert("r", Delta({{7, 1}})));
  // The committed catalog still shows D_t while the bracket is open.
  EXPECT_TRUE((*db)->catalog().GetRelation("r").value()->empty());
  ASSERT_OK((*txn)->Commit());
  EXPECT_EQ((*db)->catalog().GetRelation("r").value()->size(), 1u);
}

TEST(TransactionTest, SerialIsolationOneActiveBracket) {
  auto db = Database::Open();
  ASSERT_OK(db);
  auto t1 = (*db)->Begin();
  ASSERT_OK(t1);
  EXPECT_EQ((*db)->Begin().status().code(), StatusCode::kTxnError);
  ASSERT_OK((*t1)->Commit());
  auto t2 = (*db)->Begin();
  EXPECT_OK(t2);
}

TEST(TransactionTest, AbandonedBracketAborts) {
  auto db = Database::Open();
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  {
    auto txn = (*db)->Begin();
    ASSERT_OK(txn);
    ASSERT_OK((*txn)->Insert("r", Delta({{1, 1}})));
    // Destructor runs without Commit.
  }
  EXPECT_TRUE((*db)->catalog().GetRelation("r").value()->empty());
  EXPECT_OK((*db)->Begin());  // the slot was released
}

TEST(TransactionTest, TemporariesAreAssignmentOnly) {
  auto db = Database::Open();
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  auto txn = (*db)->Begin();
  ASSERT_OK(txn);
  ASSERT_OK((*txn)->Assign("tmp", Delta({{1, 1}})));
  EXPECT_EQ((*txn)->TemporaryNames(),
            (std::vector<std::string>{"tmp"}));
  // Reading works; updating does not.
  ASSERT_OK((*txn)->GetRelation("tmp"));
  EXPECT_EQ((*txn)->Insert("tmp", Delta({{2, 1}})).code(),
            StatusCode::kTxnError);
  // Re-assignment replaces.
  ASSERT_OK((*txn)->Assign("tmp", Delta({{9, 4}})));
  EXPECT_EQ((*txn)->GetRelation("tmp").value()->size(), 4u);
}

TEST(TransactionTest, AssignCannotShadowDatabaseRelation) {
  auto db = Database::Open();
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  auto txn = (*db)->Begin();
  ASSERT_OK(txn);
  EXPECT_EQ((*txn)->Assign("r", Delta({})).code(),
            StatusCode::kAlreadyExists);
}

TEST(TransactionTest, StatementsAfterEndAreRejected) {
  auto db = Database::Open();
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  auto txn = (*db)->Begin();
  ASSERT_OK(txn);
  ASSERT_OK((*txn)->Commit());
  EXPECT_EQ((*txn)->Insert("r", Delta({{1, 1}})).code(),
            StatusCode::kTxnError);
  EXPECT_EQ((*txn)->Commit().code(), StatusCode::kTxnError);
  EXPECT_EQ((*txn)->Abort().code(), StatusCode::kTxnError);
}

// --- Durability. ---

TEST(DurabilityTest, CommittedStateSurvivesReopen) {
  TempDir dir;
  {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    ASSERT_OK((*db)->CreateRelation(XSchema("r")));
    auto txn = (*db)->Begin();
    ASSERT_OK(txn);
    ASSERT_OK((*txn)->Insert("r", Delta({{1, 3}, {2, 1}})));
    ASSERT_OK((*txn)->Commit());
  }
  auto db = Database::Open({.directory = dir.path()});
  ASSERT_OK(db);
  const Relation* r = (*db)->catalog().GetRelation("r").value();
  EXPECT_EQ(r->Multiplicity(IntTuple({1})), 3u);
  EXPECT_EQ(r->size(), 4u);
  EXPECT_EQ((*db)->logical_time(), 1u);
}

TEST(DurabilityTest, UncommittedWorkIsNotRecovered) {
  TempDir dir;
  {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    ASSERT_OK((*db)->CreateRelation(XSchema("r")));
    auto txn = (*db)->Begin();
    ASSERT_OK(txn);
    ASSERT_OK((*txn)->Insert("r", Delta({{1, 1}})));
    // Process "crashes" before commit: destructor aborts.
  }
  auto db = Database::Open({.directory = dir.path()});
  ASSERT_OK(db);
  EXPECT_TRUE((*db)->catalog().GetRelation("r").value()->empty());
}

TEST(DurabilityTest, CheckpointPlusWalRecovery) {
  TempDir dir;
  {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    ASSERT_OK((*db)->CreateRelation(XSchema("r")));
    auto t1 = (*db)->Begin();
    ASSERT_OK(t1);
    ASSERT_OK((*t1)->Insert("r", Delta({{1, 1}})));
    ASSERT_OK((*t1)->Commit());
    ASSERT_OK((*db)->Checkpoint());  // r = {1:1} in the checkpoint
    auto t2 = (*db)->Begin();
    ASSERT_OK(t2);
    ASSERT_OK((*t2)->Insert("r", Delta({{2, 2}})));
    ASSERT_OK((*t2)->Commit());      // {2:2} only in the WAL
  }
  auto db = Database::Open({.directory = dir.path()});
  ASSERT_OK(db);
  const Relation* r = (*db)->catalog().GetRelation("r").value();
  EXPECT_EQ(r->Multiplicity(IntTuple({1})), 1u);
  EXPECT_EQ(r->Multiplicity(IntTuple({2})), 2u);
  EXPECT_EQ((*db)->logical_time(), 2u);
}

TEST(DurabilityTest, TornWalTailLosesOnlyTheTornCommit) {
  TempDir dir;
  std::string wal_path;
  {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    wal_path = (*db)->wal_path();
    ASSERT_OK((*db)->CreateRelation(XSchema("r")));
    for (int i = 1; i <= 2; ++i) {
      auto txn = (*db)->Begin();
      ASSERT_OK(txn);
      ASSERT_OK((*txn)->Insert("r", Delta({{i, 1}})));
      ASSERT_OK((*txn)->Commit());
    }
  }
  // Crash injection: chop the final commit record in half.
  auto size = std::filesystem::file_size(wal_path);
  std::filesystem::resize_file(wal_path, size - 7);
  auto db = Database::Open({.directory = dir.path()});
  ASSERT_OK(db);
  const Relation* r = (*db)->catalog().GetRelation("r").value();
  EXPECT_EQ(r->Multiplicity(IntTuple({1})), 1u);  // first commit survives
  EXPECT_EQ(r->Multiplicity(IntTuple({2})), 0u);  // torn commit discarded
}

TEST(DurabilityTest, DdlIsDurable) {
  TempDir dir;
  {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    ASSERT_OK((*db)->CreateRelation(XSchema("keep")));
    ASSERT_OK((*db)->CreateRelation(XSchema("gone")));
    ASSERT_OK((*db)->DropRelation("gone"));
  }
  auto db = Database::Open({.directory = dir.path()});
  ASSERT_OK(db);
  EXPECT_TRUE((*db)->catalog().HasRelation("keep"));
  EXPECT_FALSE((*db)->catalog().HasRelation("gone"));
}

TEST(DurabilityTest, CheckpointTruncatesWal) {
  TempDir dir;
  auto db = Database::Open({.directory = dir.path()});
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  auto txn = (*db)->Begin();
  ASSERT_OK(txn);
  ASSERT_OK((*txn)->Insert("r", Delta({{1, 1}})));
  ASSERT_OK((*txn)->Commit());
  ASSERT_OK((*db)->Checkpoint());
  EXPECT_EQ(std::filesystem::file_size((*db)->wal_path()), 0u);
  // State is still intact after a further reopen.
  db->reset();
  auto reopened = Database::Open({.directory = dir.path()});
  ASSERT_OK(reopened);
  EXPECT_EQ((*reopened)->catalog().GetRelation("r").value()->size(), 1u);
}

TEST(DurabilityTest, TornTailIsTruncatedSoTheLogStaysAppendable) {
  TempDir dir;
  std::string wal_path;
  {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    wal_path = (*db)->wal_path();
    ASSERT_OK((*db)->CreateRelation(XSchema("r")));
    auto txn = (*db)->Begin();
    ASSERT_OK(txn);
    ASSERT_OK((*txn)->Insert("r", Delta({{1, 1}})));
    ASSERT_OK((*txn)->Commit());
  }
  auto size = std::filesystem::file_size(wal_path);
  std::filesystem::resize_file(wal_path, size - 7);
  {
    // Recovery must truncate the torn frame before appending, otherwise
    // this commit lands after garbage and is unreadable on reopen.
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    EXPECT_LT(std::filesystem::file_size(wal_path), size - 7);
    auto txn = (*db)->Begin();
    ASSERT_OK(txn);
    ASSERT_OK((*txn)->Insert("r", Delta({{2, 1}})));
    ASSERT_OK((*txn)->Commit());
  }
  auto reopened = Database::Open({.directory = dir.path()});
  ASSERT_OK(reopened);
  const Relation* r = (*reopened)->catalog().GetRelation("r").value();
  EXPECT_EQ(r->Multiplicity(IntTuple({2})), 1u);
}

TEST(DurabilityTest, SalvageModeRecoversPrefixOfCorruptWal) {
  TempDir dir;
  std::string wal_path;
  uint64_t first_commit_end = 0;
  {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    wal_path = (*db)->wal_path();
    ASSERT_OK((*db)->CreateRelation(XSchema("r")));
    auto txn = (*db)->Begin();
    ASSERT_OK(txn);
    ASSERT_OK((*txn)->Insert("r", Delta({{1, 1}})));
    ASSERT_OK((*txn)->Commit());
    first_commit_end = std::filesystem::file_size(wal_path);
    auto txn2 = (*db)->Begin();
    ASSERT_OK(txn2);
    ASSERT_OK((*txn2)->Insert("r", Delta({{2, 1}})));
    ASSERT_OK((*txn2)->Commit());
  }
  // Corrupt the SECOND commit record's payload, then append garbage
  // behind it so the damage is mid-log corruption rather than a clean
  // torn tail.
  {
    std::FILE* f = std::fopen(wal_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(first_commit_end) + 12 + 2, SEEK_SET);
    std::fputc('X', f);
    std::fseek(f, 0, SEEK_END);
    std::fwrite("garbage-trailer!", 1, 16, f);
    std::fclose(f);
  }
  // Default recovery refuses the corrupt log.
  EXPECT_EQ(Database::Open({.directory = dir.path()}).status().code(),
            StatusCode::kCorruption);
  // Salvage keeps the intact prefix and truncates, so new commits work.
  auto db = Database::Open({.directory = dir.path(), .salvage_wal = true});
  ASSERT_OK(db);
  {
    const Relation* r = (*db)->catalog().GetRelation("r").value();
    EXPECT_EQ(r->Multiplicity(IntTuple({1})), 1u);
    EXPECT_EQ(r->Multiplicity(IntTuple({2})), 0u);  // Lost to corruption.
  }
  EXPECT_EQ(std::filesystem::file_size(wal_path), first_commit_end);
  auto txn = (*db)->Begin();
  ASSERT_OK(txn);
  ASSERT_OK((*txn)->Insert("r", Delta({{3, 1}})));
  ASSERT_OK((*txn)->Commit());
  db->reset();
  auto reopened = Database::Open({.directory = dir.path()});
  ASSERT_OK(reopened);
  const Relation* r = (*reopened)->catalog().GetRelation("r").value();
  EXPECT_EQ(r->Multiplicity(IntTuple({1})), 1u);
  EXPECT_EQ(r->Multiplicity(IntTuple({3})), 1u);
}

TEST(DurabilityTest, SyncCommitsModeWorks) {
  TempDir dir;
  auto db = Database::Open({.directory = dir.path(), .sync_commits = true});
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  auto txn = (*db)->Begin();
  ASSERT_OK(txn);
  ASSERT_OK((*txn)->Insert("r", Delta({{1, 1}})));
  ASSERT_OK((*txn)->Commit());
  db->reset();
  auto reopened = Database::Open({.directory = dir.path()});
  ASSERT_OK(reopened);
  EXPECT_EQ((*reopened)->catalog().GetRelation("r").value()->size(), 1u);
}

// --- In-place statements and O(delta) commit records. --------------------

RelationSchema PairSchema(const std::string& name) {
  return RelationSchema(name, {{"c1", Type::Int()}, {"c2", Type::Int()}});
}

// Insert/Delete from an empty relation, so every bracket edits a whole
// after-image (OverlayBracketsMatchTheOpsOracle covers the overlay);
// ops::Union/Difference stay the oracle: the same bag after every
// statement (clamp-at-zero included), the same operand check and error,
// and an abort that leaves D_t alone.
TEST(TransactionTest, InPlaceInsertDeleteMatchTheOpsOracle) {
  for (bool durable : {false, true}) {
    for (uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(::testing::Message() << "durable=" << durable
                                        << " seed=" << seed);
      TempDir dir;
      DatabaseOptions options;
      if (durable) options.directory = dir.path();
      auto db = Database::Open(options);
      ASSERT_OK(db);
      ASSERT_OK((*db)->CreateRelation(PairSchema("r")));
      std::mt19937_64 rng(seed);
      Relation oracle(PairSchema("r"));
      for (bool commit : {false, true}) {
        auto txn = (*db)->Begin();
        ASSERT_OK(txn);
        Relation bracket = oracle;
        for (int step = 0; step < 25; ++step) {
          static const uint64_t kMults[] = {1, 5, 1'000'000};
          Relation delta =
              RandomIntRelation(rng, 2, 6 + step % 20, 5, kMults[step % 3]);
          const bool insert = rng() % 2 == 0;
          auto want = insert ? ops::Union(bracket, delta)
                             : ops::Difference(bracket, delta);
          ASSERT_OK(want);
          ASSERT_OK(insert ? (*txn)->Insert("r", delta)
                           : (*txn)->Delete("r", delta));
          bracket = *want;
          EXPECT_REL_EQ(**(*txn)->GetRelation("r"), bracket);
        }
        // A mismatched operand fails exactly as the oracle does, and
        // leaves the bracket's state as it was.
        Relation wrong = IntRel("w", {{1}}, 1);
        Status got_insert = (*txn)->Insert("r", wrong);
        Status want_union = ops::Union(bracket, wrong).status();
        EXPECT_EQ(got_insert.code(), want_union.code());
        EXPECT_EQ(got_insert.message(), want_union.message());
        Status got_delete = (*txn)->Delete("r", wrong);
        Status want_diff = ops::Difference(bracket, wrong).status();
        EXPECT_EQ(got_delete.code(), want_diff.code());
        EXPECT_EQ(got_delete.message(), want_diff.message());
        EXPECT_REL_EQ(**(*txn)->GetRelation("r"), bracket);
        if (commit) {
          ASSERT_OK((*txn)->Commit());
          oracle = bracket;
        } else {
          ASSERT_OK((*txn)->Abort());
        }
        EXPECT_REL_EQ(*(*db)->catalog().GetRelation("r").value(), oracle);
      }
    }
  }
}

TEST(TransactionTest, SelfInsertAndSelfDeleteThroughTheApi) {
  // insert(R, R) doubles every multiplicity; delete(R, R) empties R — also
  // when the operand *is* the bracket's after-image.
  auto db = Database::Open();
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  auto txn = (*db)->Begin();
  ASSERT_OK(txn);
  ASSERT_OK((*txn)->Insert("r", Delta({{1, 2}, {2, 1}})));
  ASSERT_OK((*txn)->Insert("r", **(*txn)->GetRelation("r")));
  EXPECT_REL_EQ(**(*txn)->GetRelation("r"), Delta({{1, 4}, {2, 2}}));
  ASSERT_OK((*txn)->Delete("r", **(*txn)->GetRelation("r")));
  EXPECT_TRUE((*(*txn)->GetRelation("r"))->empty());
}

// The committed state {0..9} with multiplicity 2: a base that every
// small operand below edits through the overlay.
std::unique_ptr<Database> OpenWithTenRows(const DatabaseOptions& options) {
  auto db = Database::Open(options);
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE((*db)->CreateRelation(XSchema("r")).ok());
  std::vector<std::pair<int64_t, uint64_t>> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({i, 2});
  auto txn = (*db)->Begin();
  EXPECT_TRUE((*txn)->Insert("r", Delta(rows)).ok());
  EXPECT_TRUE((*txn)->Commit().ok());
  return std::move(*db);
}

TEST(TransactionTest, OverlayInsertThenDeleteDropsATupleToZero) {
  TempDir dir;
  auto db = OpenWithTenRows({.directory = dir.path()});
  const uint64_t wal_before = std::filesystem::file_size(db->wal_path());
  {
    auto txn = db->Begin();
    ASSERT_OK(txn);
    ASSERT_OK((*txn)->Insert("r", Delta({{99, 3}})));
    EXPECT_EQ((*(*txn)->GetRelation("r"))->Multiplicity(IntTuple({99})), 3u);
    ASSERT_OK((*txn)->Delete("r", Delta({{99, 5}, {1, 2}, {2, 1}})));
    const Relation* view = *(*txn)->GetRelation("r");
    EXPECT_FALSE(view->Contains(IntTuple({99})));
    EXPECT_FALSE(view->Contains(IntTuple({1})));
    EXPECT_EQ(view->Multiplicity(IntTuple({2})), 1u);
    EXPECT_EQ(view->distinct_size(), 9u);
    // The committed state is untouched until the commit.
    EXPECT_EQ(db->catalog().GetRelation("r").value()->Multiplicity(
                  IntTuple({1})),
              2u);
    ASSERT_OK((*txn)->Commit());
  }
  Relation want = Delta({{0, 2}, {2, 1}, {3, 2}, {4, 2}, {5, 2}, {6, 2},
                         {7, 2}, {8, 2}, {9, 2}});
  // Three (tuple, multiplicity) entries, less than the 9-tuple image.
  storage::Encoder image;
  image.PutRelation(want);
  EXPECT_LT(std::filesystem::file_size(db->wal_path()) - wal_before,
            image.buffer().size());
  EXPECT_REL_EQ(*db->catalog().GetRelation("r").value(), want);
  db.reset();
  auto reopened = Database::Open({.directory = dir.path()});
  ASSERT_OK(reopened);
  EXPECT_REL_EQ(*(*reopened)->catalog().GetRelation("r").value(), want);
}

// The replacement rule compares an operand with R's current distinct
// count, the committed tuples plus those the bracket added: inserts of 9,
// 9 and 20 fresh tuples into 10 committed ones all stay in the overlay
// (9 < 10, 9 < 19, 20 < 28) and log 38 entries, less than the 48-tuple
// image.
TEST(DurabilityTest, ReplacementRuleCountsTheBracketsOwnTuples) {
  TempDir dir;
  auto db = OpenWithTenRows({.directory = dir.path()});
  auto fresh = [](int64_t first, int64_t n) {
    std::vector<std::pair<int64_t, uint64_t>> rows;
    for (int64_t i = first; i < first + n; ++i) rows.push_back({i, 1});
    return Delta(rows);
  };
  const uint64_t before = std::filesystem::file_size(db->wal_path());
  auto txn = db->Begin();
  ASSERT_OK(txn);
  ASSERT_OK((*txn)->Insert("r", fresh(100, 9)));
  ASSERT_OK((*txn)->Insert("r", fresh(200, 9)));
  ASSERT_OK((*txn)->Insert("r", fresh(300, 20)));
  ASSERT_OK((*txn)->Commit());
  const Relation* r = db->catalog().GetRelation("r").value();
  EXPECT_EQ(r->distinct_size(), 48u);
  storage::Encoder image;
  image.PutRelation(*r);
  EXPECT_LT(std::filesystem::file_size(db->wal_path()) - before,
            image.buffer().size());
}

TEST(TransactionTest, SelfInsertOfAnEditedRelation) {
  // The operand is the bracket's materialised view of R: it is read
  // before R is edited, and the statement switches to the after-image.
  auto db = OpenWithTenRows({});
  auto txn = db->Begin();
  ASSERT_OK(txn);
  ASSERT_OK((*txn)->Insert("r", Delta({{10, 1}})));
  Relation doubled = **(*txn)->GetRelation("r");
  for (const auto& [tuple, count] : doubled) {
    doubled.SetMultiplicity(tuple, 2 * count);
  }
  ASSERT_OK((*txn)->Insert("r", **(*txn)->GetRelation("r")));
  EXPECT_REL_EQ(**(*txn)->GetRelation("r"), doubled);
  ASSERT_OK((*txn)->Delete("r", Delta({{10, 2}})));
  ASSERT_OK((*txn)->Commit());
  doubled.SetMultiplicity(IntTuple({10}), 0);
  EXPECT_REL_EQ(*db->catalog().GetRelation("r").value(), doubled);
}

// Random brackets over a relation much larger than most operands, so
// they edit the overlay over the shared committed relation; an operand at
// least as large as R, or an update, switches the bracket to a whole
// after-image mid-way.  ops:: is the oracle for every statement, for reads
// inside the bracket, for a constraint that reads the written relation at
// commit, for abort, and for the state a reopen replays.
TEST(TransactionTest, OverlayBracketsMatchTheOpsOracle) {
  for (bool durable : {false, true}) {
    for (uint64_t seed : {1, 2, 3, 4}) {
      SCOPED_TRACE(::testing::Message() << "durable=" << durable
                                        << " seed=" << seed);
      TempDir dir;
      DatabaseOptions options;
      if (durable) options.directory = dir.path();
      auto db = Database::Open(options);
      ASSERT_OK(db);
      ASSERT_OK((*db)->CreateRelation(PairSchema("r")));
      // No committed tuple may have c1 >= 1000.
      auto violation = Plan::Select(Ge(Attr(0), Lit(int64_t{1000})),
                                    Plan::Scan("r", PairSchema("r")));
      ASSERT_OK(violation);
      ASSERT_OK((*db)->AddConstraint("small_c1", *violation));
      std::mt19937_64 rng(seed);
      Relation oracle = RandomIntRelation(rng, 2, 80, 40, 3);
      {
        auto txn = (*db)->Begin();
        ASSERT_OK(txn);
        ASSERT_OK((*txn)->Insert("r", oracle));
        ASSERT_OK((*txn)->Commit());
      }
      for (int bracket = 0; bracket < 40; ++bracket) {
        SCOPED_TRACE(::testing::Message() << "bracket=" << bracket);
        auto txn = (*db)->Begin();
        ASSERT_OK(txn);
        Relation state = oracle;
        bool violates = false;
        const int stmts = 1 + static_cast<int>(rng() % 6);
        for (int k = 0; k < stmts; ++k) {
          Result<Relation> want = state;
          switch (rng() % 10) {
            case 0: {  // A fresh tuple in and out again: down to zero.
              Relation fresh(PairSchema(""));
              Tuple tuple = IntTuple({500 + bracket, k});
              fresh.InsertUnchecked(tuple, 1 + rng() % 3);
              ASSERT_OK((*txn)->Insert("r", fresh));
              ASSERT_OK((*txn)->Delete("r", fresh));
              EXPECT_FALSE((*(*txn)->GetRelation("r"))->Contains(tuple));
              break;
            }
            case 1:  // insert(R, R) through the API, rarely: it doubles.
              if (rng() % 4 == 0) {
                want = ops::Union(state, state);
                ASSERT_OK((*txn)->Insert("r", **(*txn)->GetRelation("r")));
              }
              break;
            case 2: {  // Usually as large as R: switches to the image.
              Relation delta = RandomIntRelation(rng, 2, 160, 40, 3);
              if (rng() % 2 == 0) {
                want = ops::Union(state, delta);
                ASSERT_OK((*txn)->Insert("r", delta));
              } else {
                want = ops::Difference(state, delta);
                ASSERT_OK((*txn)->Delete("r", delta));
              }
              break;
            }
            case 3: {  // update(R, E, α) with α = (c1 + 1, c2).
              Relation matched = RandomIntRelation(rng, 2, 6, 40, 2);
              std::vector<ExprPtr> alpha = {Add(Attr(0), Lit(int64_t{1})),
                                            Attr(1)};
              auto untouched = ops::Difference(state, matched);
              auto hit = ops::Intersect(state, matched);
              ASSERT_OK(hit);
              auto rewritten = ops::Project(alpha, *hit);
              ASSERT_OK(untouched);
              ASSERT_OK(rewritten);
              want = ops::Union(*untouched, *rewritten);
              ASSERT_OK((*txn)->Update("r", matched, alpha));
              break;
            }
            case 4:  // Rarely, a tuple the constraint rejects at commit.
              if (rng() % 3 == 0) {
                Relation bad(PairSchema(""));
                bad.InsertUnchecked(IntTuple({1000 + k, 0}), 1);
                want = ops::Union(state, bad);
                ASSERT_OK((*txn)->Insert("r", bad));
                violates = true;
              }
              break;
            case 5:
            case 6: {
              Relation delta = RandomIntRelation(rng, 2, 5, 40, 4);
              want = ops::Difference(state, delta);
              ASSERT_OK((*txn)->Delete("r", delta));
              break;
            }
            default: {
              Relation delta = RandomIntRelation(rng, 2, 5, 40, 4);
              want = ops::Union(state, delta);
              ASSERT_OK((*txn)->Insert("r", delta));
              break;
            }
          }
          ASSERT_OK(want);
          state = *want;
          // Read-after-write, now and then: a materialised view that later
          // edits must keep current.
          if (rng() % 4 == 0) {
            EXPECT_REL_EQ(**(*txn)->GetRelation("r"), state);
          }
        }
        if (rng() % 6 == 0) {
          ASSERT_OK((*txn)->Abort());
        } else if (violates) {
          EXPECT_EQ((*txn)->Commit().code(),
                    StatusCode::kConstraintViolation);
        } else {
          ASSERT_OK((*txn)->Commit());
          oracle = state;
        }
        EXPECT_REL_EQ(*(*db)->catalog().GetRelation("r").value(), oracle);
        if (durable && bracket % 10 == 9) {
          db->reset();
          db = Database::Open(options);
          ASSERT_OK(db);
          EXPECT_REL_EQ(*(*db)->catalog().GetRelation("r").value(), oracle);
        }
      }
    }
  }
}

using Snapshot = std::map<std::string, Relation>;

Snapshot TakeSnapshot(const Database& db) {
  Snapshot out;
  for (const std::string& name : db.catalog().RelationNames()) {
    out.emplace(name, *db.catalog().GetRelation(name).value());
  }
  return out;
}

void ExpectSnapshotsEqual(const Snapshot& got, const Snapshot& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, rel] : want) {
    auto it = got.find(name);
    ASSERT_NE(it, got.end()) << name;
    EXPECT_REL_EQ(it->second, rel) << "relation " << name;
    EXPECT_EQ(it->second.schema().ToString(), rel.schema().ToString());
  }
}

// A random history of brackets over two relations — inserts, clamped
// deletes, updates, self-inserts, delete(R, R), whole-relation deltas and
// aborts, with drop/recreate and checkpoints between brackets, at
// multiplicities 1, 5 and 1e6.  Every reopen recovers the live catalog.
TEST(DurabilityTest, RandomBracketsRecoverToTheLiveCatalog) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    TempDir dir;
    std::mt19937_64 rng(seed);
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    const std::vector<std::string> names = {"r", "s"};
    for (const std::string& name : names) {
      ASSERT_OK((*db)->CreateRelation(XSchema(name)));
    }
    auto random_delta = [&rng](size_t max_distinct) {
      static const uint64_t kMults[] = {1, 5, 1'000'000};
      Relation d(XSchema(""));
      size_t n = rng() % (max_distinct + 1);
      for (size_t i = 0; i < n; ++i) {
        d.InsertUnchecked(IntTuple({static_cast<int64_t>(rng() % 60)}),
                          kMults[rng() % 3]);
      }
      return d;
    };
    for (int step = 0; step < 80; ++step) {
      const std::string& name = names[rng() % names.size()];
      switch (rng() % 12) {
        case 0: {  // Drop and recreate between brackets.
          ASSERT_OK((*db)->DropRelation(name));
          ASSERT_OK((*db)->CreateRelation(XSchema(name)));
          break;
        }
        case 1:
          ASSERT_OK((*db)->Checkpoint());
          break;
        case 2: {  // Close and recover mid-history.
          Snapshot live = TakeSnapshot(**db);
          uint64_t time = (*db)->logical_time();
          db->reset();
          db = Database::Open({.directory = dir.path()});
          ASSERT_OK(db);
          ExpectSnapshotsEqual(TakeSnapshot(**db), live);
          EXPECT_EQ((*db)->logical_time(), time);
          break;
        }
        default: {
          auto txn = (*db)->Begin();
          ASSERT_OK(txn);
          const int stmts = 1 + static_cast<int>(rng() % 3);
          for (int k = 0; k < stmts; ++k) {
            const std::string& target = names[rng() % names.size()];
            switch (rng() % 10) {
              case 0:
                ASSERT_OK((*txn)->Update(target, random_delta(4),
                                         {Add(Attr(0), Lit(int64_t{1}))}));
                break;
              case 1:
                if (rng() % 3 == 0) {  // Self-insert, rarely: it doubles.
                  ASSERT_OK(
                      (*txn)->Insert(target, **(*txn)->GetRelation(target)));
                }
                break;
              case 2:
                ASSERT_OK(
                    (*txn)->Delete(target, **(*txn)->GetRelation(target)));
                break;
              case 3:  // At least as large as the relation: logged whole.
                ASSERT_OK((*txn)->Insert(target, random_delta(40)));
                break;
              case 4:
              case 5:
              case 6:
                ASSERT_OK((*txn)->Delete(target, random_delta(4)));
                break;
              default:
                ASSERT_OK((*txn)->Insert(target, random_delta(4)));
                break;
            }
          }
          if (rng() % 8 == 0) {
            ASSERT_OK((*txn)->Abort());
          } else {
            ASSERT_OK((*txn)->Commit());
          }
        }
      }
    }
    Snapshot live = TakeSnapshot(**db);
    uint64_t time = (*db)->logical_time();
    db->reset();
    auto reopened = Database::Open({.directory = dir.path()});
    ASSERT_OK(reopened);
    ExpectSnapshotsEqual(TakeSnapshot(**reopened), live);
    EXPECT_EQ((*reopened)->logical_time(), time);
  }
}

TEST(DurabilityTest, SmallBracketOnALargeRelationLogsOnlyItsDelta) {
  TempDir dir;
  auto db = Database::Open({.directory = dir.path()});
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateRelation(XSchema("r")));
  std::vector<std::pair<int64_t, uint64_t>> rows;
  for (int64_t i = 0; i < 2000; ++i) rows.push_back({i, 1});
  {
    auto txn = (*db)->Begin();
    ASSERT_OK(txn);
    ASSERT_OK((*txn)->Insert("r", Delta(rows)));
    ASSERT_OK((*txn)->Commit());
  }
  const uint64_t before = std::filesystem::file_size((*db)->wal_path());
  EXPECT_GT(before, 2000u * 12);  // The bulk load was logged whole.
  {
    auto txn = (*db)->Begin();
    ASSERT_OK(txn);
    ASSERT_OK((*txn)->Insert("r", Delta({{5000, 2}})));
    ASSERT_OK((*txn)->Delete("r", Delta({{7, 1}, {9999, 1}})));
    ASSERT_OK((*txn)->Commit());
  }
  // Header + schema + three (tuple, multiplicity) entries: well under
  // 200 bytes, where an after-image would be ~40 KB.
  const uint64_t appended =
      std::filesystem::file_size((*db)->wal_path()) - before;
  EXPECT_LT(appended, 200u);
  db->reset();
  auto reopened = Database::Open({.directory = dir.path()});
  ASSERT_OK(reopened);
  const Relation* r = (*reopened)->catalog().GetRelation("r").value();
  EXPECT_EQ(r->distinct_size(), 2000u);
  EXPECT_EQ(r->Multiplicity(IntTuple({5000})), 2u);
  EXPECT_FALSE(r->Contains(IntTuple({7})));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// A crash between the checkpoint's rename and the WAL truncate leaves a
// log that is already folded into the checkpoint.  Absolute
// multiplicities make replaying it over that checkpoint — once, or again
// on a second reopen — converge to the same state.
TEST(DurabilityTest, ReplayingTheLogTwiceOverACheckpointConverges) {
  TempDir dir;
  Snapshot live;
  uint64_t time = 0;
  std::string wal_path;
  {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    wal_path = (*db)->wal_path();
    ASSERT_OK((*db)->CreateRelation(XSchema("r")));
    ASSERT_OK((*db)->CreateRelation(XSchema("s")));
    std::vector<std::pair<int64_t, uint64_t>> rows;
    for (int64_t i = 0; i < 50; ++i) rows.push_back({i, 1 + i % 3});
    for (int round = 0; round < 6; ++round) {
      auto txn = (*db)->Begin();
      ASSERT_OK(txn);
      ASSERT_OK((*txn)->Insert("r", round == 0 ? Delta(rows)
                                                : Delta({{100 + round, 5}})));
      ASSERT_OK((*txn)->Delete("r", Delta({{round, 1}, {round + 1, 9}})));
      ASSERT_OK((*txn)->Insert("s", Delta({{round, 1'000'000}})));
      ASSERT_OK((*txn)->Commit());
      if (round == 3) {
        ASSERT_OK((*db)->DropRelation("s"));
        ASSERT_OK((*db)->CreateRelation(XSchema("s")));
      }
    }
    // u is logged as an int relation — a whole image, then per-tuple
    // records — and then dropped and recreated over strings, so replay
    // meets records whose schema the checkpointed u no longer has.
    ASSERT_OK((*db)->CreateRelation(XSchema("u")));
    for (int round = 0; round < 2; ++round) {
      auto txn = (*db)->Begin();
      ASSERT_OK(txn);
      ASSERT_OK((*txn)->Insert(
          "u", round == 0 ? Delta({{1, 1}, {2, 1}, {3, 1}}) : Delta({{4, 2}})));
      ASSERT_OK((*txn)->Commit());
    }
    ASSERT_OK((*db)->DropRelation("u"));
    const RelationSchema strings("u", {{"name", Type::String()}});
    ASSERT_OK((*db)->CreateRelation(strings));
    {
      Relation names(strings);
      names.InsertUnchecked(Tuple({Value::Str("ale")}), 3);
      auto txn = (*db)->Begin();
      ASSERT_OK(txn);
      ASSERT_OK((*txn)->Insert("u", names));
      ASSERT_OK((*txn)->Commit());
    }
    const std::string log = ReadBytes(wal_path);
    ASSERT_OK((*db)->Checkpoint());
    EXPECT_EQ(std::filesystem::file_size(wal_path), 0u);
    WriteBytes(wal_path, log);  // Undo the truncate: the crash window.
    live = TakeSnapshot(**db);
    time = (*db)->logical_time();
  }
  for (int reopen = 0; reopen < 2; ++reopen) {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    ExpectSnapshotsEqual(TakeSnapshot(**db), live);
    EXPECT_EQ((*db)->logical_time(), time);
  }
}

// A bracket that changed nothing is no transition (Definition 2.6): it
// writes no WAL record and does not tick, so a reopened database reaches
// the live one's logical time.  Covers a bracket of only an assignment and
// a query, empty operands (into an empty relation too, where the
// replacement rule would otherwise apply) and a read-only API bracket.
TEST(DurabilityTest, BracketThatChangedNothingLogsNothingAndDoesNotTick) {
  TempDir dir;
  uint64_t time = 0;
  uintmax_t wal_bytes = 0;
  {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    ASSERT_OK((*db)->CreateRelation(XSchema("r")));
    ASSERT_OK((*db)->CreateRelation(XSchema("e")));
    auto txn = (*db)->Begin();
    ASSERT_OK(txn);
    ASSERT_OK((*txn)->Insert("r", Delta({{1, 2}})));
    ASSERT_OK((*txn)->Commit());
    time = (*db)->logical_time();
    wal_bytes = std::filesystem::file_size((*db)->wal_path());

    lang::Interpreter interp(db->get());
    ASSERT_OK(interp.ExecuteScript(
        "begin x := r; ? x end;"
        "begin insert(r, empty(x: int)); delete(r, empty(x: int)) end;"
        "begin insert(e, empty(x: int)) end;"
        "insert(e, empty(x: int));",
        nullptr));
    auto reader = (*db)->Begin();
    ASSERT_OK(reader);
    ASSERT_OK((*reader)->GetRelation("r"));
    ASSERT_OK((*reader)->Commit());
    EXPECT_EQ((*db)->logical_time(), time);
    EXPECT_EQ(std::filesystem::file_size((*db)->wal_path()), wal_bytes);
  }
  {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    EXPECT_EQ((*db)->logical_time(), time);
    EXPECT_EQ(std::filesystem::file_size((*db)->wal_path()), wal_bytes);
    // A bracket that does change a relation still ticks and logs.
    lang::Interpreter interp(db->get());
    ASSERT_OK(interp.ExecuteScript("insert(e, {(7)});", nullptr));
    EXPECT_EQ((*db)->logical_time(), time + 1);
    EXPECT_GT(std::filesystem::file_size((*db)->wal_path()), wal_bytes);
  }
  auto db = Database::Open({.directory = dir.path()});
  ASSERT_OK(db);
  EXPECT_EQ((*db)->logical_time(), time + 1);
  EXPECT_EQ((*db)->catalog().GetRelation("r").value()->size(), 2u);
  EXPECT_EQ((*db)->catalog().GetRelation("e").value()->size(), 1u);
}

}  // namespace
}  // namespace mra
