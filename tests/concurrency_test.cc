// Thread-safety hammer over one shared Database: concurrent read-only
// queries racing with committing transactions, concurrent commit storms,
// and DDL attempts against live brackets.  Written to be TSan-clean (CI
// runs this binary under ThreadSanitizer): readers evaluate under the
// database's shared lock, writers queue on the serial transaction slot.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "mra/lang/interpreter.h"
#include "mra/txn/transaction.h"

namespace mra {
namespace {

std::unique_ptr<Database> MakeDb() {
  auto db = std::move(Database::Open({}).value());
  lang::Interpreter interp(db.get());
  Status s = interp.ExecuteScript(
      "create r(a: int, b: int);"
      "insert(r, {(0, 0) : 5});",
      nullptr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return db;
}

ExecConfig Blocking() {
  ExecConfig options;
  options.session.block_on_txn_slot = true;
  return options;
}

TEST(Concurrency, ReadersRaceOneWriter) {
  auto db = MakeDb();
  constexpr int kReaders = 4;
  constexpr int kCommits = 40;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      lang::Interpreter interp(db.get());
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = interp.Query("select(%1 >= 0, r)");
        if (!result.ok()) {
          ++failures;
          continue;
        }
        // Every observed state is a committed one: the seed 5 tuples plus
        // one per completed commit, never a torn intermediate.
        uint64_t size = result->size();
        if (size < 5 || size > 5 + kCommits) ++failures;
      }
    });
  }

  {
    lang::Interpreter writer(db.get(), Blocking());
    for (int i = 1; i <= kCommits; ++i) {
      Status s = writer.ExecuteScript(
          "insert(r, {(" + std::to_string(i) + ", " + std::to_string(i * i) +
              ")});",
          nullptr);
      if (!s.ok()) ++failures;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  lang::Interpreter interp(db.get());
  auto final_state = interp.Query("r");
  ASSERT_TRUE(final_state.ok());
  EXPECT_EQ(final_state->size(), 5u + kCommits);
}

// Readers racing brackets small enough to edit the committed relation in
// place through the overlay, with reads inside the bracket and every
// fourth bracket aborted.  Committed state k is the window
// [k * kStep, k * kStep + kWindow) at multiplicity 2; a reader must see
// exactly such a window, never a bracket's inserts without its deletes
// nor a commit half-applied to the shared relation.
TEST(Concurrency, ReadersSeeOnlyCommittedStatesOfOverlayBrackets) {
  auto db = std::move(Database::Open({}).value());
  constexpr int64_t kWindow = 200;
  constexpr int64_t kStep = 4;
  constexpr int kBrackets = 60;
  const RelationSchema schema("w", {{"a", Type::Int()}});
  ASSERT_TRUE(db->CreateRelation(schema).ok());
  auto rows = [&schema](int64_t first, int64_t n) {
    Relation r(schema);
    for (int64_t a = first; a < first + n; ++a) {
      r.InsertUnchecked(Tuple({Value::Int(a)}), 2);
    }
    return r;
  };
  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Insert("w", rows(0, kWindow)).ok());
    ASSERT_TRUE((*txn)->Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      lang::Interpreter interp(db.get());
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = interp.Query("w");
        if (!result.ok() ||
            result->distinct_size() != static_cast<size_t>(kWindow)) {
          ++failures;
          continue;
        }
        int64_t first = INT64_MAX;
        for (const auto& [tuple, count] : *result) {
          first = std::min(first, tuple.at(0).int_value());
        }
        if (first % kStep != 0 || !result->Equals(rows(first, kWindow))) {
          ++failures;
        }
      }
    });
  }

  int64_t committed = 0;  // The window start of the committed state.
  for (int k = 1; k <= kBrackets; ++k) {
    auto txn = db->Begin(/*wait=*/true);
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        (*txn)->Insert("w", rows(committed + kWindow, kStep)).ok());
    std::this_thread::yield();
    ASSERT_TRUE((*txn)->Delete("w", rows(committed, kStep)).ok());
    // Read-after-write inside the bracket sees its own next window.
    auto own = (*txn)->GetRelation("w");
    ASSERT_TRUE(own.ok());
    EXPECT_TRUE((*own)->Equals(rows(committed + kStep, kWindow)));
    if (k % 4 == 0) {
      ASSERT_TRUE((*txn)->Abort().ok());
    } else {
      ASSERT_TRUE((*txn)->Commit().ok());
      committed += kStep;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  auto read_lock = db->ReadLock();
  EXPECT_TRUE(
      db->catalog().GetRelation("w").value()->Equals(rows(committed, kWindow)));
}

TEST(Concurrency, CommitStormSerializesOnTheSlot) {
  auto db = MakeDb();
  constexpr int kWriters = 4;
  constexpr int kCommitsEach = 25;
  const uint64_t time_before = db->logical_time();
  std::atomic<int> failures{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      lang::Interpreter interp(db.get(), Blocking());
      for (int i = 0; i < kCommitsEach; ++i) {
        int v = w * kCommitsEach + i;
        Status s = interp.ExecuteScript(
            "begin x := {(" + std::to_string(v) +
                ", 1)}; insert(r, x); ? r end;",
            [](const std::string&, const Relation&) {});
        if (!s.ok()) ++failures;
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(failures.load(), 0);
  lang::Interpreter interp(db.get());
  auto result = interp.Query("r");
  ASSERT_TRUE(result.ok());
  // All-or-nothing per bracket: every one of the 100 commits landed.
  EXPECT_EQ(result->size(), 5u + kWriters * kCommitsEach);
  EXPECT_EQ(db->logical_time() - time_before,
            static_cast<uint64_t>(kWriters * kCommitsEach));
}

TEST(Concurrency, NonBlockingBeginStillBouncesWhenContended) {
  auto db = MakeDb();
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  // Default semantics are unchanged: no waiting, immediate TxnError.
  auto second = db->Begin();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kTxnError);
  ASSERT_TRUE((*txn)->Abort().ok());
  // A waiting Begin succeeds once the slot is free.
  auto third = db->Begin(/*wait=*/true);
  ASSERT_TRUE(third.ok());
  ASSERT_TRUE((*third)->Abort().ok());
}

TEST(Concurrency, BlockingBeginWaitsForTheSlot) {
  auto db = MakeDb();
  auto held = db->Begin();
  ASSERT_TRUE(held.ok());

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto txn = db->Begin(/*wait=*/true);
    ASSERT_TRUE(txn.ok());
    acquired.store(true);
    ASSERT_TRUE((*txn)->Abort().ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load()) << "waiter acquired a taken slot";
  ASSERT_TRUE((*held)->Abort().ok());
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(Concurrency, DdlAgainstLiveBracketIsRefusedNotRaced) {
  auto db = MakeDb();
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    lang::Interpreter interp(db.get(), Blocking());
    for (int i = 0; i < 30; ++i) {
      Status s = interp.ExecuteScript("insert(r, {(9, 9)});", nullptr);
      if (!s.ok()) ++failures;
    }
    stop.store(true);
  });
  // DDL from other threads either succeeds between brackets or is refused
  // with TxnError while one is active — never a torn catalog.
  std::thread ddl([&] {
    int round = 0;
    while (!stop.load()) {
      std::string name = "scratch" + std::to_string(round++);
      Status created = db->CreateRelation(
          RelationSchema(name, {Attribute{"x", Type::Int()}}));
      if (created.ok()) {
        Status dropped = db->DropRelation(name);
        if (!dropped.ok() && dropped.code() != StatusCode::kTxnError) {
          ++failures;
        }
      } else if (created.code() != StatusCode::kTxnError) {
        ++failures;
      }
    }
  });
  writer.join();
  ddl.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Concurrency, ReadersRaceCheckpoints) {
  // Durable database: queries race commits *and* checkpoints (which
  // serialize the whole catalog).
  std::string dir = ::testing::TempDir() + "/mra_concurrency_ckpt";
  DatabaseOptions options;
  options.directory = dir;
  auto db = std::move(Database::Open(options).value());
  lang::Interpreter setup(db.get());
  if (!db->catalog().HasRelation("r")) {
    ASSERT_TRUE(setup
                    .ExecuteScript("create r(a: int, b: int);"
                                   "insert(r, {(0, 0) : 5});",
                                   nullptr)
                    .ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    lang::Interpreter interp(db.get());
    while (!stop.load()) {
      if (!interp.Query("unique(r)").ok()) ++failures;
    }
  });
  lang::Interpreter writer(db.get(), Blocking());
  for (int i = 0; i < 10; ++i) {
    if (!writer.ExecuteScript("insert(r, {(1, 2)});", nullptr).ok()) {
      ++failures;
    }
    Status cp = db->Checkpoint();
    if (!cp.ok()) ++failures;
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace mra
