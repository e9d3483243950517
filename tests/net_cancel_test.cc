// Wire-level query governance (docs/GOVERNANCE.md): the v4 Cancel frame,
// the server's running-query registry, in-plan deadline preemption with
// the Busy-style retry-after hint, and the client's out-of-band interrupt
// path (what REPL Ctrl-C uses).  The hammer test races Cancel frames
// against query completion from a second session and runs under TSan in
// CI (.github/workflows/ci.yml).

#include "mra/net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>

#include "mra/lang/interpreter.h"
#include "mra/net/client.h"
#include "mra/obs/trace.h"

namespace mra {
namespace net {
namespace {

// r (100 × 2-int rows) and s (100 rows) make products/joins heavy enough
// to span many batch boundaries: unique(product(r, product(r, r))) pushes
// a million rows through a dedup build.
std::unique_ptr<Database> MakeDb() {
  auto db = std::move(Database::Open({}).value());
  lang::Interpreter interp(db.get());
  std::string script = "create r(a: int, b: int); create s(b: int, c: int);";
  script += "insert(r, {";
  for (int i = 0; i < 100; ++i) {
    script += (i ? "," : "") + std::string("(") + std::to_string(i) + "," +
              std::to_string(i % 11) + ")";
  }
  script += "}); insert(s, {";
  for (int i = 0; i < 100; ++i) {
    script += (i ? "," : "") + std::string("(") + std::to_string(i % 11) +
              "," + std::to_string(i) + ")";
  }
  script += "});";
  Status s = interp.ExecuteScript(script, nullptr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return db;
}

Client MustConnect(const Server& server, ClientOptions options = {}) {
  auto client = Client::Connect("127.0.0.1", server.port(), options);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

constexpr char kHeavyQuery[] = "unique(product(r, product(r, r)))";

TEST(NetCancel, CancelOfUnknownIdReportsNotDelivered) {
  auto db = MakeDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);
  auto delivered = client.Cancel(987654321);
  ASSERT_TRUE(delivered.ok()) << delivered.status().ToString();
  EXPECT_FALSE(*delivered);
  // Zero is rejected client-side: it can never name a running query.
  EXPECT_EQ(client.Cancel(0).status().code(), StatusCode::kInvalidArgument);
  server.Shutdown();
}

TEST(NetCancel, CancelFromAnotherSessionKillsTheRunningQuery) {
  auto db = MakeDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());
  Client runner = MustConnect(server);
  Client killer = MustConnect(server);

  // The client mints ids from the process-global counter, so the next
  // Query's id is predictable from here (nothing else mints in between).
  uint64_t target = obs::NextQueryId() + 1;
  std::atomic<bool> done{false};
  Result<Relation> result = Status::IoError("query never ran");
  std::thread t([&] {
    result = runner.Query(kHeavyQuery);
    done.store(true);
  });
  bool delivered = false;
  while (!done.load() && !delivered) {
    auto d = killer.Cancel(target);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    delivered = *d;
    if (!delivered) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  t.join();
  ASSERT_TRUE(delivered) << "query finished before any Cancel landed";
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(runner.last_query_id(), target);

  // The runner session survives its own query's death.
  auto after = runner.Query("r");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->distinct_size(), 100u);
  server.Shutdown();
}

// Cancel frames racing query completion: every round predicts the next
// query id and spams Cancel while the query runs.  Which side wins is
// timing (small queries usually complete, heavy ones usually die), so
// each round asserts what must hold either way: the query ends OK or
// kCancelled; an OK answer is the query's uncancelled answer; after a
// kill, the session's next query is answered correctly.  That a Cancel
// is delivered and kills is pinned deterministically by
// CancelFromAnotherSessionKillsTheRunningQuery, and that one for an
// unknown id is not by CancelOfUnknownIdReportsNotDelivered; the race
// itself is TSan's.
TEST(NetCancel, HammerCancelRacesCompletion) {
  auto db = MakeDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());
  Client runner = MustConnect(server);
  Client killer = MustConnect(server);

  const char* queries[] = {
      "r",                              // Tiny: completion usually wins.
      "join(%2 = %3, r, s)",            // Medium.
      "unique(product(r, s))",          // Medium, with a dedup build.
      kHeavyQuery,                      // Heavy: the cancel usually wins.
  };
  // Uncancelled answers, evaluated in-process on first need: the heavy
  // query's only if some round lets it complete.
  lang::Interpreter local(db.get());
  std::map<std::string, Relation> answers;
  auto answer = [&](const std::string& query) -> const Relation& {
    auto it = answers.find(query);
    if (it == answers.end()) {
      auto want = local.Query(query);
      EXPECT_TRUE(want.ok()) << want.status().ToString();
      it = answers.emplace(query, want.ok() ? std::move(*want) : Relation())
               .first;
    }
    return it->second;
  };
  for (int round = 0; round < 24; ++round) {
    const std::string query = queries[round % 4];
    SCOPED_TRACE("round " + std::to_string(round) + ": " + query);
    uint64_t target = obs::NextQueryId() + 1;
    std::atomic<bool> done{false};
    Result<Relation> result = Status::IoError("query never ran");
    std::thread t([&] {
      result = runner.Query(query);
      done.store(true);
    });
    // Spam cancels — including one for a wrong id — until the race ends.
    while (!done.load()) {
      ASSERT_TRUE(killer.Cancel(target).ok());
      ASSERT_TRUE(killer.Cancel(target + 1'000'000).ok());
    }
    t.join();
    if (result.ok()) {
      EXPECT_TRUE(result->Equals(answer(query)));
      continue;
    }
    ASSERT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status().ToString();
    auto next = runner.Query("r");
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_TRUE(next->Equals(answer("r")));
  }
  server.Shutdown();
}

TEST(NetCancel, RequestTimeoutPreemptsMidPlanWithRetryAfterHint) {
  auto db = MakeDb();
  ServerOptions options;
  options.request_timeout_ms = 50;
  options.busy_retry_after_ms = 321;
  Server server(db.get(), options);
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);

  auto result = client.Query(kHeavyQuery);
  ASSERT_FALSE(result.ok());
  // Preempted mid-plan — a governed kill with its own status, not the old
  // post-hoc IoError teardown — and the connection survives.
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("statement timeout"),
            std::string::npos);
  EXPECT_EQ(client.last_busy_retry_after_ms(), 321u);
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.Query("r").ok());
  server.Shutdown();
}

TEST(NetCancel, ExplicitStatementTimeoutGovernsIndependently) {
  auto db = MakeDb();
  ServerOptions options;
  options.interpreter.governance.statement_timeout_ms = 20;  // Request timeout stays 30s.
  Server server(db.get(), options);
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);
  auto result = client.Query(kHeavyQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(client.last_busy_retry_after_ms(), options.busy_retry_after_ms);
  server.Shutdown();
}

TEST(NetCancel, InterruptTokenCancelsInFlightQueryOutOfBand) {
  auto db = MakeDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());
  ClientOptions options;
  options.interrupt = std::make_shared<std::atomic<bool>>(false);
  Client client = MustConnect(server, options);

  // What the REPL's SIGINT handler does mid-query: one atomic store.
  std::thread interrupter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    options.interrupt->store(true);
  });
  auto result = client.Query(kHeavyQuery);
  interrupter.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // The token was consumed, the session survived, later queries run.
  EXPECT_FALSE(options.interrupt->load());
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.Query("r").ok());
  server.Shutdown();
}

}  // namespace
}  // namespace net
}  // namespace mra
