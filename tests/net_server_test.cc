// Loopback integration tests for the TCP query server: ephemeral-port
// startup, concurrent clients, error frames, protocol violations, idle
// reaping, frame-size limits, and drain-then-shutdown without leaked
// sessions.  Also run under TSan in CI (.github/workflows/ci.yml).

#include "mra/net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "mra/common/limits.h"
#include "mra/net/client.h"
#include "mra/obs/op_metrics.h"
#include "mra/obs/slow_log.h"
#include "mra/obs/trace.h"
#include "mra/storage/serializer.h"

namespace mra {
namespace net {
namespace {

std::unique_ptr<Database> MakeSeededDb() {
  auto db = std::move(Database::Open({}).value());
  lang::Interpreter interp(db.get());
  Status s = interp.ExecuteScript(
      "create beer(name: string, brewery: string, alcperc: real);"
      "insert(beer, {('pils', 'Guineken', 5.0) : 2,"
      "              ('stout', 'Kirin', 4.2),"
      "              ('tripel', 'Bavapils', 8.0) : 3});"
      "create tally(n: int);",
      nullptr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return db;
}

Client MustConnect(const Server& server, ClientOptions options = {}) {
  auto client = Client::Connect("127.0.0.1", server.port(), options);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

TEST(NetServer, HandshakeQueryPingStats) {
  auto db = MakeSeededDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  Client client = MustConnect(server);
  EXPECT_EQ(client.server_version(), kProtocolVersion);
  EXPECT_EQ(client.server_banner(), "mra_serverd");

  auto result = client.Query("select(%3 > 4.5, beer)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 5u);          // pils ×2 + tripel ×3.
  EXPECT_EQ(result->distinct_size(), 2u);

  EXPECT_TRUE(client.Ping().ok());

  auto stats = client.ServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"net.requests\""), std::string::npos);
  EXPECT_NE(stats->find("\"net.connections\""), std::string::npos);
  EXPECT_NE(stats->find("\"net.request_us\""), std::string::npos);

  server.Shutdown();
  EXPECT_EQ(server.active_sessions(), 0);
}

TEST(NetServer, QueryCarriesStatsTrailerAttributedToTheClientId) {
  auto db = MakeSeededDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());
  obs::ScopedExecTiming timing(true);

  Client client = MustConnect(server);
  auto result = client.Query("select(%3 > 4.5, beer)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The client minted the id; the server's stats trailer must echo it.
  EXPECT_NE(client.last_query_id(), 0u);
  ASSERT_TRUE(client.last_query_stats().has_value());
  const obs::QueryStats& stats = *client.last_query_stats();
  EXPECT_EQ(stats.query_id, client.last_query_id());
  EXPECT_EQ(stats.result_rows, 5u);  // pils ×2 + tripel ×3, weighted.
  EXPECT_GE(stats.total_us,
            stats.bind_us + stats.optimize_us + stats.lower_us);
  ASSERT_FALSE(stats.operators.empty());
  uint64_t total_emitted = 0;
  for (const obs::QueryStats::OpStats& op : stats.operators) {
    total_emitted += op.metrics.rows_emitted;
  }
  EXPECT_GT(total_emitted, 0u);

  // A later request mints a fresh id and its trailer replaces the stats.
  uint64_t first_id = client.last_query_id();
  auto second = client.Query("beer");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(client.last_query_id(), first_id);
  ASSERT_TRUE(client.last_query_stats().has_value());
  EXPECT_EQ(client.last_query_stats()->query_id, client.last_query_id());
  EXPECT_EQ(client.last_query_stats()->result_rows, 6u);
  server.Shutdown();
}

TEST(NetServer, ServerStatsExposesSessionsHistogramSlowLogAndTrace) {
  obs::SlowQueryLog::Global().Clear();
  obs::SlowQueryLog::Global().SetThresholdMs(0);  // Log every query.
  obs::Tracer::Global().SetEnabled(true);
  obs::Tracer::Global().Clear();

  auto db = MakeSeededDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);
  auto result = client.Query("select(%3 > 4.5, beer)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  uint64_t query_id = client.last_query_id();
  ASSERT_NE(query_id, 0u);

  auto top = client.FetchServerStats();
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_GE(top->active_sessions, 1u);
  EXPECT_GE(top->sessions_served, 1u);
  EXPECT_GE(top->queries, 1u);
  EXPECT_GE(top->query_latency.count, 1u);
  EXPECT_GE(top->query_latency.Quantile(0.5), 0u);
  ASSERT_FALSE(top->sessions.empty());
  bool found_self = false;
  for (const ServerSessionInfo& s : top->sessions) {
    if (s.queries >= 1 && s.peer == "mra-client") found_self = true;
  }
  EXPECT_TRUE(found_self) << "own session missing from the registry";
  EXPECT_GE(top->slow_logged, 1u);
  bool logged = false;
  for (const std::string& line : top->slow_log) {
    if (line.find("\"query_id\":" + std::to_string(query_id)) !=
        std::string::npos) {
      logged = true;
    }
  }
  EXPECT_TRUE(logged) << "slow-query log misses the query (threshold 0)";

  // Filtering by the client's id pulls that query's server-side spans.
  auto filtered = client.FetchServerStats(query_id);
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_NE(filtered->trace.find("execute"), std::string::npos)
      << filtered->trace;

  obs::Tracer::Global().SetEnabled(false);
  obs::Tracer::Global().Clear();
  obs::SlowQueryLog::Global().SetThresholdMs(-1);
  obs::SlowQueryLog::Global().Clear();
  server.Shutdown();
}

TEST(NetServer, ScriptsCommitAndQueryResultsFlowBack) {
  auto db = MakeSeededDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);

  auto results = client.ExecuteScript(
      "begin insert(tally, {(1), (2)}); ? tally end;"
      "? unique(project([%2], beer));");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].size(), 2u);           // tally inside the bracket.
  EXPECT_EQ((*results)[1].distinct_size(), 3u);  // Three breweries.

  // The committed state is visible to a later query on the same session.
  auto tally = client.Query("tally");
  ASSERT_TRUE(tally.ok());
  EXPECT_EQ(tally->size(), 2u);
  server.Shutdown();
}

TEST(NetServer, ErrorFrameKeepsSessionUsable) {
  auto db = MakeSeededDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);

  auto bad = client.Query("select(");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);

  auto missing = client.Query("no_such_relation");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // A failed bracket rolls back server-side and reports its status.
  auto aborted = client.ExecuteScript(
      "begin insert(tally, {(7)}); insert(tally, {('oops')}) end;");
  ASSERT_FALSE(aborted.ok());
  auto tally = client.Query("tally");
  ASSERT_TRUE(tally.ok());
  EXPECT_EQ(tally->size(), 0u) << "aborted bracket leaked effects";

  EXPECT_TRUE(client.Ping().ok()) << "session should survive error frames";
  server.Shutdown();
}

TEST(NetServer, EightConcurrentClientsQueryAndCommit) {
  auto db = MakeSeededDb();
  ServerOptions options;
  options.max_sessions = 8;
  Server server(db.get(), options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kRounds = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        auto q = client->Query("select(%3 > 4.5, beer)");
        if (!q.ok() || q->size() != 5u) ++failures;
        // Every client also commits: brackets queue on the serial slot.
        auto s = client->ExecuteScript("insert(tally, {(" +
                                       std::to_string(c * kRounds + round) +
                                       ")});");
        if (!s.ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  Client checker = MustConnect(server);
  auto tally = checker.Query("tally");
  ASSERT_TRUE(tally.ok());
  EXPECT_EQ(tally->size(), static_cast<uint64_t>(kClients * kRounds));

  server.Shutdown();
  EXPECT_EQ(server.active_sessions(), 0);
  EXPECT_GE(server.sessions_served(), static_cast<uint64_t>(kClients));
}

TEST(NetServer, SessionCapQueuesExcessClients) {
  auto db = MakeSeededDb();
  ServerOptions options;
  options.max_sessions = 1;
  Server server(db.get(), options);
  ASSERT_TRUE(server.Start().ok());

  // With a cap of one, a second client queues in the kernel backlog until
  // the first disconnects — it is never rejected.
  Client first = MustConnect(server);
  EXPECT_TRUE(first.Ping().ok());

  std::thread second_thread([&] {
    Client second = MustConnect(server);
    EXPECT_TRUE(second.Ping().ok());
  });
  // Give the second client time to land in the backlog, then free the slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  first.Close();
  second_thread.join();
  server.Shutdown();
}

TEST(NetServer, ShutdownFrameDrainsServer) {
  auto db = MakeSeededDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());

  Client client = MustConnect(server);
  EXPECT_TRUE(client.RequestShutdown().ok());

  server.Shutdown();  // Joins the drain triggered by the frame.
  EXPECT_EQ(server.active_sessions(), 0);
  EXPECT_TRUE(server.draining());

  // New connections are refused once drained (connect or handshake fails).
  auto late = Client::Connect("127.0.0.1", server.port());
  EXPECT_FALSE(late.ok());
}

TEST(NetServer, IdleSessionsAreReaped) {
  auto db = MakeSeededDb();
  ServerOptions options;
  options.idle_timeout_ms = 150;
  Server server(db.get(), options);
  ASSERT_TRUE(server.Start().ok());

  Client client = MustConnect(server);
  EXPECT_TRUE(client.Ping().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  // The server reaped the session; the next request fails.
  EXPECT_FALSE(client.Ping().ok());
  server.Shutdown();
  EXPECT_EQ(server.active_sessions(), 0);
}

TEST(NetServer, OversizedFrameIsRefused) {
  auto db = MakeSeededDb();
  ServerOptions options;
  options.max_frame_bytes = 1024;
  Server server(db.get(), options);
  ASSERT_TRUE(server.Start().ok());

  Client client = MustConnect(server);
  std::string big_script = "? select(%1 = '" + std::string(4096, 'x') +
                           "', beer);";
  auto result = client.ExecuteScript(big_script);
  ASSERT_FALSE(result.ok());
  // Either the server's Error frame arrived (InvalidArgument) or the
  // connection was already torn down (IoError) — both are clean refusals.
  EXPECT_TRUE(result.status().code() == StatusCode::kInvalidArgument ||
              result.status().code() == StatusCode::kIoError)
      << result.status().ToString();
  server.Shutdown();
}

TEST(NetServer, VersionMismatchIsRejected) {
  auto db = MakeSeededDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());

  auto sock = Socket::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(
      WriteFrame(*sock, FrameKind::kHello, EncodeHello(999, "old-client"))
          .ok());
  auto response = ReadFrame(*sock, WireLimits{}, 5000);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->kind, FrameKind::kError);
  Status error = DecodeError(response->payload);
  EXPECT_EQ(error.code(), StatusCode::kUnavailable);
  EXPECT_NE(error.message().find("server speaks"), std::string::npos);
  server.Shutdown();
}

TEST(NetServer, GarbageBytesCloseTheConnection) {
  auto db = MakeSeededDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());

  auto sock = Socket::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->SendAll("GET / HTTP/1.1\r\n\r\n").ok());
  // The server answers with an Error frame (bad magic) and/or closes; the
  // key property is that it neither crashes nor hangs.
  auto response = ReadFrame(*sock, WireLimits{}, 5000);
  if (response.ok()) {
    EXPECT_EQ(response->kind, FrameKind::kError);
  }
  server.Shutdown();
  EXPECT_EQ(server.active_sessions(), 0);
}

// Well-framed (valid CRC) but hostile payloads: each closes its own
// session — with an Error frame or a plain close — and never the process,
// while a second session keeps answering queries throughout.
TEST(NetServer, HostileFramesCloseOneSessionNeverTheProcess) {
  auto db = MakeSeededDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());
  Client good = MustConnect(server);  // Only the steady thread uses it.
  std::atomic<bool> stop{false};
  std::atomic<int> answered{0};
  std::atomic<int> failed{0};
  std::thread steady([&] {
    while (!stop.load()) {
      auto r = good.Query("beer");
      if (r.ok() && r->size() == 6u) {
        ++answered;
      } else {
        ++failed;
      }
    }
  });

  storage::Encoder long_name;  // The name's length runs past the payload.
  long_name.PutU32(kProtocolVersion);
  long_name.PutU32(1000);
  std::string hello_overrun = long_name.TakeBuffer() + "abc";
  std::string truncated_query = EncodeQueryRequest(42, "beer").substr(0, 6);
  struct Hostile {
    const char* what;
    bool after_hello;
    std::string wire;
  };
  const Hostile cases[] = {
      {"hello name overrun", false,
       EncodeFrame(FrameKind::kHello, hello_overrun)},
      {"query truncated mid-field", true,
       EncodeFrame(FrameKind::kQuery, truncated_query)},
      {"server-bound ResultSet", true,
       EncodeFrame(FrameKind::kResultSet,
                   EncodeResultSetWithStats({}, nullptr))},
      {"out-of-range frame kind", true,
       EncodeFrame(static_cast<FrameKind>(200), "payload")},
  };
  for (const Hostile& c : cases) {
    SCOPED_TRACE(c.what);
    auto sock = Socket::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(sock.ok());
    if (c.after_hello) {
      ASSERT_TRUE(WriteFrame(*sock, FrameKind::kHello,
                             EncodeHello(kProtocolVersion, "hostile"))
                      .ok());
      auto hello = ReadFrame(*sock, WireLimits{}, 5000);
      ASSERT_TRUE(hello.ok()) << hello.status().ToString();
      ASSERT_EQ(hello->kind, FrameKind::kHello);
    }
    ASSERT_TRUE(sock->SendAll(c.wire).ok());
    // An Error frame, then the close; or the close alone.
    auto response = ReadFrame(*sock, WireLimits{}, 5000);
    if (response.ok()) {
      EXPECT_EQ(response->kind, FrameKind::kError);
      EXPECT_FALSE(ReadFrame(*sock, WireLimits{}, 5000).ok());
    }
    // The steady session answers again after each hostile one.
    const int before = answered.load();
    for (int i = 0; i < 500 && answered.load() <= before + 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(answered.load(), before + 1);
  }

  stop.store(true);
  steady.join();
  EXPECT_EQ(failed.load(), 0);
  // Every hostile session is gone; the steady one remains.
  for (int i = 0; i < 500 && server.active_sessions() != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.active_sessions(), 1);
  EXPECT_TRUE(good.Query("beer").ok());
  server.Shutdown();
  EXPECT_EQ(server.active_sessions(), 0);
}

// Scripts nested 100,000 levels deep — a left-associative chain, which
// the parser builds by iteration, and nested parentheses, which it builds
// by recursion — are refused with a ParseError at the depth cap.  Neither
// takes the server down: the next session is served.
TEST(NetServer, DeeplyNestedScriptsAreRefusedNeverTheProcess) {
  auto db = MakeSeededDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());
  constexpr int kLevels = 100000;
  std::string chain = "? select(%3";
  std::string parens = "? select(";
  for (int i = 0; i < kLevels; ++i) {
    chain += " + 1";
    parens += "(";
  }
  chain += " > 0, beer);";
  parens += "%3 > 0";
  parens.append(kLevels, ')');
  parens += ", beer);";
  for (const std::string* script : {&chain, &parens}) {
    Client client = MustConnect(server);
    auto refused = client.ExecuteScript(*script);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kParseError)
        << refused.status().ToString();
  }
  Client next = MustConnect(server);
  auto served = next.Query("beer");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->size(), 6u);
  // The deepest chain the cap admits evaluates on a session's stack: σ,
  // >, the additions and %3 make kMaxParseDepth - 1 levels.
  std::string deepest = "? select(%3";
  for (int i = 0; i < kMaxParseDepth - 4; ++i) deepest += " + 1";
  deepest += " > 0, beer);";
  auto admitted = next.ExecuteScript(deepest);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  ASSERT_EQ(admitted->size(), 1u);
  EXPECT_EQ((*admitted)[0].size(), 6u);
  server.Shutdown();
}

TEST(NetServer, DoubleShutdownIsIdempotent) {
  auto db = MakeSeededDb();
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());
  server.Shutdown();
  server.Shutdown();
  EXPECT_EQ(server.active_sessions(), 0);
}

}  // namespace
}  // namespace net
}  // namespace mra
