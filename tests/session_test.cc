// The embedded/remote parity contract of docs/EXECUTION.md, end to end:
// one script through an EmbeddedSession and through a RemoteSession to a
// loopback Server over an identically loaded database must return equal
// results and the same per-query stats record (timings aside).

#include "mra/session/session.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "mra/net/server.h"

namespace mra {
namespace session {
namespace {

constexpr char kSchemaAndData[] =
    "create beer(name: string, brewery: string, alcperc: real);"
    "create brewery(name: string, city: string, country: string);"
    "insert(beer, {('pils', 'Guineken', 5.0) : 2,"
    "              ('dubbel', 'Guineken', 6.5),"
    "              ('dubbel', 'Bavapils', 7.0) : 3,"
    "              ('stout', 'Kirin', 4.2)});"
    "insert(brewery, {('Guineken', 'Amsterdam', 'NL') : 2,"
    "                 ('Bavapils', 'Lieshout', 'NL'),"
    "                 ('Kirin', 'Tokyo', 'JP')});";

// σ, ⋈ and Γ: the last one's stats are what both sessions report after
// the whole script.
const char* const kQueries[] = {
    "select(%3 > 4.5, beer)",
    "join(%2 = %4, beer, brewery)",
    "groupby([%6], avg(%3), join(%2 = %4, beer, brewery))",
};

// Everything but the wall-clock numbers.
void ExpectSameStats(const obs::QueryStats& embedded,
                     const obs::QueryStats& remote) {
  EXPECT_EQ(embedded.result_rows, remote.result_rows);
  ASSERT_EQ(embedded.operators.size(), remote.operators.size());
  for (size_t i = 0; i < embedded.operators.size(); ++i) {
    SCOPED_TRACE("operator " + std::to_string(i));
    const obs::QueryStats::OpStats& e = embedded.operators[i];
    const obs::QueryStats::OpStats& r = remote.operators[i];
    EXPECT_EQ(e.name, r.name);
    EXPECT_EQ(e.depth, r.depth);
    EXPECT_EQ(e.estimated_rows, r.estimated_rows);
    EXPECT_EQ(e.metrics.rows_emitted, r.metrics.rows_emitted);
    EXPECT_EQ(e.metrics.weighted_rows, r.metrics.weighted_rows);
    EXPECT_EQ(e.metrics.batches_emitted, r.metrics.batches_emitted);
  }
}

class SessionParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto embedded = EmbeddedSession::Open();
    ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();
    embedded_ = std::move(*embedded);

    auto db = Database::Open();
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    server_db_ = std::move(*db);
    server_ = std::make_unique<net::Server>(server_db_.get());
    ASSERT_TRUE(server_->Start().ok());
    auto remote = RemoteSession::Connect("127.0.0.1:" +
                                         std::to_string(server_->port()));
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    remote_ = std::move(*remote);
  }

  void TearDown() override {
    remote_.reset();
    if (server_ != nullptr) server_->Shutdown();
  }

  // Runs `script` through both sessions and checks the contract.
  void ExpectParity(const std::string& script) {
    auto embedded = embedded_->Execute(script);
    ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();
    auto remote = remote_->Execute(script);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ASSERT_EQ(embedded->items.size(), remote->items.size());
    for (size_t i = 0; i < embedded->items.size(); ++i) {
      EXPECT_EQ(embedded->items[i].relation, remote->items[i].relation) << i;
    }

    const obs::QueryStats* embedded_stats = embedded_->last_query_stats();
    const obs::QueryStats* remote_stats = remote_->last_query_stats();
    ASSERT_NE(embedded_stats, nullptr);
    ASSERT_NE(remote_stats, nullptr);
    ExpectSameStats(*embedded_stats, *remote_stats);
    EXPECT_NE(remote_->last_query_id(), 0u);
    EXPECT_EQ(remote_stats->query_id, remote_->last_query_id());
  }

  std::unique_ptr<EmbeddedSession> embedded_;
  std::unique_ptr<Database> server_db_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<RemoteSession> remote_;
};

TEST_F(SessionParityTest, OneScriptReportsTheSameResultsAndStats) {
  std::string script = kSchemaAndData;
  for (const char* query : kQueries) script += std::string("? ") + query + ";";
  ExpectParity(script);
  ASSERT_NE(embedded_->last_query_stats(), nullptr);
  // Γ over the ⋈: one group per country.
  EXPECT_EQ(embedded_->last_query_stats()->result_rows, 2u);
}

TEST_F(SessionParityTest, EachQueryReportsTheSameStats) {
  ExpectParity(kSchemaAndData);
  for (const char* query : kQueries) {
    SCOPED_TRACE(query);
    ExpectParity(std::string("? ") + query + ";");
  }
}

}  // namespace
}  // namespace session
}  // namespace mra
