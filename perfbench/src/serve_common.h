// The server-side set-up serve and ingest share: one orders bag in a
// Database behind an in-process loopback net::Server, with client
// connections — and the replay of one read request through the public
// calls the server makes for it.

#ifndef PERFBENCH_SERVE_COMMON_H_
#define PERFBENCH_SERVE_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "mra/net/client.h"
#include "mra/net/server.h"
#include "mra/txn/database.h"
#include "replay.h"

namespace perfbench {

/// Opens a database, creates `rows`' relation, bulk-loads it through
/// Transaction::Insert and ANALYZEs it; `load_s` and `analyze_s` (optional)
/// receive the two times.
mra::Result<std::unique_ptr<mra::Database>> LoadDatabase(
    mra::DatabaseOptions options, const mra::Relation& rows,
    SetupParts* parts = nullptr);

class ServedDatabase {
 public:
  /// Generates the bag (timed as setup.generate_s), bulk-loads it through
  /// Transaction::Insert (setup.load_s), ANALYZEs it (stats.analyze_s),
  /// starts the server with default ServerOptions and connects `clients`
  /// clients (setup.connect_s).
  static mra::Result<std::unique_ptr<ServedDatabase>> Make(
      mra::DatabaseOptions options, int clients,
      const std::function<mra::Relation()>& generate, SetupParts* parts);

  /// Closes the clients, then shuts the server down, then the database.
  ~ServedDatabase();
  ServedDatabase(const ServedDatabase&) = delete;
  ServedDatabase& operator=(const ServedDatabase&) = delete;

  mra::Database* db() { return db_.get(); }
  mra::net::Client& client(size_t i) { return clients_.at(i); }

 private:
  ServedDatabase() = default;

  std::unique_ptr<mra::Database> db_;
  std::unique_ptr<mra::net::Server> server_;
  std::vector<mra::net::Client> clients_;
};

/// Replays a served Query of `text` (client `client` just ran it): a ping
/// for the round trip, then lang::ParseRelExpr and the evaluation under the
/// shared read lock, then the result encode/decode with the trailer the
/// real reply carried.
mra::Status ReplayServerRead(ServedDatabase* served, size_t client,
                             const std::string& text, SpanLog* log,
                             uint32_t parent, uint64_t op,
                             ExecCounts* counts);

/// The wire leg of a replay: the ResultSet encode/decode of `results` with
/// `client`'s last stats trailer, as net.encode / net.decode spans.
mra::Status ReplayReply(const std::vector<mra::Relation>& results,
                        const mra::net::Client& client, SpanLog* log,
                        uint32_t parent, uint64_t op);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_COMMON_H_
