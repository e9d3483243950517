#include "serve_common.h"

#include <optional>

#include "mra/lang/parser.h"
#include "mra/net/protocol.h"
#include "mra/txn/transaction.h"

namespace perfbench {

mra::Result<std::unique_ptr<mra::Database>> LoadDatabase(
    mra::DatabaseOptions options, const mra::Relation& rows,
    SetupParts* parts) {
  const int64_t t0 = NowNs();
  const std::string name = rows.schema().name();
  MRA_ASSIGN_OR_RETURN(std::unique_ptr<mra::Database> db,
                       mra::Database::Open(std::move(options)));
  MRA_RETURN_IF_ERROR(db->CreateRelation(rows.schema()));
  {
    MRA_ASSIGN_OR_RETURN(std::unique_ptr<mra::Transaction> txn, db->Begin());
    MRA_RETURN_IF_ERROR(txn->Insert(name, rows));
    MRA_RETURN_IF_ERROR(txn->Commit());
  }
  const int64_t t1 = NowNs();
  MRA_RETURN_IF_ERROR(db->Analyze(name));
  if (parts != nullptr) {
    parts->load_s.Add(NsToS(t1 - t0));
    parts->analyze_s.Add(NsToS(NowNs() - t1));
  }
  return db;
}

mra::Result<std::unique_ptr<ServedDatabase>> ServedDatabase::Make(
    mra::DatabaseOptions options, int clients,
    const std::function<mra::Relation()>& generate, SetupParts* parts) {
  std::unique_ptr<ServedDatabase> served(new ServedDatabase());
  const int64_t t0 = NowNs();
  const mra::Relation rows = generate();
  parts->generate_s.Add(NsToS(NowNs() - t0));
  MRA_ASSIGN_OR_RETURN(served->db_,
                       LoadDatabase(std::move(options), rows, parts));
  const int64_t t1 = NowNs();
  served->server_ = std::make_unique<mra::net::Server>(served->db_.get());
  MRA_RETURN_IF_ERROR(served->server_->Start());
  for (int i = 0; i < clients; ++i) {
    MRA_ASSIGN_OR_RETURN(mra::net::Client client,
                         mra::net::Client::Connect("127.0.0.1",
                                                   served->server_->port()));
    served->clients_.push_back(std::move(client));
  }
  const int64_t t2 = NowNs();
  parts->connect_s.Add(NsToS(t2 - t1));
  parts->total_s.Add(NsToS(t2 - t0));
  return served;
}

ServedDatabase::~ServedDatabase() {
  for (mra::net::Client& client : clients_) client.Close();
  if (server_ != nullptr) server_->Shutdown();
  server_.reset();
  db_.reset();
}

mra::Status ReplayReply(const std::vector<mra::Relation>& results,
                        const mra::net::Client& client, SpanLog* log,
                        uint32_t parent, uint64_t op) {
  const auto& trailer = client.last_query_stats();
  std::string payload;
  {
    SpanLog::Scope span(log, "net.encode", parent, op);
    payload = mra::net::EncodeResultSetWithStats(
        results, trailer.has_value() ? &*trailer : nullptr);
  }
  SpanLog::Scope span(log, "net.decode", parent, op);
  std::optional<mra::net::WireQueryStats> stats;
  return mra::net::DecodeResultSetWithStats(payload, &stats).status();
}

mra::Status ReplayServerRead(ServedDatabase* served, size_t client,
                             const std::string& text, SpanLog* log,
                             uint32_t parent, uint64_t op,
                             ExecCounts* counts) {
  {
    SpanLog::Scope span(log, "net.ping_rtt", parent, op);
    MRA_RETURN_IF_ERROR(served->client(client).Ping());
  }
  mra::lang::RelExprPtr expr;
  {
    SpanLog::Scope span(log, "lang.parse", parent, op);
    MRA_ASSIGN_OR_RETURN(expr, mra::lang::ParseRelExpr(text));
  }
  std::vector<mra::Relation> results(1);
  {
    auto read_lock = served->db()->ReadLock();
    MRA_ASSIGN_OR_RETURN(results[0],
                         EvaluateTraced(*expr, served->db()->catalog(),
                                        mra::ExecConfig{}, log, parent, op,
                                        counts));
  }
  return ReplayReply(results, served->client(client), log, parent, op);
}

}  // namespace perfbench
