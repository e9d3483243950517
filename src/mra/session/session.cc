#include "mra/session/session.h"

#include <utility>

#include "mra/obs/metrics.h"

namespace mra {
namespace session {

// ---- EmbeddedSession ----

EmbeddedSession::EmbeddedSession(std::unique_ptr<Database> db,
                                 ExecConfig interp_options)
    : db_(std::move(db)),
      interp_(std::make_unique<lang::Interpreter>(db_.get(), interp_options)) {}

Result<std::unique_ptr<EmbeddedSession>> EmbeddedSession::Open(
    DatabaseOptions db_options, ExecConfig interp_options) {
  MRA_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                       Database::Open(std::move(db_options)));
  return std::unique_ptr<EmbeddedSession>(
      new EmbeddedSession(std::move(db), interp_options));
}

Result<QueryResult> EmbeddedSession::Execute(std::string_view script) {
  QueryResult out;
  MRA_RETURN_IF_ERROR(interp_->ExecuteScript(
      script, [&out](const std::string& query, const Relation& result) {
        out.items.push_back(QueryResult::Item{query, result});
      }));
  return out;
}

Result<std::string> EmbeddedSession::Stats() {
  return obs::MetricsRegistry::Global().RenderJson();
}

// ---- RemoteSession ----

RemoteSession::RemoteSession(net::Client client, std::string backend)
    : client_(std::move(client)), backend_(std::move(backend)) {}

Result<std::unique_ptr<RemoteSession>> RemoteSession::Connect(
    std::string_view host_port_spec, net::ClientOptions options) {
  MRA_ASSIGN_OR_RETURN(auto host_port, net::ParseHostPort(host_port_spec));
  MRA_ASSIGN_OR_RETURN(
      net::Client client,
      net::Client::Connect(host_port.first, host_port.second,
                           std::move(options)));
  std::string backend = "remote(" + std::string(host_port_spec) + ")";
  return std::unique_ptr<RemoteSession>(
      new RemoteSession(std::move(client), std::move(backend)));
}

namespace {

/// Rehydrates the wire stats trailer into the lang shape so embedded and
/// remote sessions expose identical per-query numbers.  The wire carries
/// one total wall time per operator; it lands in next_ns (total_ns() then
/// reports it) and `timed` marks whether the server measured at all.
lang::QueryStats FromWireStats(const net::WireQueryStats& wire) {
  lang::QueryStats out;
  out.query_id = wire.query_id;
  out.result_rows = wire.result_rows;
  out.total_us = wire.total_us;
  out.bind_us = wire.bind_us;
  out.optimize_us = wire.optimize_us;
  out.lower_us = wire.lower_us;
  out.exec_us = wire.exec_us;
  out.operators.reserve(wire.operators.size());
  for (const net::WireOpStats& op : wire.operators) {
    lang::QueryStats::OpStats s;
    s.name = op.name;
    s.depth = op.depth;
    s.estimated_rows = op.estimated_rows;
    s.metrics.rows_emitted = op.rows_emitted;
    s.metrics.batches_emitted = op.batches_emitted;
    s.metrics.weighted_rows = op.weighted_rows;
    s.metrics.distinct_rows = op.distinct_rows;
    s.metrics.peak_hash_entries = op.peak_hash_entries;
    s.metrics.build_rows = op.build_rows;
    s.metrics.probe_rows = op.probe_rows;
    s.metrics.hash_bytes = op.hash_bytes;
    s.metrics.next_ns = op.time_ns;
    s.metrics.timed = op.time_ns > 0;
    out.operators.push_back(std::move(s));
  }
  out.valid = true;
  return out;
}

}  // namespace

Result<QueryResult> RemoteSession::Execute(std::string_view script) {
  MRA_ASSIGN_OR_RETURN(std::vector<Relation> relations,
                       client_.ExecuteScript(script));
  if (client_.last_query_stats().has_value()) {
    last_stats_ = FromWireStats(*client_.last_query_stats());
  }
  QueryResult out;
  out.items.reserve(relations.size());
  for (Relation& r : relations) {
    out.items.push_back(QueryResult::Item{std::string(), std::move(r)});
  }
  return out;
}

Result<std::string> RemoteSession::Stats() { return client_.ServerStats(); }

}  // namespace session
}  // namespace mra
