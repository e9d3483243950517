// mra::Session — one query API over both deployment shapes.
//
// A Session runs XRA scripts against *some* database and hands back the
// `? E` results; callers do not care whether the database lives in this
// process or behind a TCP server.  Two implementations:
//
//  * EmbeddedSession — owns a txn::Database and a lang::Interpreter;
//    Execute() parses/binds/optimizes/executes in-process (batch-at-a-time
//    through the physical operators, see docs/EXECUTION.md);
//  * RemoteSession  — wraps a net::Client; Execute() ships the script to
//    an mra_serverd and decodes the chunked ResultSet reply.
//
// Both surface the identical error model (Status/Result, see DESIGN.md):
// a failing transaction bracket rolls back — in-process or server-side —
// and Execute() returns its Status.  xra_repl drives both modes through
// this interface with one REPL loop; examples/reachability.cpp shows the
// embedded shape.
//
// Thread model: a Session is not thread-safe — use one per thread, like
// the Interpreter and Client it wraps.

#ifndef MRA_SESSION_SESSION_H_
#define MRA_SESSION_SESSION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mra/common/result.h"
#include "mra/core/relation.h"
#include "mra/lang/interpreter.h"
#include "mra/net/client.h"
#include "mra/txn/database.h"

namespace mra {
namespace session {

/// What a script evaluation produced: every `? E` result, in statement
/// order.  DML-only scripts yield an empty item list.
struct QueryResult {
  struct Item {
    /// The query statement's source form ("? select(...)").  Empty when
    /// the backend cannot report it (the wire protocol carries results
    /// only, so remote sessions leave it blank).
    std::string query;
    Relation relation;
  };
  std::vector<Item> items;
};

/// Abstract query session.  See the header comment for the contract.
class Session {
 public:
  virtual ~Session() = default;

  /// Parses and runs a whole XRA script (statements, transaction
  /// brackets, DDL); returns the `? E` results in order.  A failing
  /// bracket rolls back and surfaces as its Status — later statements do
  /// not run.
  virtual Result<QueryResult> Execute(std::string_view script) = 0;

  /// The metrics registry as JSON — this process's for an embedded
  /// session, the server's for a remote one.
  virtual Result<std::string> Stats() = 0;

  /// Per-query stats of the most recent Execute() that reached the
  /// physical executor — embedded: the interpreter's harvest; remote: the
  /// server-side stats trailer decoded from the result frame, so both
  /// deployment shapes report the *server's* numbers (parity contract in
  /// docs/EXECUTION.md).  nullptr before the first such query, or when
  /// the remote server predates protocol v3.
  virtual const lang::QueryStats* last_query_stats() const { return nullptr; }

  /// Query id attributed to the most recent Execute() — feed it to the
  /// server's ServerStats request (`\trace <id>` in the REPL) to pull the
  /// matching trace spans.  0 when no id was established.
  virtual uint64_t last_query_id() const { return 0; }

  /// Liveness probe: OK when the session can serve an Execute() now.
  virtual Status Ping() = 0;

  /// Human-readable backend tag for prompts/banners, e.g.
  /// "embedded" or "remote(127.0.0.1:7411)".
  virtual std::string_view backend() const = 0;
};

/// In-process session: owns the database and interpreter.
class EmbeddedSession : public Session {
 public:
  /// Opens (and, when `db_options.directory` is set, recovers) a database
  /// and wires an interpreter to it.  `interp_options` selects optimizer,
  /// executor and batch size (ExecConfig::exec.batch_size).
  static Result<std::unique_ptr<EmbeddedSession>> Open(
      DatabaseOptions db_options = {},
      ExecConfig interp_options = {});

  Result<QueryResult> Execute(std::string_view script) override;
  Result<std::string> Stats() override;
  Status Ping() override { return Status::OK(); }
  std::string_view backend() const override { return "embedded"; }
  const lang::QueryStats* last_query_stats() const override {
    const lang::QueryStats& stats = interp_->last_query_stats();
    return stats.valid ? &stats : nullptr;
  }
  uint64_t last_query_id() const override {
    const lang::QueryStats& stats = interp_->last_query_stats();
    return stats.valid ? stats.query_id : 0;
  }

  /// Escape hatches for embedded-only features (EXPLAIN, checkpointing,
  /// query stats) — the REPL's meta commands use these.
  lang::Interpreter& interpreter() { return *interp_; }
  Database& database() { return *db_; }

 private:
  EmbeddedSession(std::unique_ptr<Database> db,
                  ExecConfig interp_options);

  std::unique_ptr<Database> db_;
  std::unique_ptr<lang::Interpreter> interp_;
};

/// Network session: wraps a connected net::Client.
class RemoteSession : public Session {
 public:
  /// Connects to "host:port" and performs the protocol handshake; a
  /// version mismatch surfaces as the server's Unavailable status.
  static Result<std::unique_ptr<RemoteSession>> Connect(
      std::string_view host_port_spec, net::ClientOptions options = {});

  Result<QueryResult> Execute(std::string_view script) override;
  Result<std::string> Stats() override;
  Status Ping() override { return client_.Ping(); }
  std::string_view backend() const override { return backend_; }
  const lang::QueryStats* last_query_stats() const override {
    return last_stats_.valid ? &last_stats_ : nullptr;
  }
  uint64_t last_query_id() const override { return client_.last_query_id(); }

  /// Escape hatch for remote-only features (shutdown request, reconnect
  /// control) — the REPL's meta commands use this.
  net::Client& client() { return client_; }

 private:
  RemoteSession(net::Client client, std::string backend);

  net::Client client_;
  std::string backend_;  // "remote(host:port)"
  /// Most recent server-side stats trailer, converted back to the lang
  /// shape (valid = false until a v3 server sends one).
  lang::QueryStats last_stats_;
};

}  // namespace session
}  // namespace mra

#endif  // MRA_SESSION_SESSION_H_
