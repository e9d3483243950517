// Blocking client for the mra query server: connects, handshakes, and
// exposes the request kinds as typed calls.  Results arrive as ordinary
// mra::Relation values — the same bytes the storage layer would write to
// a checkpoint.  Not thread-safe; use one Client per thread.
//
// Robustness: with max_retries > 0 the client retries *idempotent*
// (read-only) requests — Query, Stats, Ping — and the Connect handshake
// after retriable failures, reconnecting automatically when the
// connection died.  Retriable means a transport fault (IoError: refused,
// reset, timed out, torn frame) or the server shedding load (a Busy frame,
// surfaced as Unavailable with a retry-after hint that floors the
// backoff).  A protocol-version mismatch also surfaces as Unavailable
// (this server cannot serve the client's dialect); with retries off — the
// default — it reaches the caller directly.  Protocol errors — bad CRC,
// malformed payloads (Corruption / InvalidArgument) — and server-side
// evaluation errors are fatal: retrying cannot fix them and mutating
// requests (Script, Shutdown) are never retried because the first attempt
// may have executed.

#ifndef MRA_NET_CLIENT_H_
#define MRA_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mra/common/result.h"
#include "mra/core/relation.h"
#include "mra/net/protocol.h"
#include "mra/net/socket.h"

namespace mra {
namespace net {

struct ClientOptions {
  /// Bounds every network wait (connect-to-response); < 0 waits forever.
  int io_timeout_ms = 30'000;
  uint32_t max_frame_bytes = 16u << 20;
  /// Reported to the server in the Hello handshake.
  std::string client_name = "mra-client";
  /// Retries after a retriable failure, for idempotent requests and the
  /// Connect handshake only (see the header comment).  0 disables.
  int max_retries = 0;
  /// Exponential backoff with jitter: attempt k sleeps a uniform-random
  /// time in [d/2, d] where d = min(retry_cap_ms, retry_base_ms << k),
  /// floored by the server's Busy retry-after hint when one arrived.
  int retry_base_ms = 10;
  int retry_cap_ms = 2'000;
  /// Cooperative interrupt token (e.g. flipped by a SIGINT handler — the
  /// store is async-signal-safe).  While a response is pending the client
  /// polls it between short waits; on true it is consumed (reset to
  /// false) and the in-flight query is cancelled out-of-band: a
  /// short-lived side connection sends a v4 Cancel frame for the last
  /// minted query id, then the original wait continues — the killed
  /// query answers with its kCancelled Error.  Null disables polling.
  std::shared_ptr<std::atomic<bool>> interrupt;
};

class Client {
 public:
  /// Connects and performs the Hello handshake; fails on a version
  /// mismatch (the server's Error status is passed through).
  static Result<Client> Connect(const std::string& host, uint16_t port,
                                ClientOptions options = {});

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Evaluates one XRA relation expression server-side.
  Result<Relation> Query(std::string_view rel_expr_source);

  /// Runs a whole XRA script server-side (statements, brackets, DDL);
  /// returns every `? E` result in order.  A failing bracket rolls back
  /// server-side and surfaces here as its Status.
  Result<std::vector<Relation>> ExecuteScript(std::string_view source);

  /// The server's metrics registry export.  `format` selects the dialect:
  /// "" or "json" (default), "prom" (Prometheus exposition), "text".
  Result<std::string> ServerStats(std::string_view format = {});

  /// Live-introspection snapshot: sessions, latency histogram, slow-query
  /// log, trace spans.  `query_id` filters the trace to one query; 0 asks
  /// for the overview.  Read-only, so retried like Query.
  Result<ServerStatsReply> FetchServerStats(uint64_t query_id = 0);

  /// Round-trip liveness probe (payload echoed server-side).
  Status Ping();

  /// Asks the server to kill the in-flight query with this client-minted
  /// id (see last_query_id()).  Works from any session —
  /// this is how `\cancel <id>` reaches a query another connection runs.
  /// Returns whether the id matched a running query; false means it
  /// already finished (or never started), which is not an error.
  Result<bool> Cancel(uint64_t query_id);

  /// Asks the server to drain and stop.  Returns once the ack arrives.
  Status RequestShutdown();

  /// Server banner from the handshake, e.g. "mra_serverd".
  const std::string& server_banner() const { return server_banner_; }
  /// The protocol version the server answered the handshake with (always
  /// kProtocolVersion: the client refuses any other).
  uint32_t server_version() const { return server_version_; }

  /// The id this client minted for its most recent Query/ExecuteScript
  /// (0 before the first one).  Feed it
  /// to FetchServerStats() to pull that query's server-side trace.
  uint64_t last_query_id() const { return last_query_id_; }

  /// Server-side stats trailer from the most recent Query/ExecuteScript
  /// response; empty when the server sent none.
  const std::optional<obs::QueryStats>& last_query_stats() const {
    return last_query_stats_;
  }

  bool connected() const { return sock_.valid(); }
  void Close() { sock_.Close(); }

  /// The retry-after hint (ms) from the most recent Busy shed notice the
  /// server sent this client; 0 when none arrived yet.
  uint32_t last_busy_retry_after_ms() const { return busy_hint_ms_; }

  /// True when `status` is worth retrying: a transport fault (IoError) or
  /// the server shedding load (Unavailable).  Protocol and evaluation
  /// errors are fatal.
  static bool IsRetriable(const Status& status);

 private:
  Client(ClientOptions options, std::string host, uint16_t port)
      : options_(std::move(options)),
        host_(std::move(host)),
        port_(port),
        rng_(std::random_device{}()) {}

  /// Sends one request frame and reads the response; an Error response is
  /// unwrapped into its transported Status, a Busy response into
  /// Unavailable (stashing the retry-after hint).
  Result<Frame> RoundTrip(FrameKind kind, std::string_view payload);

  /// RoundTrip plus the retry/reconnect loop, for idempotent kinds only.
  Result<Frame> RetryingRoundTrip(FrameKind kind, std::string_view payload);

  /// (Re)establishes the connection and redoes the Hello handshake.
  Status Reconnect();

  /// Sleeps the jittered exponential backoff for retry attempt `attempt`.
  void BackoffSleep(int attempt);

  /// Reads the response frame.  With an interrupt token armed this polls
  /// readability in short slices so a flipped token turns into an
  /// out-of-band Cancel of the in-flight query (then keeps waiting).
  Result<Frame> AwaitResponse();

  /// Best-effort psql-style cancel: the session socket is mid-response,
  /// so the Cancel frame travels on an ephemeral side connection.
  void SendOutOfBandCancel(uint64_t query_id);

  /// Decodes a ResultSet response, stashing its stats trailer (when
  /// present) into last_query_stats_.
  Result<std::vector<Relation>> DecodeResults(const Frame& response);

  Socket sock_;
  ClientOptions options_;
  std::string host_;
  uint16_t port_ = 0;
  std::string server_banner_;
  uint32_t server_version_ = 0;
  uint32_t busy_hint_ms_ = 0;
  uint64_t last_query_id_ = 0;
  std::optional<obs::QueryStats> last_query_stats_;
  std::mt19937 rng_;
};

/// Parses "host:port" (e.g. "127.0.0.1:7411", "[::1]:7411", "db.example:7411").
Result<std::pair<std::string, uint16_t>> ParseHostPort(std::string_view spec);

}  // namespace net
}  // namespace mra

#endif  // MRA_NET_CLIENT_H_
