// A multi-threaded TCP query server over one shared Database.
//
// Architecture: one accept thread plus one thread per connected session.
// Each session owns a lang::Interpreter (with block_on_txn_slot set, so
// concurrent transaction brackets queue on the database's serial slot
// instead of bouncing) and speaks the frame protocol of net/protocol.h.
//
// Robustness limits, all configurable through ServerOptions:
//  * max_sessions       — the accept thread stops pulling connections once
//                         this many sessions are live; further clients
//                         queue in the kernel backlog (accept_backlog) —
//                         backpressure, not rejection;
//  * shed_grace_ms      — how long the accept loop tolerates sitting at the
//                         session cap before it degrades gracefully: queued
//                         connections are then accepted, answered with a
//                         Busy frame carrying busy_retry_after_ms, and
//                         closed (shed, not served), until a slot frees.
//                         Negative disables shedding (pure backpressure);
//  * max_frame_bytes    — a header announcing more is answered with an
//                         Error frame and the connection is closed before
//                         any payload is read;
//  * request_timeout_ms — bounds each network read of a request and the
//                         total handling time.  Since protocol v4 the
//                         deadline preempts a running plan: it arms the
//                         per-query governance deadline (unless the
//                         interpreter options set their own statement
//                         timeout), so an over-deadline query is killed at
//                         its next batch boundary with kDeadlineExceeded —
//                         carrying the same retry-after hint a Busy frame
//                         does — instead of pinning the worker thread.
//                         The post-execution check remains as a backstop
//                         for time lost outside the governed plan;
//  * idle_timeout_ms    — sessions with no frame for this long are reaped.
//
// Query governance (docs/GOVERNANCE.md): every Query/Script execution is
// registered in a server-wide running-query registry keyed by its query
// id, so a v4 Cancel frame — from any session — trips the cooperative
// cancellation flag of the matching in-flight plan (`\cancel <id>`).
//
// Shutdown is drain-then-stop: RequestShutdown() (also triggered by a
// client Shutdown frame) stops the accept loop; sessions finish the
// request in flight, then close.  Shutdown() blocks until every session
// thread is joined.  Metrics land in obs::MetricsRegistry::Global() under
// the net.* prefix (catalog in docs/OBSERVABILITY.md).

#ifndef MRA_NET_SERVER_H_
#define MRA_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mra/lang/interpreter.h"
#include "mra/net/protocol.h"
#include "mra/net/socket.h"
#include "mra/txn/database.h"

namespace mra {
namespace net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; Server::port() reports the resolved one.
  uint16_t port = 0;
  /// Cap on concurrently served sessions (thread-per-connection).
  int max_sessions = 64;
  /// Kernel accept-queue bound: clients beyond max_sessions wait here.
  int accept_backlog = 16;
  /// At the session cap, wait this long for a slot before shedding queued
  /// connections with a Busy frame.  Short cap-holds still queue (clients
  /// see backpressure, not errors); sustained overload sheds.  Negative
  /// disables shedding entirely.
  int shed_grace_ms = 1'000;
  /// Retry-after hint carried in Busy frames sent while shedding.
  uint32_t busy_retry_after_ms = 200;
  uint32_t max_frame_bytes = 16u << 20;
  int request_timeout_ms = 30'000;
  /// 0 disables idle reaping.
  int idle_timeout_ms = 300'000;
  /// Per-session interpreter configuration.  block_on_txn_slot is forced
  /// on regardless: concurrent brackets must queue, not error.
  ExecConfig interpreter;
};

class Server {
 public:
  /// The database must outlive the server.
  explicit Server(Database* db, ServerOptions options = {});

  /// Stops and joins everything (Shutdown()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener and starts the accept thread.
  Status Start();

  /// Resolved listen port (after Start()).
  uint16_t port() const { return port_; }

  /// Non-blocking shutdown trigger: stop accepting, ask sessions to drain.
  /// Safe from any thread, including a session's own (a Shutdown frame).
  void RequestShutdown();

  /// RequestShutdown() + blocks until the accept thread and every session
  /// have exited.  Idempotent; called by the destructor.
  void Shutdown();

  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Live sessions right now (0 after Shutdown()).
  int active_sessions() const;

  /// Total sessions ever accepted.
  uint64_t sessions_served() const;

 private:
  /// Live-introspection record for one session, published through the
  /// ServerStats request.  Guarded by info_mutex_ (not mutex_, so a slow
  /// stats reader never delays accept/drain bookkeeping).
  struct SessionInfo {
    std::string peer;
    std::string current_query;  // Truncated; empty when idle.
    bool busy = false;
    uint64_t queries = 0;
    uint64_t last_latency_us = 0;
    uint64_t last_active_us = 0;  // Steady-clock µs of the last request.
  };

  /// Per-session connection state threaded through HandleFrame.
  struct SessionContext {
    uint64_t id = 0;
  };

  void AcceptLoop();
  void RunSession(uint64_t session_id, Socket sock);

  /// Handles one request frame; returns false when the session must close
  /// (shutdown ack, protocol violation, send failure).
  bool HandleFrame(SessionContext& ctx, lang::Interpreter& interp,
                   const Frame& request, Socket& sock);

  /// Builds the ServerStats reply (`query_id` filters the trace spans).
  ServerStatsReply BuildServerStats(uint64_t query_id) const;

  /// Sends a frame, counting bytes; false on send failure.
  bool Send(Socket& sock, FrameKind kind, std::string_view payload);

  /// Joins session threads that have finished (mutex_ must be held).
  void ReapFinishedLocked();

  Database* db_;
  ServerOptions options_;
  Listener listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  uint64_t start_us_ = 0;  // Steady-clock µs at Start(), for uptime.

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<uint64_t, std::thread> sessions_;  // Running or finished.
  std::vector<uint64_t> finished_;            // Ready to join.
  int active_ = 0;
  uint64_t next_session_id_ = 1;
  uint64_t sessions_served_ = 0;
  bool joined_ = false;

  mutable std::mutex info_mutex_;
  std::map<uint64_t, SessionInfo> session_info_;

  /// query_id → the interpreter evaluating it right now, so a Cancel
  /// frame from any session reaches the plan mid-flight.  An entry lives
  /// exactly as long as its HandleFrame execution, which also keeps the
  /// Interpreter pointer valid.  Guarded by running_mutex_.
  mutable std::mutex running_mutex_;
  std::map<uint64_t, lang::Interpreter*> running_;
};

}  // namespace net
}  // namespace mra

#endif  // MRA_NET_SERVER_H_
