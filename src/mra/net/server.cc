#include "mra/net/server.h"

#include <algorithm>
#include <chrono>

#include "mra/fault/failpoint.h"
#include "mra/obs/metrics.h"
#include "mra/obs/slow_log.h"
#include "mra/obs/trace.h"

namespace mra {
namespace net {

namespace {

// How often blocked waits re-check the draining flag.  Bounds both the
// shutdown latency of an idle session and the accept loop's reaction time.
constexpr int kPollSliceMs = 50;

struct NetMetrics {
  obs::Counter* accepted;
  obs::Gauge* active;
  obs::Counter* requests;
  obs::Counter* request_errors;
  obs::Counter* request_timeouts;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* idle_reaped;
  obs::Counter* shutdowns;
  obs::Counter* sheds;
  obs::Counter* cancels;
  obs::Histogram* request_latency_us;

  static NetMetrics& Get() {
    static NetMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      NetMetrics out;
      out.accepted = reg.GetCounter("net.connections");
      out.active = reg.GetGauge("net.connections.active");
      out.requests = reg.GetCounter("net.requests");
      out.request_errors = reg.GetCounter("net.requests.errors");
      out.request_timeouts = reg.GetCounter("net.requests.timeouts");
      out.bytes_in = reg.GetCounter("net.bytes_in");
      out.bytes_out = reg.GetCounter("net.bytes_out");
      out.idle_reaped = reg.GetCounter("net.sessions.idle_reaped");
      out.shutdowns = reg.GetCounter("net.shutdowns");
      out.sheds = reg.GetCounter("net.sheds");
      out.cancels = reg.GetCounter("net.cancels");
      out.request_latency_us = reg.GetHistogram("net.request_us");
      return out;
    }();
    return m;
  }
};

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// `\top` shows at most this much of a session's current query text.
constexpr size_t kCurrentQueryClip = 200;

std::string ClipQueryText(std::string_view text) {
  if (text.size() <= kCurrentQueryClip) return std::string(text);
  return std::string(text.substr(0, kCurrentQueryClip)) + "…";
}

// Converts the interpreter's harvested stats into the wire mirror that
// rides back in the ResultSet trailer.
WireQueryStats ToWireStats(const lang::QueryStats& stats) {
  WireQueryStats out;
  out.query_id = stats.query_id;
  out.result_rows = stats.result_rows;
  out.total_us = stats.total_us;
  out.bind_us = stats.bind_us;
  out.optimize_us = stats.optimize_us;
  out.lower_us = stats.lower_us;
  out.exec_us = stats.exec_us;
  out.operators.reserve(stats.operators.size());
  for (const lang::QueryStats::OpStats& op : stats.operators) {
    WireOpStats w;
    w.name = op.name;
    w.depth = op.depth;
    w.estimated_rows = op.estimated_rows;
    w.rows_emitted = op.metrics.rows_emitted;
    w.batches_emitted = op.metrics.batches_emitted;
    w.weighted_rows = op.metrics.weighted_rows;
    w.distinct_rows = op.metrics.distinct_rows;
    w.peak_hash_entries = op.metrics.peak_hash_entries;
    w.build_rows = op.metrics.build_rows;
    w.probe_rows = op.metrics.probe_rows;
    w.hash_bytes = op.metrics.hash_bytes;
    w.time_ns = op.metrics.total_ns();
    out.operators.push_back(std::move(w));
  }
  return out;
}

}  // namespace

Server::Server(Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  MRA_CHECK(db != nullptr);
  // Concurrent sessions must queue their brackets on the serial slot.
  options_.interpreter.session.block_on_txn_slot = true;
  // The request deadline preempts running plans: unless the operator set
  // an explicit statement timeout, arm the governance deadline with it so
  // an over-deadline query dies at a batch boundary instead of running to
  // completion for a client that already gave up.
  if (options_.interpreter.governance.statement_timeout_ms == 0 &&
      options_.request_timeout_ms > 0) {
    options_.interpreter.governance.statement_timeout_ms =
        options_.request_timeout_ms;
  }
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::Internal("server already started");
  }
  MRA_ASSIGN_OR_RETURN(
      listener_,
      Listener::Bind(options_.host, options_.port, options_.accept_backlog));
  port_ = listener_.port();
  start_us_ = NowMicros();
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  return Status::OK();
}

void Server::RequestShutdown() {
  draining_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  cv_.notify_all();
}

void Server::Shutdown() {
  if (!started_.load(std::memory_order_relaxed)) return;
  RequestShutdown();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (joined_) return;
    joined_ = true;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Sessions notice draining_ within a poll slice and exit after the
  // request in flight (if any) completes.
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return active_ == 0; });
  ReapFinishedLocked();
  for (auto& [id, thread] : sessions_) {
    if (thread.joinable()) thread.join();
  }
  sessions_.clear();
  listener_.Close();
}

int Server::active_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

uint64_t Server::sessions_served() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_served_;
}

void Server::ReapFinishedLocked() {
  for (uint64_t id : finished_) {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) continue;
    if (it->second.joinable()) it->second.join();
    sessions_.erase(it);
  }
  finished_.clear();
}

void Server::AcceptLoop() {
  NetMetrics& metrics = NetMetrics::Get();
  while (!draining()) {
    bool shedding = false;
    {
      // Backpressure: hold off accepting while at the session cap, so
      // waiting clients sit in the kernel's bounded accept queue.  After
      // shed_grace_ms at the cap, degrade gracefully instead: pull queued
      // connections and turn them away with a Busy frame, so clients get
      // a structured retry-after hint rather than an unbounded wait.
      std::unique_lock<std::mutex> lock(mutex_);
      auto have_slot = [this] {
        return draining() || active_ < options_.max_sessions;
      };
      if (options_.shed_grace_ms < 0) {
        cv_.wait(lock, have_slot);
      } else {
        shedding = !cv_.wait_for(
            lock, std::chrono::milliseconds(options_.shed_grace_ms),
            have_slot);
      }
      if (draining()) break;
      ReapFinishedLocked();
    }
    Result<bool> acceptable = listener_.WaitAcceptable(kPollSliceMs);
    if (!acceptable.ok()) break;  // Listener closed underneath us.
    if (!*acceptable) continue;
    Result<Socket> sock = listener_.Accept();
    if (!sock.ok()) continue;  // Client gave up while queued; keep serving.
    if (shedding) {
      metrics.sheds->Inc();
      // Sheds are operator-relevant overload signals, so they land in the
      // slow-query stream too (query_id 0: no query ever started).
      obs::SlowQueryLog& slow_log = obs::SlowQueryLog::Global();
      if (slow_log.enabled()) {
        obs::SlowQueryEntry entry;
        entry.source = "(connection shed before handshake)";
        entry.events.push_back("shed");
        slow_log.Record(std::move(entry));
      }
      // Best-effort notice; the shed connection closes either way.
      (void)WriteFrame(*sock, FrameKind::kBusy,
                       EncodeBusy(options_.busy_retry_after_ms,
                                  "server at session capacity"));
      sock->Close();
      continue;
    }
    metrics.accepted->Inc();
    metrics.active->Add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t id = next_session_id_++;
    ++active_;
    ++sessions_served_;
    sessions_.emplace(
        id, std::thread(&Server::RunSession, this, id, std::move(*sock)));
  }
}

bool Server::Send(Socket& sock, FrameKind kind, std::string_view payload) {
  Result<size_t> sent = WriteFrame(sock, kind, payload);
  if (sent.ok()) NetMetrics::Get().bytes_out->Inc(*sent);
  return sent.ok();
}

bool Server::HandleFrame(SessionContext& ctx, lang::Interpreter& interp,
                         const Frame& request, Socket& sock) {
  NetMetrics& metrics = NetMetrics::Get();
  metrics.requests->Inc();
  uint64_t t0 = NowMicros();

  bool is_exec = request.kind == FrameKind::kQuery ||
                 request.kind == FrameKind::kScript;

  // Produce the response; `close` requests ending the session afterwards.
  bool close = false;
  // Set when the governance deadline already killed the plan: the client
  // got a proper kDeadlineExceeded, so the post-hoc timeout backstop must
  // not also tear the connection down.
  bool deadline_preempted = false;
  FrameKind response_kind = FrameKind::kError;
  std::string response;
  switch (request.kind) {
    case FrameKind::kHello: {
      Result<Hello> hello = DecodeHello(request.payload);
      if (!hello.ok()) {
        response = EncodeError(hello.status());
        close = true;
      } else if (hello->version < kMinProtocolVersion ||
                 hello->version > kProtocolVersion) {
        // Unavailable, not InvalidArgument: the request is well-formed,
        // this server just cannot serve that dialect — the peer should
        // upgrade (or find a server that speaks its version).
        response = EncodeError(Status::Unavailable(
            "protocol version " + std::to_string(hello->version) +
            " unsupported (server speaks " +
            std::to_string(kProtocolVersion) + ")"));
        close = true;
      } else {
        response_kind = FrameKind::kHello;
        response = EncodeHello(kProtocolVersion, "mra_serverd");
        std::lock_guard<std::mutex> lock(info_mutex_);
        session_info_[ctx.id].peer = hello->peer;
      }
      break;
    }
    case FrameKind::kQuery:
    case FrameKind::kScript: {
      // Requests carry a client-minted query id ahead of the text (0 asks
      // the server to mint one).
      Result<QueryRequest> req = DecodeQueryRequest(request.payload);
      if (!req.ok()) {
        response = EncodeError(req.status());
        close = true;
        break;
      }
      uint64_t query_id = req->query_id;
      const std::string text = std::move(req->text);
      if (query_id == 0) query_id = obs::NextQueryId();
      {
        std::lock_guard<std::mutex> lock(info_mutex_);
        SessionInfo& info = session_info_[ctx.id];
        info.busy = true;
        info.current_query = ClipQueryText(text);
        ++info.queries;
        info.last_active_us = t0;
      }
      obs::ScopedQueryId scoped_id(query_id);
      // Register the in-flight query so a Cancel frame from any session
      // can reach it (docs/GOVERNANCE.md).  The entry lives exactly as
      // long as this execution, which keeps the Interpreter pointer valid.
      struct RunningGuard {
        Server* server;
        uint64_t id;
        ~RunningGuard() {
          std::lock_guard<std::mutex> lock(server->running_mutex_);
          server->running_.erase(id);
        }
      } running_guard{this, query_id};
      {
        std::lock_guard<std::mutex> lock(running_mutex_);
        running_[query_id] = &interp;
      }
      // Deadline kills are retriable (like Busy): their errors carry the
      // same retry-after hint so clients back off instead of hammering.
      auto encode_exec_error = [&](const Status& status) {
        if (status.code() == StatusCode::kDeadlineExceeded) {
          deadline_preempted = true;
          return EncodeErrorWithHint(status, options_.busy_retry_after_ms);
        }
        return EncodeError(status);
      };
      const WireQueryStats* stats_ptr = nullptr;
      WireQueryStats wire_stats;
      if (request.kind == FrameKind::kQuery) {
        Result<Relation> result = interp.Query(text);
        if (result.ok()) {
          response_kind = FrameKind::kResultSet;
          std::vector<Relation> relations;
          relations.push_back(*std::move(result));
          if (interp.last_query_stats().valid) {
            wire_stats = ToWireStats(interp.last_query_stats());
            stats_ptr = &wire_stats;
          }
          response = EncodeResultSetWithStats(relations, stats_ptr);
        } else {
          response = encode_exec_error(result.status());
        }
      } else {
        Result<std::vector<Relation>> results =
            interp.ExecuteScriptCollect(text);
        if (results.ok()) {
          response_kind = FrameKind::kResultSet;
          // A script's trailer carries the stats of its last evaluated
          // query (documented in docs/EXECUTION.md).
          if (interp.last_query_stats().valid &&
              interp.last_query_stats().query_id == query_id) {
            wire_stats = ToWireStats(interp.last_query_stats());
            stats_ptr = &wire_stats;
          }
          response = EncodeResultSetWithStats(*results, stats_ptr);
        } else {
          response = encode_exec_error(results.status());
        }
      }
      break;
    }
    case FrameKind::kStats: {
      // The optional payload selects the export format.
      response_kind = FrameKind::kStats;
      if (request.payload == "prom") {
        response = obs::MetricsRegistry::Global().RenderPrometheus();
      } else if (request.payload == "text") {
        response = obs::MetricsRegistry::Global().RenderText();
      } else {
        response = obs::MetricsRegistry::Global().RenderJson();
      }
      break;
    }
    case FrameKind::kServerStats: {
      Result<uint64_t> query_id = DecodeServerStatsRequest(request.payload);
      if (!query_id.ok()) {
        response = EncodeError(query_id.status());
        close = true;
      } else {
        response_kind = FrameKind::kServerStats;
        response = EncodeServerStatsReply(BuildServerStats(*query_id));
      }
      break;
    }
    case FrameKind::kPing: {
      response_kind = FrameKind::kPing;
      response = request.payload;
      break;
    }
    case FrameKind::kShutdown: {
      metrics.shutdowns->Inc();
      response_kind = FrameKind::kShutdown;
      close = true;
      RequestShutdown();
      break;
    }
    case FrameKind::kCancel: {
      Result<uint64_t> qid = DecodeCancelRequest(request.payload);
      if (!qid.ok()) {
        response = EncodeError(qid.status());
        close = true;
        break;
      }
      bool delivered = false;
      {
        std::lock_guard<std::mutex> lock(running_mutex_);
        auto it = running_.find(*qid);
        if (it != running_.end()) {
          // Trips the cooperative flag; the plan unwinds at its next
          // batch boundary.  Safe under running_mutex_: the interpreter
          // never takes it, and the registry entry pins the pointer.
          it->second->CancelQuery(*qid);
          delivered = true;
        }
      }
      if (delivered) metrics.cancels->Inc();
      response_kind = FrameKind::kCancel;
      response = EncodeCancelReply(delivered);
      break;
    }
    case FrameKind::kResultSet:
    case FrameKind::kError:
    case FrameKind::kBusy: {
      response = EncodeError(Status::InvalidArgument(
          std::string(FrameKindName(request.kind)) +
          " frames are server-to-client only"));
      close = true;
      break;
    }
  }

  uint64_t elapsed_us = NowMicros() - t0;
  metrics.request_latency_us->Observe(elapsed_us);
  if (response_kind == FrameKind::kError) metrics.request_errors->Inc();
  if (is_exec) {
    std::lock_guard<std::mutex> lock(info_mutex_);
    SessionInfo& info = session_info_[ctx.id];
    info.busy = false;
    info.current_query.clear();
    info.last_latency_us = elapsed_us;
    info.last_active_us = NowMicros();
  }

  // Backstop for time lost outside the governed plan (parse, encode,
  // waiting on the txn slot): the in-plan deadline normally kills an
  // over-deadline query first — it surfaces as kDeadlineExceeded above —
  // but if total handling time still blew the budget, the result is not
  // delivered: the client already gave up on it.
  if (!deadline_preempted && options_.request_timeout_ms > 0 &&
      elapsed_us / 1000 > static_cast<uint64_t>(options_.request_timeout_ms)) {
    metrics.request_timeouts->Inc();
    obs::SlowQueryLog& slow_log = obs::SlowQueryLog::Global();
    if (slow_log.enabled()) {
      obs::SlowQueryEntry entry;
      entry.query_id = obs::CurrentQueryId();
      entry.latency_us = elapsed_us;
      entry.source = "(request over deadline)";
      entry.events.push_back("timeout");
      slow_log.Record(std::move(entry));
    }
    Send(sock, FrameKind::kError,
         EncodeError(Status::IoError(
             "request exceeded the " +
             std::to_string(options_.request_timeout_ms) + "ms deadline")));
    return false;
  }
  if (!Send(sock, response_kind, response)) return false;
  return !close;
}

ServerStatsReply Server::BuildServerStats(uint64_t query_id) const {
  auto& reg = obs::MetricsRegistry::Global();
  ServerStatsReply reply;
  uint64_t now_us = NowMicros();
  reply.uptime_us = now_us - start_us_;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reply.sessions_served = sessions_served_;
    reply.active_sessions = static_cast<uint32_t>(active_);
  }
  reply.queries = reg.GetCounter("exec.queries")->value();
  reply.sheds = reg.GetCounter("net.sheds")->value();
  reply.slow_logged = obs::SlowQueryLog::Global().total_logged();
  reply.query_latency = reg.GetHistogram("exec.query_us")->Snapshot();
  {
    std::lock_guard<std::mutex> lock(info_mutex_);
    for (const auto& [id, info] : session_info_) {
      ServerSessionInfo s;
      s.id = id;
      s.peer = info.peer;
      s.current_query = info.current_query;
      s.busy = info.busy;
      s.queries = info.queries;
      s.last_latency_us = info.last_latency_us;
      s.idle_ms =
          info.last_active_us == 0 || info.busy
              ? 0
              : (now_us - std::min(info.last_active_us, now_us)) / 1000;
      reply.sessions.push_back(std::move(s));
    }
  }
  reply.slow_log = obs::SlowQueryLog::Global().Lines();
  if (obs::Tracer::Global().enabled() || query_id != 0) {
    reply.trace = obs::Tracer::Global().Render(query_id);
  }
  return reply;
}

void Server::RunSession(uint64_t session_id, Socket sock) {
  // Failpoint `server.session`: fail the session right after accept —
  // `error` answers with an Error frame and closes, `abort` kills the
  // whole process mid-session (crash-recovery drills).
  static fault::Failpoint* fp_session =
      fault::FaultRegistry::Global().Get("server.session");

  NetMetrics& metrics = NetMetrics::Get();
  lang::Interpreter interp(db_, options_.interpreter);
  SessionContext ctx;
  ctx.id = session_id;
  {
    std::lock_guard<std::mutex> lock(info_mutex_);
    SessionInfo& info = session_info_[session_id];
    info.peer = "(pre-handshake)";
    info.last_active_us = NowMicros();
  }
  int idle_ms = 0;

  Status session_fault = fault::InjectIfArmed(fp_session);
  if (!session_fault.ok()) {
    metrics.request_errors->Inc();
    Send(sock, FrameKind::kError, EncodeError(session_fault));
  }

  while (session_fault.ok() && !draining()) {
    Result<bool> readable = sock.WaitReadable(kPollSliceMs);
    if (!readable.ok()) break;
    if (!*readable) {
      idle_ms += kPollSliceMs;
      if (options_.idle_timeout_ms > 0 && idle_ms >= options_.idle_timeout_ms) {
        metrics.idle_reaped->Inc();
        break;
      }
      continue;
    }
    idle_ms = 0;
    // A readable socket either holds a frame or an EOF; the remaining
    // reads are bounded by the request deadline (slow-loris protection).
    Result<Frame> frame =
        ReadFrame(sock, WireLimits{options_.max_frame_bytes},
                  options_.request_timeout_ms);
    if (!frame.ok()) {
      // Framing is lost (or the peer closed): report if the socket still
      // works, then drop the connection.
      if (frame.status().code() != StatusCode::kIoError) {
        metrics.request_errors->Inc();
        Send(sock, FrameKind::kError, EncodeError(frame.status()));
      }
      break;
    }
    metrics.bytes_in->Inc(kFrameHeaderBytes + frame->payload.size());
    if (!HandleFrame(ctx, interp, *frame, sock)) break;
  }

  sock.Close();
  metrics.active->Add(-1);
  {
    std::lock_guard<std::mutex> lock(info_mutex_);
    session_info_.erase(session_id);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  --active_;
  finished_.push_back(session_id);
  cv_.notify_all();
}

}  // namespace net
}  // namespace mra
