#include "mra/net/client.h"

#include <chrono>
#include <thread>

#include "mra/obs/metrics.h"
#include "mra/obs/trace.h"

namespace mra {
namespace net {

namespace {

struct ClientMetrics {
  obs::Counter* retries;
  obs::Counter* reconnects;
  obs::Counter* busy;
  obs::Histogram* rtt_us;

  static ClientMetrics& Get() {
    static ClientMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      ClientMetrics out;
      out.retries = reg.GetCounter("net.client.retries");
      out.reconnects = reg.GetCounter("net.client.reconnects");
      out.busy = reg.GetCounter("net.client.busy");
      out.rtt_us = reg.GetHistogram("net.client.rtt_us");
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

}  // namespace

bool Client::IsRetriable(const Status& status) {
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kUnavailable;
}

Result<Client> Client::Connect(const std::string& host, uint16_t port,
                               ClientOptions options) {
  Client client(std::move(options), host, port);
  Status status = client.Reconnect();
  // Connecting is idempotent, so the handshake retries like a read.
  for (int attempt = 0;
       !status.ok() && IsRetriable(status) &&
       attempt < client.options_.max_retries;
       ++attempt) {
    client.BackoffSleep(attempt);
    ClientMetrics::Get().retries->Inc();
    status = client.Reconnect();
  }
  MRA_RETURN_IF_ERROR(status);
  return client;
}

Status Client::Reconnect() {
  sock_.Close();
  MRA_ASSIGN_OR_RETURN(sock_, Socket::Connect(host_, port_));
  MRA_ASSIGN_OR_RETURN(
      Frame hello_response,
      RoundTrip(FrameKind::kHello,
                EncodeHello(kProtocolVersion, options_.client_name)));
  if (hello_response.kind != FrameKind::kHello) {
    return Status::Corruption("handshake answered with " +
                              std::string(FrameKindName(hello_response.kind)));
  }
  MRA_ASSIGN_OR_RETURN(Hello hello, DecodeHello(hello_response.payload));
  if (hello.version != kProtocolVersion) {
    return Status::Unavailable(
        "server speaks protocol v" + std::to_string(hello.version) +
        "; this client speaks v" + std::to_string(kProtocolVersion));
  }
  server_version_ = hello.version;
  server_banner_ = std::move(hello.peer);
  return Status::OK();
}

void Client::BackoffSleep(int attempt) {
  // Exponential growth with a cap; << is safe because attempt is bounded
  // by the number of doublings it takes to pass the cap.
  int64_t delay = options_.retry_base_ms > 0 ? options_.retry_base_ms : 1;
  for (int i = 0; i < attempt && delay < options_.retry_cap_ms; ++i) {
    delay *= 2;
  }
  if (delay > options_.retry_cap_ms) delay = options_.retry_cap_ms;
  // A Busy hint is the server telling us when capacity should free up;
  // never retry sooner than that.
  if (busy_hint_ms_ > 0 && delay < static_cast<int64_t>(busy_hint_ms_)) {
    delay = busy_hint_ms_;
  }
  // Full jitter over the upper half: decorrelates a thundering herd of
  // clients that all saw the same failure at the same time.
  std::uniform_int_distribution<int64_t> dist(delay / 2, delay);
  std::this_thread::sleep_for(std::chrono::milliseconds(dist(rng_)));
}

Result<Frame> Client::AwaitResponse() {
  if (!options_.interrupt) {
    return ReadFrame(sock_, WireLimits{options_.max_frame_bytes},
                     options_.io_timeout_ms);
  }
  // Sliced wait so an interrupt (Ctrl-C in the REPL) is noticed within
  // ~50ms: consume the token, cancel the in-flight query out-of-band,
  // and keep waiting — the killed query still answers on this socket.
  constexpr int kSliceMs = 50;
  int64_t waited_ms = 0;
  for (;;) {
    MRA_ASSIGN_OR_RETURN(bool readable, sock_.WaitReadable(kSliceMs));
    if (readable) {
      return ReadFrame(sock_, WireLimits{options_.max_frame_bytes},
                       options_.io_timeout_ms);
    }
    if (options_.interrupt->exchange(false, std::memory_order_acq_rel)) {
      SendOutOfBandCancel(last_query_id_);
    }
    waited_ms += kSliceMs;
    if (options_.io_timeout_ms >= 0 && waited_ms >= options_.io_timeout_ms) {
      return Status::IoError("timed out waiting for the response");
    }
  }
}

void Client::SendOutOfBandCancel(uint64_t query_id) {
  if (query_id == 0) return;
  Result<Socket> side = Socket::Connect(host_, port_);
  if (!side.ok()) return;
  // Bounded handshake + Cancel; every step is best-effort — if the query
  // finished meanwhile the registry simply reports not-delivered.
  constexpr int kSideTimeoutMs = 2'000;
  WireLimits limits{options_.max_frame_bytes};
  if (!WriteFrame(*side, FrameKind::kHello,
                  EncodeHello(kProtocolVersion, options_.client_name))
           .ok()) {
    return;
  }
  Result<Frame> hello = ReadFrame(*side, limits, kSideTimeoutMs);
  if (!hello.ok() || hello->kind != FrameKind::kHello) return;
  if (!WriteFrame(*side, FrameKind::kCancel, EncodeCancelRequest(query_id))
           .ok()) {
    return;
  }
  ReadFrame(*side, limits, kSideTimeoutMs);  // Drain the ack.
}

Result<Frame> Client::RoundTrip(FrameKind kind, std::string_view payload) {
  if (!sock_.valid()) return Status::IoError("client is not connected");
  uint64_t t0 = NowMicros();
  Result<size_t> sent = WriteFrame(sock_, kind, payload);
  if (!sent.ok()) {
    sock_.Close();
    return sent.status();
  }
  Result<Frame> response = AwaitResponse();
  if (response.ok()) {
    // A completed exchange (even one carrying an Error/Busy frame) is a
    // measured round trip; transport failures are not.
    ClientMetrics::Get().rtt_us->Observe(NowMicros() - t0);
  }
  if (!response.ok()) {
    // Framing is connection state; after any read failure the stream
    // position is unknown, so the connection is done.
    sock_.Close();
    return response.status();
  }
  if (response->kind == FrameKind::kError) {
    Result<ErrorNotice> notice = DecodeErrorNotice(response->payload);
    if (!notice.ok()) return notice.status();
    // A v4 deadline-kill carries the same retry-after hint a Busy frame
    // does; let it floor the backoff the same way.
    if (notice->retry_after_ms > 0) busy_hint_ms_ = notice->retry_after_ms;
    return notice->status;
  }
  if (response->kind == FrameKind::kBusy) {
    // The server shed this connection and is about to close it.
    sock_.Close();
    ClientMetrics::Get().busy->Inc();
    Result<BusyNotice> notice = DecodeBusy(response->payload);
    if (!notice.ok()) return notice.status();
    busy_hint_ms_ = notice->retry_after_ms;
    return Status::Unavailable(
        notice->message + " (retry after " +
        std::to_string(notice->retry_after_ms) + "ms)");
  }
  return response;
}

Result<Frame> Client::RetryingRoundTrip(FrameKind kind,
                                        std::string_view payload) {
  Result<Frame> response = RoundTrip(kind, payload);
  for (int attempt = 0;
       !response.ok() && IsRetriable(response.status()) &&
       attempt < options_.max_retries;
       ++attempt) {
    BackoffSleep(attempt);
    ClientMetrics::Get().retries->Inc();
    if (!sock_.valid()) {
      Status reconnected = Reconnect();
      if (!reconnected.ok()) {
        // The failed reconnect consumed this attempt.
        response = reconnected;
        continue;
      }
      ClientMetrics::Get().reconnects->Inc();
    }
    response = RoundTrip(kind, payload);
  }
  return response;
}

Result<std::vector<Relation>> Client::DecodeResults(const Frame& response) {
  last_query_stats_.reset();
  if (response.kind != FrameKind::kResultSet) {
    return Status::Corruption("query answered with " +
                              std::string(FrameKindName(response.kind)));
  }
  return DecodeResultSetWithStats(response.payload, &last_query_stats_);
}

Result<Relation> Client::Query(std::string_view rel_expr_source) {
  // Mint the id client-side so the caller can correlate this query with
  // server-side traces before the response even arrives.  A retry resends
  // the same payload, so the id stays stable across attempts.
  last_query_id_ = obs::NextQueryId();
  MRA_ASSIGN_OR_RETURN(
      Frame response,
      RetryingRoundTrip(FrameKind::kQuery,
                        EncodeQueryRequest(last_query_id_, rel_expr_source)));
  MRA_ASSIGN_OR_RETURN(std::vector<Relation> relations,
                       DecodeResults(response));
  if (relations.size() != 1) {
    return Status::Corruption("Query expects exactly one relation, got " +
                              std::to_string(relations.size()));
  }
  return std::move(relations[0]);
}

Result<std::vector<Relation>> Client::ExecuteScript(std::string_view source) {
  last_query_id_ = obs::NextQueryId();
  MRA_ASSIGN_OR_RETURN(
      Frame response,
      RoundTrip(FrameKind::kScript,
                EncodeQueryRequest(last_query_id_, source)));
  return DecodeResults(response);
}

Result<std::string> Client::ServerStats(std::string_view format) {
  MRA_ASSIGN_OR_RETURN(Frame response,
                       RetryingRoundTrip(FrameKind::kStats, format));
  if (response.kind != FrameKind::kStats) {
    return Status::Corruption("Stats answered with " +
                              std::string(FrameKindName(response.kind)));
  }
  return std::move(response.payload);
}

Result<ServerStatsReply> Client::FetchServerStats(uint64_t query_id) {
  MRA_ASSIGN_OR_RETURN(
      Frame response,
      RetryingRoundTrip(FrameKind::kServerStats,
                        EncodeServerStatsRequest(query_id)));
  if (response.kind != FrameKind::kServerStats) {
    return Status::Corruption("ServerStats answered with " +
                              std::string(FrameKindName(response.kind)));
  }
  return DecodeServerStatsReply(response.payload);
}

Result<bool> Client::Cancel(uint64_t query_id) {
  if (query_id == 0) {
    return Status::InvalidArgument("query id 0 is never in flight");
  }
  MRA_ASSIGN_OR_RETURN(
      Frame response,
      RoundTrip(FrameKind::kCancel, EncodeCancelRequest(query_id)));
  if (response.kind != FrameKind::kCancel) {
    return Status::Corruption("Cancel answered with " +
                              std::string(FrameKindName(response.kind)));
  }
  return DecodeCancelReply(response.payload);
}

Status Client::Ping() {
  constexpr std::string_view kProbe = "mra-ping";
  Result<Frame> response = RetryingRoundTrip(FrameKind::kPing, kProbe);
  MRA_RETURN_IF_ERROR(response.status());
  if (response->kind != FrameKind::kPing || response->payload != kProbe) {
    return Status::Corruption("Ping echo mismatch");
  }
  return Status::OK();
}

Status Client::RequestShutdown() {
  Result<Frame> response = RoundTrip(FrameKind::kShutdown, {});
  MRA_RETURN_IF_ERROR(response.status());
  if (response->kind != FrameKind::kShutdown) {
    return Status::Corruption("Shutdown answered with " +
                              std::string(FrameKindName(response->kind)));
  }
  sock_.Close();  // The server closes its side after the ack.
  return Status::OK();
}

Result<std::pair<std::string, uint16_t>> ParseHostPort(std::string_view spec) {
  size_t colon;
  std::string host;
  if (!spec.empty() && spec.front() == '[') {
    // Bracketed IPv6 literal: [::1]:7411.
    size_t close = spec.find(']');
    if (close == std::string_view::npos || close + 1 >= spec.size() ||
        spec[close + 1] != ':') {
      return Status::InvalidArgument("expected [v6-address]:port, got \"" +
                                     std::string(spec) + "\"");
    }
    host = std::string(spec.substr(1, close - 1));
    colon = close + 1;
  } else {
    colon = spec.rfind(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("expected host:port, got \"" +
                                     std::string(spec) + "\"");
    }
    host = std::string(spec.substr(0, colon));
  }
  std::string_view port_str = spec.substr(colon + 1);
  if (host.empty() || port_str.empty()) {
    return Status::InvalidArgument("expected host:port, got \"" +
                                   std::string(spec) + "\"");
  }
  uint32_t port = 0;
  for (char c : port_str) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad port in \"" + std::string(spec) +
                                     "\"");
    }
    port = port * 10 + static_cast<uint32_t>(c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("port out of range in \"" +
                                     std::string(spec) + "\"");
    }
  }
  if (port == 0) {
    return Status::InvalidArgument("port must be nonzero in \"" +
                                   std::string(spec) + "\"");
  }
  return std::make_pair(std::move(host), static_cast<uint16_t>(port));
}

}  // namespace net
}  // namespace mra
