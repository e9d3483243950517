// The mra wire protocol: CRC-framed, length-prefixed binary frames that
// carry XRA text toward the server and serialized relations back, reusing
// the storage layer's Encoder/Decoder (and PutRelation/GetRelation) so the
// network format is byte-compatible with the WAL/checkpoint encoding.
//
// Frame layout (all integers little-endian):
//
//   [u32 magic "MRA1"][u8 kind][u32 payload_len][u32 crc][payload bytes]
//
// where crc = Crc32(kind byte ++ payload).  The 13-byte header is fixed, so
// a reader pulls the header, validates magic/kind/length against its
// limits, then pulls exactly payload_len bytes and checks the CRC.
//
// Frame kinds and payloads (client → server unless noted):
//
//   Hello      u32 protocol_version, string peer_name.  First frame in each
//              direction; the server answers with its own Hello when the
//              client speaks kProtocolVersion, or an Error carrying
//              Unavailable otherwise (the server names both versions so an
//              old client's operator knows what to upgrade).
//   Query      u64 query_id, then a string, one XRA relation expression —
//              the id the client minted, bound server-side for the whole
//              evaluation so traces, operator stats and slow-log entries
//              attribute to it.  Answered with a ResultSet of exactly one
//              relation, or Error.
//   Script     Same payload shape as Query (id + text) carrying a whole
//              XRA script.  Answered with a ResultSet
//              holding every `? E` result, or Error (the failing bracket
//              rolled back server-side).
//   ResultSet  (server) u32 n, then n relations, each encoded batch-wise:
//              the schema (storage::PutSchema) followed by row chunks
//              [u32 k > 0, then k × (tuple, u64 count)] and a final u32 0
//              terminator.  The server fills each chunk straight from one
//              executor RowBatch, so the wire format mirrors the engine's
//              batch-at-a-time execution (see docs/EXECUTION.md).  The
//              relations are followed by u8 has_stats and, when 1, the
//              obs::QueryStats trailer — the server-side per-query record
//              (per-phase latencies and the per-operator metrics tree) that
//              RemoteSession::last_query_stats() surfaces client-side.
//   Error      (server) u8 StatusCode, string message.  A governed
//              deadline kill (kDeadlineExceeded) appends a u32 retry-after
//              hint — the same backoff floor a Busy frame carries — so
//              clients treat "killed for running too long under load" and
//              "shed at admission" uniformly.  Decoders accept the hint
//              from any peer and ignore it when absent.
//   Stats      empty request; the server answers with a Stats frame whose
//              payload is the metrics registry's JSON export.  An optional
//              string payload selects the export: "" or "json" (default),
//              "prom" (Prometheus text exposition), "text".
//   Ping       arbitrary payload; echoed back verbatim in a Ping frame.
//   Shutdown   empty.  The server acks with a Shutdown frame, then drains:
//              stops accepting, lets in-flight requests finish, closes.
//   Busy       (server) u32 retry_after_ms, string message.  Sent instead
//              of the server Hello when the server sheds load; the
//              connection is closed right after.  Clients surface it as
//              Unavailable and may reconnect after the hinted delay.
//   ServerStats u64 query_id request (0 = overview).  The server answers
//              with a ServerStats frame carrying a ServerStatsReply:
//              uptime, session registry (live sessions with their current
//              query), the query-latency histogram, shed/slow-query
//              counters, the slow-query log's JSON lines, and the trace
//              spans (filtered to query_id when nonzero).  Powers `\top`,
//              `\slowlog` and `\trace <id>` in xra_repl --connect.
//   Cancel     u64 query_id.  Requests cooperative cancellation of the
//              named in-flight query — on any session of this server,
//              so a second connection can kill the first's runaway plan
//              (`\cancel <id>`, REPL Ctrl-C).  The server answers with a
//              Cancel frame carrying u8 delivered (1 when a running or
//              about-to-run query matched); the killed query's own session
//              sees its request answered with Error kCancelled.

#ifndef MRA_NET_PROTOCOL_H_
#define MRA_NET_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mra/common/result.h"
#include "mra/core/relation.h"
#include "mra/obs/metrics.h"
#include "mra/obs/op_metrics.h"

namespace mra {
namespace net {

class Socket;

constexpr uint32_t kMagic = 0x3141524du;  // "MRA1" when read little-endian.
/// The version this tree speaks; a Hello naming any other is refused.
constexpr uint32_t kProtocolVersion = 4;
/// Oldest client version the server serves.  Every client lives in this
/// tree and speaks the current version, so there is one dialect.
constexpr uint32_t kMinProtocolVersion = kProtocolVersion;
constexpr size_t kFrameHeaderBytes = 13;  // magic + kind + len + crc.

enum class FrameKind : uint8_t {
  kHello = 1,
  kQuery = 2,
  kScript = 3,
  kResultSet = 4,
  kError = 5,
  kStats = 6,
  kPing = 7,
  kShutdown = 8,
  kBusy = 9,
  kServerStats = 10,
  kCancel = 11,
};

/// Stable name for diagnostics, e.g. "Query".
std::string_view FrameKindName(FrameKind kind);

bool IsValidFrameKind(uint8_t kind);

struct Frame {
  FrameKind kind = FrameKind::kPing;
  std::string payload;
};

/// Per-connection wire limits; both sides enforce them on receive.
struct WireLimits {
  /// Upper bound on a frame's payload size.  A header announcing more is
  /// refused before any payload is read (anti-allocation-bomb).
  uint32_t max_frame_bytes = 16u << 20;
};

/// Renders a complete frame (header + payload) ready to send.
std::string EncodeFrame(FrameKind kind, std::string_view payload);

struct FrameHeader {
  FrameKind kind = FrameKind::kPing;
  uint32_t payload_len = 0;
  uint32_t crc = 0;
};

/// Parses and validates the fixed 13-byte header: magic, known kind, and
/// payload_len against `limits` (InvalidArgument when over the limit,
/// Corruption for malformed bytes).
Result<FrameHeader> ParseFrameHeader(std::string_view header,
                                     const WireLimits& limits);

/// Validates a received payload against its header's CRC.
Status CheckFramePayload(const FrameHeader& header, std::string_view payload);

/// One-shot decode of a complete frame image.  Refuses trailing bytes.
Result<Frame> DecodeFrame(std::string_view data, const WireLimits& limits);

// ---- blocking frame I/O over a Socket ----

/// Sends one frame; returns the bytes written on success.
Result<size_t> WriteFrame(Socket& sock, FrameKind kind,
                          std::string_view payload);

/// Receives one frame, enforcing `limits`; `timeout_ms` bounds each
/// underlying read (< 0 blocks indefinitely).
Result<Frame> ReadFrame(Socket& sock, const WireLimits& limits,
                        int timeout_ms);

// ---- payload builders / parsers ----

struct Hello {
  uint32_t version = 0;
  std::string peer;  // Client name or server banner.
};

std::string EncodeHello(uint32_t version, std::string_view peer);
Result<Hello> DecodeHello(std::string_view payload);

/// Error payload ⇄ Status (the status travels code + message).
std::string EncodeError(const Status& status);
/// Error payload with the retry-after hint appended (deadline kills);
/// `retry_after_ms` 0 encodes the plain hintless form.
std::string EncodeErrorWithHint(const Status& status, uint32_t retry_after_ms);
/// Returns the transported (non-OK) status; Corruption on a bad payload.
/// Accepts (and discards) the optional retry-after hint.
Status DecodeError(std::string_view payload);

/// A decoded Error plus its optional retry-after hint (0 when absent) —
/// what the client's backoff logic wants for deadline kills.
struct ErrorNotice {
  Status status;
  uint32_t retry_after_ms = 0;
};
Result<ErrorNotice> DecodeErrorNotice(std::string_view payload);

/// Cancel request payload: the client-minted id of the query to kill.
std::string EncodeCancelRequest(uint64_t query_id);
Result<uint64_t> DecodeCancelRequest(std::string_view payload);
/// Cancel reply payload: whether a matching query was found and tripped.
std::string EncodeCancelReply(bool delivered);
Result<bool> DecodeCancelReply(std::string_view payload);

/// Rows per ResultSet chunk.  Chunks are an encoding detail — any k > 0 per
/// chunk decodes identically — but the encoder emits at most this many rows
/// per chunk, matching the executor's default batch size.
constexpr uint32_t kResultSetChunkRows = 1024;

/// Query/Script request payload: the client-minted query id plus the XRA
/// text.
struct QueryRequest {
  uint64_t query_id = 0;
  std::string text;
};

std::string EncodeQueryRequest(uint64_t query_id, std::string_view text);
Result<QueryRequest> DecodeQueryRequest(std::string_view payload);

/// perfbench/src/serve_common.cc names the stats trailer by this name.
using WireQueryStats = obs::QueryStats;

/// ResultSet payload: the relations followed by u8 has_stats and, when
/// set, the stats trailer.  `stats == nullptr` encodes has_stats = 0;
/// DecodeResultSetWithStats then returns an empty optional in `stats_out`
/// (pass nullptr to skip the trailer entirely).  Each operator travels
/// with one time field, metrics.total_ns(); the decoder puts it in
/// next_ns, sets `timed` when it is non-zero, and marks the record valid.
std::string EncodeResultSetWithStats(const std::vector<Relation>& relations,
                                     const obs::QueryStats* stats);
Result<std::vector<Relation>> DecodeResultSetWithStats(
    std::string_view payload, std::optional<obs::QueryStats>* stats_out);

/// One live session in a ServerStats reply.
struct ServerSessionInfo {
  uint64_t id = 0;
  std::string peer;
  std::string current_query;  // Truncated text; empty when idle.
  bool busy = false;          // A request is executing right now.
  uint64_t queries = 0;       // Query/Script requests served.
  uint64_t last_latency_us = 0;
  uint64_t idle_ms = 0;       // Milliseconds since the last request.
};

/// ServerStats reply: the server's live-introspection snapshot.
struct ServerStatsReply {
  uint64_t uptime_us = 0;
  uint64_t sessions_served = 0;
  uint32_t active_sessions = 0;
  uint64_t queries = 0;      // exec.queries counter.
  uint64_t sheds = 0;        // net.sheds counter.
  uint64_t slow_logged = 0;  // SlowQueryLog::total_logged().
  /// Server-side exec.query_us distribution; mergeable client-side
  /// because both ends share obs::Histogram's bucket layout.
  obs::HistogramData query_latency;
  std::vector<ServerSessionInfo> sessions;
  std::vector<std::string> slow_log;  // JSON lines, oldest first.
  std::string trace;  // Rendered spans (query-filtered when requested).
};

std::string EncodeServerStatsRequest(uint64_t query_id);
Result<uint64_t> DecodeServerStatsRequest(std::string_view payload);

std::string EncodeServerStatsReply(const ServerStatsReply& reply);
Result<ServerStatsReply> DecodeServerStatsReply(std::string_view payload);

/// Busy payload: the server's load-shed notice with a retry-after hint.
struct BusyNotice {
  uint32_t retry_after_ms = 0;
  std::string message;
};

std::string EncodeBusy(uint32_t retry_after_ms, std::string_view message);
Result<BusyNotice> DecodeBusy(std::string_view payload);

}  // namespace net
}  // namespace mra

#endif  // MRA_NET_PROTOCOL_H_
