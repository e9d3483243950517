#include "mra/net/protocol.h"

#include <algorithm>
#include <utility>

#include "mra/net/socket.h"
#include "mra/storage/serializer.h"

namespace mra {
namespace net {

namespace {

// Sanity bound on ResultSet cardinality: a response cannot carry more
// relations than one byte per relation would allow, so a corrupt count is
// refused before the decode loop spins.
constexpr uint32_t kMaxRelationsPerResultSet = 1u << 20;

}  // namespace

std::string_view FrameKindName(FrameKind kind) {
  switch (kind) {
    case FrameKind::kHello:
      return "Hello";
    case FrameKind::kQuery:
      return "Query";
    case FrameKind::kScript:
      return "Script";
    case FrameKind::kResultSet:
      return "ResultSet";
    case FrameKind::kError:
      return "Error";
    case FrameKind::kStats:
      return "Stats";
    case FrameKind::kPing:
      return "Ping";
    case FrameKind::kShutdown:
      return "Shutdown";
    case FrameKind::kBusy:
      return "Busy";
    case FrameKind::kServerStats:
      return "ServerStats";
    case FrameKind::kCancel:
      return "Cancel";
  }
  return "?";
}

bool IsValidFrameKind(uint8_t kind) {
  return kind >= static_cast<uint8_t>(FrameKind::kHello) &&
         kind <= static_cast<uint8_t>(FrameKind::kCancel);
}

std::string EncodeFrame(FrameKind kind, std::string_view payload) {
  // CRC covers the kind byte and the payload, so a frame whose kind byte
  // was flipped in flight fails the check even though the length is fine.
  storage::Encoder crc_input;
  crc_input.PutU8(static_cast<uint8_t>(kind));
  std::string crc_buffer = crc_input.TakeBuffer();
  crc_buffer.append(payload.data(), payload.size());
  uint32_t crc = storage::Crc32(crc_buffer);

  storage::Encoder enc;
  enc.PutU32(kMagic);
  enc.PutU8(static_cast<uint8_t>(kind));
  enc.PutU32(static_cast<uint32_t>(payload.size()));
  enc.PutU32(crc);
  std::string out = enc.TakeBuffer();
  out.append(payload.data(), payload.size());
  return out;
}

Result<FrameHeader> ParseFrameHeader(std::string_view header,
                                     const WireLimits& limits) {
  if (header.size() != kFrameHeaderBytes) {
    return Status::Corruption("frame header must be " +
                              std::to_string(kFrameHeaderBytes) + " bytes");
  }
  storage::Decoder dec(header);
  MRA_ASSIGN_OR_RETURN(uint32_t magic, dec.GetU32());
  if (magic != kMagic) {
    return Status::Corruption("bad frame magic (not an mra peer?)");
  }
  MRA_ASSIGN_OR_RETURN(uint8_t kind, dec.GetU8());
  if (!IsValidFrameKind(kind)) {
    return Status::Corruption("unknown frame kind " + std::to_string(kind));
  }
  FrameHeader out;
  out.kind = static_cast<FrameKind>(kind);
  MRA_ASSIGN_OR_RETURN(out.payload_len, dec.GetU32());
  MRA_ASSIGN_OR_RETURN(out.crc, dec.GetU32());
  if (out.payload_len > limits.max_frame_bytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(out.payload_len) +
        " bytes exceeds the " + std::to_string(limits.max_frame_bytes) +
        "-byte limit");
  }
  return out;
}

Status CheckFramePayload(const FrameHeader& header, std::string_view payload) {
  if (payload.size() != header.payload_len) {
    return Status::Corruption("frame payload length mismatch");
  }
  storage::Encoder crc_input;
  crc_input.PutU8(static_cast<uint8_t>(header.kind));
  std::string crc_buffer = crc_input.TakeBuffer();
  crc_buffer.append(payload.data(), payload.size());
  if (storage::Crc32(crc_buffer) != header.crc) {
    return Status::Corruption("frame CRC mismatch");
  }
  return Status::OK();
}

Result<Frame> DecodeFrame(std::string_view data, const WireLimits& limits) {
  if (data.size() < kFrameHeaderBytes) {
    return Status::Corruption("truncated frame header");
  }
  MRA_ASSIGN_OR_RETURN(
      FrameHeader header,
      ParseFrameHeader(data.substr(0, kFrameHeaderBytes), limits));
  std::string_view payload = data.substr(kFrameHeaderBytes);
  if (payload.size() < header.payload_len) {
    return Status::Corruption("truncated frame payload");
  }
  if (payload.size() > header.payload_len) {
    return Status::Corruption("trailing bytes after frame payload");
  }
  MRA_RETURN_IF_ERROR(CheckFramePayload(header, payload));
  return Frame{header.kind, std::string(payload)};
}

Result<size_t> WriteFrame(Socket& sock, FrameKind kind,
                          std::string_view payload) {
  std::string wire = EncodeFrame(kind, payload);
  MRA_RETURN_IF_ERROR(sock.SendAll(wire));
  return wire.size();
}

Result<Frame> ReadFrame(Socket& sock, const WireLimits& limits,
                        int timeout_ms) {
  MRA_ASSIGN_OR_RETURN(std::string header_bytes,
                       sock.RecvExact(kFrameHeaderBytes, timeout_ms));
  MRA_ASSIGN_OR_RETURN(FrameHeader header,
                       ParseFrameHeader(header_bytes, limits));
  std::string payload;
  if (header.payload_len > 0) {
    MRA_ASSIGN_OR_RETURN(payload,
                         sock.RecvExact(header.payload_len, timeout_ms));
  }
  MRA_RETURN_IF_ERROR(CheckFramePayload(header, payload));
  return Frame{header.kind, std::move(payload)};
}

std::string EncodeHello(uint32_t version, std::string_view peer) {
  storage::Encoder enc;
  enc.PutU32(version);
  enc.PutString(peer);
  return enc.TakeBuffer();
}

Result<Hello> DecodeHello(std::string_view payload) {
  storage::Decoder dec(payload);
  Hello out;
  MRA_ASSIGN_OR_RETURN(out.version, dec.GetU32());
  MRA_ASSIGN_OR_RETURN(out.peer, dec.GetString());
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes in Hello payload");
  }
  return out;
}

std::string EncodeError(const Status& status) {
  storage::Encoder enc;
  enc.PutU8(static_cast<uint8_t>(status.code()));
  enc.PutString(status.message());
  return enc.TakeBuffer();
}

std::string EncodeErrorWithHint(const Status& status,
                                uint32_t retry_after_ms) {
  if (retry_after_ms == 0) return EncodeError(status);
  storage::Encoder enc;
  enc.PutU8(static_cast<uint8_t>(status.code()));
  enc.PutString(status.message());
  enc.PutU32(retry_after_ms);
  return enc.TakeBuffer();
}

Result<ErrorNotice> DecodeErrorNotice(std::string_view payload) {
  storage::Decoder dec(payload);
  Result<uint8_t> code = dec.GetU8();
  if (!code.ok()) return code.status();
  Result<std::string> message = dec.GetString();
  if (!message.ok()) return message.status();
  ErrorNotice notice;
  if (!dec.AtEnd()) {
    // The optional v4 retry-after hint is exactly one trailing u32;
    // anything else trailing is still malformed.
    Result<uint32_t> hint = dec.GetU32();
    if (!hint.ok() || !dec.AtEnd()) {
      return Status::Corruption("malformed Error payload");
    }
    notice.retry_after_ms = *hint;
  }
  if (*code == 0 ||
      *code > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
    return Status::Corruption("malformed Error payload");
  }
  notice.status = Status(static_cast<StatusCode>(*code), *std::move(message));
  return notice;
}

Status DecodeError(std::string_view payload) {
  Result<ErrorNotice> notice = DecodeErrorNotice(payload);
  if (!notice.ok()) return notice.status();
  return notice->status;
}

std::string EncodeCancelRequest(uint64_t query_id) {
  storage::Encoder enc;
  enc.PutU64(query_id);
  return enc.TakeBuffer();
}

Result<uint64_t> DecodeCancelRequest(std::string_view payload) {
  storage::Decoder dec(payload);
  Result<uint64_t> query_id = dec.GetU64();
  if (!query_id.ok() || !dec.AtEnd() || *query_id == 0) {
    return Status::Corruption("malformed Cancel payload");
  }
  return *query_id;
}

std::string EncodeCancelReply(bool delivered) {
  storage::Encoder enc;
  enc.PutU8(delivered ? 1 : 0);
  return enc.TakeBuffer();
}

Result<bool> DecodeCancelReply(std::string_view payload) {
  storage::Decoder dec(payload);
  Result<uint8_t> delivered = dec.GetU8();
  if (!delivered.ok() || !dec.AtEnd() || *delivered > 1) {
    return Status::Corruption("malformed Cancel reply");
  }
  return *delivered == 1;
}

namespace {

void EncodeRelations(storage::Encoder& enc,
                     const std::vector<Relation>& relations) {
  enc.PutU32(static_cast<uint32_t>(relations.size()));
  for (const Relation& r : relations) {
    enc.PutSchema(r.schema());
    // Chunked row encoding (protocol v2): the sorted entries stream out in
    // batches of kResultSetChunkRows, each prefixed with its row count, so
    // a streaming server can flush per executor RowBatch without knowing
    // the total cardinality up front.  The canonical order keeps the bytes
    // deterministic for a given relation.
    const std::vector<const Relation::Entry*> entries = r.SortedView();
    for (size_t begin = 0; begin < entries.size();
         begin += kResultSetChunkRows) {
      size_t end = std::min<size_t>(begin + kResultSetChunkRows,
                                    entries.size());
      enc.PutU32(static_cast<uint32_t>(end - begin));
      for (size_t j = begin; j < end; ++j) {
        enc.PutTuple(entries[j]->first);
        enc.PutU64(entries[j]->second);
      }
    }
    enc.PutU32(0);  // end-of-relation terminator
  }
}

Result<std::vector<Relation>> DecodeRelations(storage::Decoder& dec) {
  // A relation costs at least an empty schema and its terminator.
  MRA_ASSIGN_OR_RETURN(uint32_t n, dec.GetCount(12));
  if (n > kMaxRelationsPerResultSet) {
    return Status::Corruption("implausible ResultSet cardinality");
  }
  std::vector<Relation> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    MRA_ASSIGN_OR_RETURN(RelationSchema schema, dec.GetSchema());
    Relation r(std::move(schema));
    while (true) {
      MRA_ASSIGN_OR_RETURN(uint32_t k, dec.GetU32());
      if (k == 0) break;
      // A corrupt, huge k fails fast at the first short GetTuple — every
      // row costs at least one byte, so no allocation happens up front.
      for (uint32_t j = 0; j < k; ++j) {
        MRA_ASSIGN_OR_RETURN(Tuple t, dec.GetTuple());
        MRA_ASSIGN_OR_RETURN(uint64_t count, dec.GetU64());
        if (count == 0) {
          return Status::Corruption("zero multiplicity in ResultSet chunk");
        }
        MRA_RETURN_IF_ERROR(r.Insert(std::move(t), count));
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

void EncodeWireQueryStats(storage::Encoder& enc, const WireQueryStats& s) {
  enc.PutU64(s.query_id);
  enc.PutU64(s.result_rows);
  enc.PutU64(s.total_us);
  enc.PutU64(s.bind_us);
  enc.PutU64(s.optimize_us);
  enc.PutU64(s.lower_us);
  enc.PutU64(s.exec_us);
  enc.PutU32(static_cast<uint32_t>(s.operators.size()));
  for (const WireOpStats& op : s.operators) {
    enc.PutString(op.name);
    enc.PutU32(op.depth);
    enc.PutDouble(op.estimated_rows);
    enc.PutU64(op.rows_emitted);
    enc.PutU64(op.batches_emitted);
    enc.PutU64(op.weighted_rows);
    enc.PutU64(op.distinct_rows);
    enc.PutU64(op.peak_hash_entries);
    enc.PutU64(op.build_rows);
    enc.PutU64(op.probe_rows);
    enc.PutU64(op.hash_bytes);
    enc.PutU64(op.time_ns);
  }
}

// A plan deeper than this is not a plan, it is an attack.
constexpr uint32_t kMaxWireOperators = 1u << 16;

Result<WireQueryStats> DecodeWireQueryStats(storage::Decoder& dec) {
  WireQueryStats s;
  MRA_ASSIGN_OR_RETURN(s.query_id, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(s.result_rows, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(s.total_us, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(s.bind_us, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(s.optimize_us, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(s.lower_us, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(s.exec_us, dec.GetU64());
  // Name length, depth and ten 8-byte fields per operator.
  MRA_ASSIGN_OR_RETURN(uint32_t n, dec.GetCount(88));
  if (n > kMaxWireOperators) {
    return Status::Corruption("implausible operator count in stats trailer");
  }
  s.operators.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    WireOpStats op;
    MRA_ASSIGN_OR_RETURN(op.name, dec.GetString());
    MRA_ASSIGN_OR_RETURN(op.depth, dec.GetU32());
    MRA_ASSIGN_OR_RETURN(op.estimated_rows, dec.GetDouble());
    MRA_ASSIGN_OR_RETURN(op.rows_emitted, dec.GetU64());
    MRA_ASSIGN_OR_RETURN(op.batches_emitted, dec.GetU64());
    MRA_ASSIGN_OR_RETURN(op.weighted_rows, dec.GetU64());
    MRA_ASSIGN_OR_RETURN(op.distinct_rows, dec.GetU64());
    MRA_ASSIGN_OR_RETURN(op.peak_hash_entries, dec.GetU64());
    MRA_ASSIGN_OR_RETURN(op.build_rows, dec.GetU64());
    MRA_ASSIGN_OR_RETURN(op.probe_rows, dec.GetU64());
    MRA_ASSIGN_OR_RETURN(op.hash_bytes, dec.GetU64());
    MRA_ASSIGN_OR_RETURN(op.time_ns, dec.GetU64());
    s.operators.push_back(std::move(op));
  }
  return s;
}

}  // namespace

std::string EncodeResultSet(const std::vector<Relation>& relations) {
  storage::Encoder enc;
  EncodeRelations(enc, relations);
  return enc.TakeBuffer();
}

Result<std::vector<Relation>> DecodeResultSet(std::string_view payload) {
  storage::Decoder dec(payload);
  MRA_ASSIGN_OR_RETURN(std::vector<Relation> out, DecodeRelations(dec));
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes in ResultSet payload");
  }
  return out;
}

std::string EncodeQueryRequest(uint64_t query_id, std::string_view text) {
  storage::Encoder enc;
  enc.PutU64(query_id);
  enc.PutString(text);
  return enc.TakeBuffer();
}

Result<QueryRequest> DecodeQueryRequest(std::string_view payload) {
  storage::Decoder dec(payload);
  QueryRequest out;
  MRA_ASSIGN_OR_RETURN(out.query_id, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(out.text, dec.GetString());
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes in QueryRequest payload");
  }
  return out;
}

std::string EncodeResultSetWithStats(const std::vector<Relation>& relations,
                                     const WireQueryStats* stats) {
  storage::Encoder enc;
  EncodeRelations(enc, relations);
  enc.PutU8(stats != nullptr ? 1 : 0);
  if (stats != nullptr) EncodeWireQueryStats(enc, *stats);
  return enc.TakeBuffer();
}

Result<std::vector<Relation>> DecodeResultSetWithStats(
    std::string_view payload, std::optional<WireQueryStats>* stats_out) {
  storage::Decoder dec(payload);
  MRA_ASSIGN_OR_RETURN(std::vector<Relation> out, DecodeRelations(dec));
  if (stats_out != nullptr) stats_out->reset();
  MRA_ASSIGN_OR_RETURN(uint8_t has_stats, dec.GetU8());
  if (has_stats > 1) {
    return Status::Corruption("malformed ResultSet stats flag");
  }
  if (has_stats == 1) {
    MRA_ASSIGN_OR_RETURN(WireQueryStats stats, DecodeWireQueryStats(dec));
    if (stats_out != nullptr) *stats_out = std::move(stats);
  }
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes in ResultSet payload");
  }
  return out;
}

std::string EncodeServerStatsRequest(uint64_t query_id) {
  storage::Encoder enc;
  enc.PutU64(query_id);
  return enc.TakeBuffer();
}

Result<uint64_t> DecodeServerStatsRequest(std::string_view payload) {
  storage::Decoder dec(payload);
  MRA_ASSIGN_OR_RETURN(uint64_t query_id, dec.GetU64());
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes in ServerStats request");
  }
  return query_id;
}

std::string EncodeServerStatsReply(const ServerStatsReply& reply) {
  storage::Encoder enc;
  enc.PutU64(reply.uptime_us);
  enc.PutU64(reply.sessions_served);
  enc.PutU32(reply.active_sessions);
  enc.PutU64(reply.queries);
  enc.PutU64(reply.sheds);
  enc.PutU64(reply.slow_logged);
  enc.PutU64(reply.query_latency.count);
  enc.PutU64(reply.query_latency.sum_micros);
  enc.PutU64(reply.query_latency.max_micros);
  // Histogram buckets travel sparsely: (u32 index, u64 count) pairs.
  uint32_t nonzero = 0;
  for (uint64_t b : reply.query_latency.buckets) {
    if (b != 0) ++nonzero;
  }
  enc.PutU32(nonzero);
  for (size_t i = 0; i < reply.query_latency.buckets.size(); ++i) {
    if (reply.query_latency.buckets[i] == 0) continue;
    enc.PutU32(static_cast<uint32_t>(i));
    enc.PutU64(reply.query_latency.buckets[i]);
  }
  enc.PutU32(static_cast<uint32_t>(reply.sessions.size()));
  for (const ServerSessionInfo& s : reply.sessions) {
    enc.PutU64(s.id);
    enc.PutString(s.peer);
    enc.PutString(s.current_query);
    enc.PutU8(s.busy ? 1 : 0);
    enc.PutU64(s.queries);
    enc.PutU64(s.last_latency_us);
    enc.PutU64(s.idle_ms);
  }
  enc.PutU32(static_cast<uint32_t>(reply.slow_log.size()));
  for (const std::string& line : reply.slow_log) enc.PutString(line);
  enc.PutString(reply.trace);
  return enc.TakeBuffer();
}

Result<ServerStatsReply> DecodeServerStatsReply(std::string_view payload) {
  // Sanity bounds: a reply lists live sessions (bounded by the server's
  // session cap) and a fixed-capacity slow-log ring; anything far past
  // those is a corrupt count.
  constexpr uint32_t kMaxSessions = 1u << 16;
  constexpr uint32_t kMaxSlowLogLines = 1u << 16;
  storage::Decoder dec(payload);
  ServerStatsReply out;
  MRA_ASSIGN_OR_RETURN(out.uptime_us, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(out.sessions_served, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(out.active_sessions, dec.GetU32());
  MRA_ASSIGN_OR_RETURN(out.queries, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(out.sheds, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(out.slow_logged, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(out.query_latency.count, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(out.query_latency.sum_micros, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(out.query_latency.max_micros, dec.GetU64());
  MRA_ASSIGN_OR_RETURN(uint32_t nonzero, dec.GetU32());
  if (nonzero > obs::Histogram::kNumBuckets) {
    return Status::Corruption("implausible histogram bucket count");
  }
  out.query_latency.buckets.assign(obs::Histogram::kNumBuckets, 0);
  for (uint32_t i = 0; i < nonzero; ++i) {
    MRA_ASSIGN_OR_RETURN(uint32_t index, dec.GetU32());
    MRA_ASSIGN_OR_RETURN(uint64_t count, dec.GetU64());
    if (index >= obs::Histogram::kNumBuckets) {
      return Status::Corruption("histogram bucket index out of range");
    }
    out.query_latency.buckets[index] = count;
  }
  // Id, two string lengths, the busy flag and three 8-byte fields.
  MRA_ASSIGN_OR_RETURN(uint32_t n_sessions, dec.GetCount(41));
  if (n_sessions > kMaxSessions) {
    return Status::Corruption("implausible session count");
  }
  out.sessions.reserve(n_sessions);
  for (uint32_t i = 0; i < n_sessions; ++i) {
    ServerSessionInfo s;
    MRA_ASSIGN_OR_RETURN(s.id, dec.GetU64());
    MRA_ASSIGN_OR_RETURN(s.peer, dec.GetString());
    MRA_ASSIGN_OR_RETURN(s.current_query, dec.GetString());
    MRA_ASSIGN_OR_RETURN(uint8_t busy, dec.GetU8());
    if (busy > 1) return Status::Corruption("malformed session busy flag");
    s.busy = busy == 1;
    MRA_ASSIGN_OR_RETURN(s.queries, dec.GetU64());
    MRA_ASSIGN_OR_RETURN(s.last_latency_us, dec.GetU64());
    MRA_ASSIGN_OR_RETURN(s.idle_ms, dec.GetU64());
    out.sessions.push_back(std::move(s));
  }
  MRA_ASSIGN_OR_RETURN(uint32_t n_lines, dec.GetCount(4));
  if (n_lines > kMaxSlowLogLines) {
    return Status::Corruption("implausible slow-log line count");
  }
  out.slow_log.reserve(n_lines);
  for (uint32_t i = 0; i < n_lines; ++i) {
    MRA_ASSIGN_OR_RETURN(std::string line, dec.GetString());
    out.slow_log.push_back(std::move(line));
  }
  MRA_ASSIGN_OR_RETURN(out.trace, dec.GetString());
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes in ServerStats reply");
  }
  return out;
}

std::string EncodeBusy(uint32_t retry_after_ms, std::string_view message) {
  storage::Encoder enc;
  enc.PutU32(retry_after_ms);
  enc.PutString(message);
  return enc.TakeBuffer();
}

Result<BusyNotice> DecodeBusy(std::string_view payload) {
  storage::Decoder dec(payload);
  BusyNotice out;
  MRA_ASSIGN_OR_RETURN(out.retry_after_ms, dec.GetU32());
  MRA_ASSIGN_OR_RETURN(out.message, dec.GetString());
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes in Busy payload");
  }
  return out;
}

}  // namespace net
}  // namespace mra
