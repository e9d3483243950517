// Wire-protocol unit tests: frame encode/decode round trips, CRC and
// framing violations, size limits, and the payload codecs (Hello, Error,
// chunked ResultSet, v3 QueryRequest / stats trailer / ServerStats) on
// in-memory buffers — plus loopback handshake tests pinning the version
// contract: any version but the current one is refused naming both.

#include "mra/net/protocol.h"

#include <gtest/gtest.h>

#include "mra/lang/interpreter.h"
#include "mra/net/client.h"
#include "mra/net/server.h"
#include "mra/net/socket.h"
#include "mra/storage/serializer.h"

namespace mra {
namespace net {
namespace {

Relation SmallRelation() {
  Relation r(RelationSchema(
      "beer", {Attribute{"name", Type::String()},
               Attribute{"alcperc", Type::Real()}}));
  EXPECT_TRUE(r.Insert(Tuple({Value::Str("pils"), Value::Real(5.0)}), 2).ok());
  EXPECT_TRUE(
      r.Insert(Tuple({Value::Str("stout"), Value::Real(4.2)}), 1).ok());
  return r;
}

TEST(FrameCodec, RoundTripsEveryKind) {
  WireLimits limits;
  for (uint8_t k = 1; k <= 10; ++k) {
    FrameKind kind = static_cast<FrameKind>(k);
    std::string payload = "payload for " + std::string(FrameKindName(kind));
    std::string wire = EncodeFrame(kind, payload);
    auto frame = DecodeFrame(wire, limits);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->kind, kind);
    EXPECT_EQ(frame->payload, payload);
  }
}

TEST(FrameCodec, RoundTripsEmptyPayload) {
  std::string wire = EncodeFrame(FrameKind::kPing, "");
  EXPECT_EQ(wire.size(), kFrameHeaderBytes);
  auto frame = DecodeFrame(wire, WireLimits{});
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame->payload.empty());
}

TEST(FrameCodec, RejectsBadMagic) {
  std::string wire = EncodeFrame(FrameKind::kPing, "x");
  wire[0] ^= 0x5a;
  auto frame = DecodeFrame(wire, WireLimits{});
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
}

TEST(FrameCodec, RejectsUnknownKind) {
  std::string wire = EncodeFrame(FrameKind::kPing, "x");
  wire[4] = 99;
  auto frame = DecodeFrame(wire, WireLimits{});
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
}

TEST(FrameCodec, CrcCoversKindByte) {
  // Flipping the kind to another *valid* kind must still fail the CRC.
  std::string wire = EncodeFrame(FrameKind::kQuery, "? beer");
  wire[4] = static_cast<char>(FrameKind::kScript);
  auto frame = DecodeFrame(wire, WireLimits{});
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
}

TEST(FrameCodec, RejectsCorruptPayload) {
  std::string wire = EncodeFrame(FrameKind::kQuery, "? beer");
  wire.back() ^= 0x01;
  auto frame = DecodeFrame(wire, WireLimits{});
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
}

TEST(FrameCodec, RejectsEveryTruncation) {
  std::string wire = EncodeFrame(FrameKind::kScript, "insert(beer, {...});");
  for (size_t len = 0; len < wire.size(); ++len) {
    auto frame = DecodeFrame(std::string_view(wire).substr(0, len),
                             WireLimits{});
    EXPECT_FALSE(frame.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(FrameCodec, RejectsTrailingBytes) {
  std::string wire = EncodeFrame(FrameKind::kPing, "x");
  wire += "junk";
  EXPECT_FALSE(DecodeFrame(wire, WireLimits{}).ok());
}

TEST(FrameCodec, EnforcesFrameSizeLimit) {
  WireLimits tight;
  tight.max_frame_bytes = 16;
  std::string wire =
      EncodeFrame(FrameKind::kScript, std::string(1000, 'x'));
  auto frame = DecodeFrame(wire, tight);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  // The same frame passes under the default limit.
  EXPECT_TRUE(DecodeFrame(wire, WireLimits{}).ok());
}

TEST(FrameCodec, HeaderAloneIsValidatedBeforePayload) {
  // An adversarial header announcing 4GiB must be refused from the header
  // bytes alone — no payload allocation.
  std::string wire = EncodeFrame(FrameKind::kQuery, "q");
  storage::Encoder enc;
  enc.PutU32(0xffffff00u);
  std::string len_bytes = enc.TakeBuffer();
  wire.replace(5, 4, len_bytes);  // Overwrite payload_len in the header.
  auto header = ParseFrameHeader(
      std::string_view(wire).substr(0, kFrameHeaderBytes), WireLimits{});
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
}

TEST(HelloCodec, RoundTrips) {
  std::string payload = EncodeHello(kProtocolVersion, "xra_repl");
  auto hello = DecodeHello(payload);
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->version, kProtocolVersion);
  EXPECT_EQ(hello->peer, "xra_repl");
  EXPECT_FALSE(DecodeHello(payload + "x").ok());
  EXPECT_FALSE(DecodeHello(payload.substr(0, 3)).ok());
}

TEST(ErrorCodec, TransportsStatusCodeAndMessage) {
  Status original = Status::ParseError("unexpected token ')' at line 3");
  Status decoded = DecodeError(EncodeError(original));
  EXPECT_EQ(decoded.code(), original.code());
  EXPECT_EQ(decoded.message(), original.message());
}

TEST(ErrorCodec, RefusesMalformedPayloads) {
  EXPECT_EQ(DecodeError("").code(), StatusCode::kCorruption);
  // A payload claiming StatusCode 0 (OK) is nonsense for an Error frame.
  storage::Encoder enc;
  enc.PutU8(0);
  enc.PutString("not an error");
  EXPECT_EQ(DecodeError(enc.buffer()).code(), StatusCode::kCorruption);
}

TEST(ResultSetCodec, RoundTripsRelations) {
  Relation beer = SmallRelation();
  Relation empty(RelationSchema("empty_rel", {Attribute{"a", Type::Int()}}));
  std::string payload = EncodeResultSetWithStats({beer, empty}, nullptr);
  auto decoded = DecodeResultSetWithStats(payload, nullptr);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0], beer);
  EXPECT_EQ((*decoded)[1], empty);
}

TEST(ResultSetCodec, RoundTripsZeroRelations) {
  auto decoded =
      DecodeResultSetWithStats(EncodeResultSetWithStats({}, nullptr), nullptr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(ResultSetCodec, RefusesGarbage) {
  EXPECT_FALSE(DecodeResultSetWithStats("garbage", nullptr).ok());
  std::string payload = EncodeResultSetWithStats({SmallRelation()}, nullptr);
  // Past the has_stats byte, the cut lands in the terminator.
  EXPECT_FALSE(
      DecodeResultSetWithStats(payload.substr(0, payload.size() - 2), nullptr)
          .ok());
  EXPECT_FALSE(DecodeResultSetWithStats(payload + "x", nullptr).ok());
}

TEST(ResultSetCodec, RoundTripsAcrossChunkBoundaries) {
  // Enough distinct rows for three chunks (two full, one partial) — the
  // decoder must reassemble them into one relation, multiplicities intact.
  Relation big(RelationSchema("nums", {Attribute{"n", Type::Int()}}));
  const uint64_t kRows = 2 * kResultSetChunkRows + 451;
  for (uint64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(
        big.Insert(Tuple({Value::Int(static_cast<int64_t>(i))}), i % 3 + 1)
            .ok());
  }
  auto decoded = DecodeResultSetWithStats(
      EncodeResultSetWithStats({big}, nullptr), nullptr);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0], big);
}

TEST(ResultSetCodec, ExactChunkMultipleRoundTrips) {
  // Edge case: the last chunk is exactly full, so only the 0-terminator
  // follows it.
  Relation big(RelationSchema("nums", {Attribute{"n", Type::Int()}}));
  for (uint64_t i = 0; i < kResultSetChunkRows; ++i) {
    ASSERT_TRUE(
        big.Insert(Tuple({Value::Int(static_cast<int64_t>(i))}), 1).ok());
  }
  auto decoded = DecodeResultSetWithStats(
      EncodeResultSetWithStats({big}, nullptr), nullptr);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)[0], big);
}

TEST(ResultSetCodec, RefusesZeroMultiplicityInChunk) {
  Relation beer = SmallRelation();
  storage::Encoder enc;
  enc.PutU32(1);
  enc.PutSchema(beer.schema());
  enc.PutU32(1);  // One-row chunk...
  enc.PutTuple(Tuple({Value::Str("pils"), Value::Real(5.0)}));
  enc.PutU64(0);  // ...carrying a nonsense multiplicity.
  enc.PutU32(0);
  enc.PutU8(0);  // No stats trailer.
  auto decoded = DecodeResultSetWithStats(enc.buffer(), nullptr);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ResultSetCodec, ImplausibleChunkCountFailsFast) {
  // A corrupt chunk header announcing 4 billion rows must fail at the
  // first missing tuple, not allocate or spin.
  Relation beer = SmallRelation();
  storage::Encoder enc;
  enc.PutU32(1);
  enc.PutSchema(beer.schema());
  enc.PutU32(0xfffffff0u);
  auto decoded = DecodeResultSetWithStats(enc.buffer(), nullptr);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ResultSetCodec, MissingTerminatorIsRefused) {
  // Strip the end-of-relation terminator (the u32 0 before the has_stats
  // byte): the decoder must report truncation instead of returning a
  // relation.
  std::string payload = EncodeResultSetWithStats({SmallRelation()}, nullptr);
  EXPECT_FALSE(
      DecodeResultSetWithStats(payload.substr(0, payload.size() - 5), nullptr)
          .ok());
}

TEST(QueryRequestCodec, RoundTripsIdAndText) {
  std::string payload = EncodeQueryRequest(0x1234'5678'9abcull, "? beer");
  auto req = DecodeQueryRequest(payload);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->query_id, 0x1234'5678'9abcull);
  EXPECT_EQ(req->text, "? beer");
  EXPECT_FALSE(DecodeQueryRequest(payload + "x").ok());
  EXPECT_FALSE(DecodeQueryRequest(payload.substr(0, 5)).ok());
  EXPECT_FALSE(DecodeQueryRequest("").ok());
}

obs::QueryStats SampleStats() {
  obs::QueryStats stats;
  stats.query_id = 42;
  stats.result_rows = 3;
  stats.total_us = 1200;
  stats.bind_us = 100;
  stats.optimize_us = 200;
  stats.lower_us = 300;
  stats.exec_us = 600;
  obs::QueryStats::OpStats select;
  select.name = "Select";
  select.depth = 0;
  select.estimated_rows = 2.5;
  select.metrics.rows_emitted = 3;
  select.metrics.batches_emitted = 1;
  select.metrics.weighted_rows = 4;
  select.metrics.open_ns = 456;  // The wire carries total_ns().
  select.metrics.next_ns = 123'000;
  obs::QueryStats::OpStats scan;
  scan.name = "Scan(beer)";
  scan.depth = 1;
  scan.metrics.rows_emitted = 2;
  scan.metrics.batches_emitted = 1;
  scan.metrics.weighted_rows = 3;
  scan.metrics.peak_hash_entries = 7;
  scan.metrics.hash_bytes = 512;
  stats.operators = {select, scan};
  return stats;
}

TEST(ResultSetCodec, StatsTrailerRoundTrips) {
  obs::QueryStats stats = SampleStats();
  std::string payload = EncodeResultSetWithStats({SmallRelation()}, &stats);
  std::optional<obs::QueryStats> decoded_stats;
  auto decoded = DecodeResultSetWithStats(payload, &decoded_stats);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)[0], SmallRelation());
  ASSERT_TRUE(decoded_stats.has_value());
  EXPECT_EQ(decoded_stats->query_id, 42u);
  EXPECT_EQ(decoded_stats->result_rows, 3u);
  EXPECT_EQ(decoded_stats->total_us, 1200u);
  EXPECT_EQ(decoded_stats->exec_us, 600u);
  ASSERT_EQ(decoded_stats->operators.size(), 2u);
  EXPECT_EQ(decoded_stats->operators[0].name, "Select");
  EXPECT_EQ(decoded_stats->operators[0].estimated_rows, 2.5);
  EXPECT_TRUE(decoded_stats->valid);
  // The one time field lands in next_ns; `timed` marks a measured one.
  EXPECT_EQ(decoded_stats->operators[0].metrics.next_ns, 123'456u);
  EXPECT_EQ(decoded_stats->operators[0].metrics.total_ns(), 123'456u);
  EXPECT_TRUE(decoded_stats->operators[0].metrics.timed);
  EXPECT_FALSE(decoded_stats->operators[1].metrics.timed);
  EXPECT_EQ(decoded_stats->operators[1].depth, 1u);
  EXPECT_EQ(decoded_stats->operators[1].metrics.peak_hash_entries, 7u);
}

TEST(ResultSetCodec, MissingTrailerDecodesToEmptyOptional) {
  std::string payload =
      EncodeResultSetWithStats({SmallRelation()}, /*stats=*/nullptr);
  std::optional<obs::QueryStats> decoded_stats;
  auto decoded = DecodeResultSetWithStats(payload, &decoded_stats);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded_stats.has_value());
  // A caller that does not care about the trailer may pass nullptr.
  EXPECT_TRUE(DecodeResultSetWithStats(payload, nullptr).ok());
}

TEST(ResultSetCodec, StatsTrailerRefusesGarbage) {
  obs::QueryStats stats = SampleStats();
  std::string payload = EncodeResultSetWithStats({SmallRelation()}, &stats);
  EXPECT_FALSE(
      DecodeResultSetWithStats(payload.substr(0, payload.size() - 1), nullptr)
          .ok());
  EXPECT_FALSE(DecodeResultSetWithStats(payload + "x", nullptr).ok());
  // has_stats must be 0 or 1.
  std::string bad = EncodeResultSetWithStats({SmallRelation()}, nullptr);
  bad.back() = 2;
  auto decoded = DecodeResultSetWithStats(bad, nullptr);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ServerStatsCodec, RequestRoundTrips) {
  auto id = DecodeServerStatsRequest(EncodeServerStatsRequest(77));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 77u);
  EXPECT_FALSE(DecodeServerStatsRequest("").ok());
  EXPECT_FALSE(
      DecodeServerStatsRequest(EncodeServerStatsRequest(77) + "x").ok());
}

TEST(ServerStatsCodec, ReplyRoundTrips) {
  ServerStatsReply reply;
  reply.uptime_us = 5'000'000;
  reply.sessions_served = 9;
  reply.active_sessions = 2;
  reply.queries = 123;
  reply.sheds = 4;
  reply.slow_logged = 1;
  obs::Histogram h;
  h.Observe(10);
  h.Observe(100);
  h.Observe(10'000);
  reply.query_latency = h.Snapshot();
  ServerSessionInfo s;
  s.id = 3;
  s.peer = "xra_repl";
  s.current_query = "? select(%3 > 4.5, beer)";
  s.busy = true;
  s.queries = 12;
  s.last_latency_us = 900;
  s.idle_ms = 0;
  reply.sessions.push_back(s);
  reply.slow_log = {"{\"query_id\":1}", "{\"query_id\":2}"};
  reply.trace = "query 1:\n  interpreter.execute 1.2ms\n";

  auto decoded = DecodeServerStatsReply(EncodeServerStatsReply(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->uptime_us, reply.uptime_us);
  EXPECT_EQ(decoded->sessions_served, 9u);
  EXPECT_EQ(decoded->active_sessions, 2u);
  EXPECT_EQ(decoded->queries, 123u);
  EXPECT_EQ(decoded->sheds, 4u);
  EXPECT_EQ(decoded->slow_logged, 1u);
  EXPECT_EQ(decoded->query_latency.count, 3u);
  EXPECT_EQ(decoded->query_latency.sum_micros, 10'110u);
  EXPECT_EQ(decoded->query_latency.max_micros, 10'000u);
  EXPECT_EQ(decoded->query_latency.buckets, reply.query_latency.buckets);
  ASSERT_EQ(decoded->sessions.size(), 1u);
  EXPECT_EQ(decoded->sessions[0].peer, "xra_repl");
  EXPECT_TRUE(decoded->sessions[0].busy);
  EXPECT_EQ(decoded->sessions[0].current_query, s.current_query);
  EXPECT_EQ(decoded->slow_log, reply.slow_log);
  EXPECT_EQ(decoded->trace, reply.trace);
}

TEST(ServerStatsCodec, ReplyRefusesGarbage) {
  ServerStatsReply reply;
  std::string payload = EncodeServerStatsReply(reply);
  EXPECT_FALSE(
      DecodeServerStatsReply(payload.substr(0, payload.size() - 1)).ok());
  EXPECT_FALSE(DecodeServerStatsReply(payload + "x").ok());
  EXPECT_FALSE(DecodeServerStatsReply("").ok());
}

TEST(Handshake, UnsupportedVersionIsUnavailableAndNamesBothVersions) {
  auto db = std::move(Database::Open({}).value());
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());

  auto sock = Socket::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  // Version 1 predates kMinProtocolVersion and must be refused.
  ASSERT_TRUE(WriteFrame(*sock, FrameKind::kHello,
                         EncodeHello(1, "v1-client"))
                  .ok());
  auto response = ReadFrame(*sock, WireLimits{}, 5000);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->kind, FrameKind::kError);
  Status error = DecodeError(response->payload);
  EXPECT_EQ(error.code(), StatusCode::kUnavailable);
  EXPECT_NE(error.message().find("protocol version 1"), std::string::npos)
      << error.ToString();
  EXPECT_NE(error.message().find(
                "server speaks " + std::to_string(kProtocolVersion)),
            std::string::npos)
      << error.ToString();
  server.Shutdown();
}

TEST(CancelCodec, RequestRoundTripsAndRejectsZeroAndTrailing) {
  std::string payload = EncodeCancelRequest(0xDEADBEEFCAFEull);
  auto id = DecodeCancelRequest(payload);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, 0xDEADBEEFCAFEull);

  EXPECT_FALSE(DecodeCancelRequest("").ok());
  EXPECT_FALSE(DecodeCancelRequest(payload.substr(0, 3)).ok());
  EXPECT_FALSE(DecodeCancelRequest(payload + "x").ok());
  // Id 0 is never valid on the wire (it can never name a running query).
  EXPECT_FALSE(DecodeCancelRequest(std::string(8, '\0')).ok());
}

TEST(CancelCodec, ReplyRoundTrips) {
  for (bool delivered : {true, false}) {
    auto decoded = DecodeCancelReply(EncodeCancelReply(delivered));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, delivered);
  }
  EXPECT_FALSE(DecodeCancelReply("").ok());
  EXPECT_FALSE(DecodeCancelReply("\x02").ok());  // Only 0/1 are valid.
  EXPECT_FALSE(DecodeCancelReply(EncodeCancelReply(true) + "x").ok());
}

TEST(ErrorCodec, RetryAfterHintRoundTripsThroughErrorNotice) {
  Status original = Status::DeadlineExceeded("query 7 exceeded the deadline");
  std::string payload = EncodeErrorWithHint(original, 250);
  auto notice = DecodeErrorNotice(payload);
  ASSERT_TRUE(notice.ok()) << notice.status().ToString();
  EXPECT_EQ(notice->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(notice->status.message(), original.message());
  EXPECT_EQ(notice->retry_after_ms, 250u);
  // Plain DecodeError tolerates the trailing hint (it delegates).
  Status decoded = DecodeError(payload);
  EXPECT_EQ(decoded.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded.message(), original.message());
}

TEST(ErrorCodec, HintOfZeroEncodesTheLegacyShape) {
  Status original = Status::Cancelled("query 9 cancelled on request");
  EXPECT_EQ(EncodeErrorWithHint(original, 0), EncodeError(original));
  auto notice = DecodeErrorNotice(EncodeError(original));
  ASSERT_TRUE(notice.ok());
  EXPECT_EQ(notice->status.code(), StatusCode::kCancelled);
  EXPECT_EQ(notice->retry_after_ms, 0u);
}

TEST(ErrorCodec, GovernanceStatusCodesSurviveTheWire) {
  for (StatusCode code : {StatusCode::kCancelled,
                          StatusCode::kDeadlineExceeded,
                          StatusCode::kResourceExhausted}) {
    Status original(code, "governed kill");
    Status decoded = DecodeError(EncodeError(original));
    EXPECT_EQ(decoded.code(), code);
    EXPECT_EQ(decoded.message(), "governed kill");
  }
}

TEST(ErrorCodec, NoticeRefusesMalformedTrailers) {
  Status original = Status::DeadlineExceeded("killed");
  std::string payload = EncodeErrorWithHint(original, 250);
  // A partial trailer is neither the legacy nor the hinted shape.
  EXPECT_FALSE(DecodeErrorNotice(payload.substr(0, payload.size() - 1)).ok());
  EXPECT_FALSE(DecodeErrorNotice(payload + "x").ok());
  // An out-of-range status code byte is corruption, not a silent status.
  std::string bad = EncodeError(Status::InvalidArgument("x"));
  bad[0] = static_cast<char>(200);
  EXPECT_FALSE(DecodeErrorNotice(bad).ok());
}

TEST(Handshake, V3HelloIsUnavailable) {
  // Every client speaks the current version, so an older dialect gets the
  // same refusal as any unknown one.
  static_assert(kMinProtocolVersion == kProtocolVersion);
  auto db = std::move(Database::Open({}).value());
  Server server(db.get());
  ASSERT_TRUE(server.Start().ok());

  auto sock = Socket::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(
      WriteFrame(*sock, FrameKind::kHello, EncodeHello(3, "v3-client")).ok());
  auto response = ReadFrame(*sock, WireLimits{}, 5000);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->kind, FrameKind::kError);
  Status error = DecodeError(response->payload);
  EXPECT_EQ(error.code(), StatusCode::kUnavailable);
  EXPECT_NE(error.message().find("protocol version 3"), std::string::npos)
      << error.ToString();
  EXPECT_NE(error.message().find(
                "server speaks " + std::to_string(kProtocolVersion)),
            std::string::npos)
      << error.ToString();
  server.Shutdown();
}

TEST(HostPort, ParsesAndRejects) {
  auto hp = ParseHostPort("127.0.0.1:7411");
  ASSERT_TRUE(hp.ok());
  EXPECT_EQ(hp->first, "127.0.0.1");
  EXPECT_EQ(hp->second, 7411);

  auto v6 = ParseHostPort("[::1]:9000");
  ASSERT_TRUE(v6.ok());
  EXPECT_EQ(v6->first, "::1");
  EXPECT_EQ(v6->second, 9000);

  EXPECT_FALSE(ParseHostPort("nohost").ok());
  EXPECT_FALSE(ParseHostPort("host:").ok());
  EXPECT_FALSE(ParseHostPort(":123").ok());
  EXPECT_FALSE(ParseHostPort("host:0").ok());
  EXPECT_FALSE(ParseHostPort("host:99999").ok());
  EXPECT_FALSE(ParseHostPort("host:12x").ok());
  EXPECT_FALSE(ParseHostPort("[::1]9000").ok());
}

}  // namespace
}  // namespace net
}  // namespace mra
