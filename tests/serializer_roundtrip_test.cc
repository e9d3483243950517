// Serializer hardening: randomized round-trip property tests for
// PutRelation/GetRelation and adversarial decode inputs — empty relations,
// max-multiplicity tuples, very long strings, every possible truncation,
// and random corruption.  The invariant under attack: a Decoder must
// return Corruption (or decode something), never crash or over-allocate.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>

#include "mra/algebra/plan.h"
#include "mra/catalog/catalog.h"
#include "mra/exec/spill.h"
#include "mra/net/protocol.h"
#include "mra/storage/plan_serializer.h"
#include "mra/storage/serializer.h"
#include "mra/storage/wal.h"
#include "mra/txn/database.h"
#include "mra/txn/transaction.h"

namespace mra {
namespace storage {
namespace {

Relation RandomRelation(std::mt19937_64& rng) {
  static const Type kTypes[] = {Type::Bool(),   Type::Int(),
                                Type::Decimal(), Type::Real(),
                                Type::String(), Type::Date()};
  std::uniform_int_distribution<size_t> arity_dist(1, 5);
  std::uniform_int_distribution<size_t> type_dist(0, 5);
  std::uniform_int_distribution<size_t> rows_dist(0, 30);
  std::uniform_int_distribution<uint64_t> count_dist(1, 1'000'000);
  std::uniform_int_distribution<int64_t> int_dist(-1'000'000, 1'000'000);
  std::uniform_int_distribution<size_t> len_dist(0, 64);

  size_t arity = arity_dist(rng);
  std::vector<Attribute> attrs;
  attrs.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs.push_back(
        {"a" + std::to_string(i + 1), kTypes[type_dist(rng)]});
  }
  Relation rel(RelationSchema("rnd", std::move(attrs)));

  size_t rows = rows_dist(rng);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> values;
    values.reserve(arity);
    for (size_t i = 0; i < arity; ++i) {
      switch (rel.schema().attributes()[i].type.kind()) {
        case TypeKind::kBool:
          values.push_back(Value::Bool((rng() & 1) != 0));
          break;
        case TypeKind::kInt:
          values.push_back(Value::Int(int_dist(rng)));
          break;
        case TypeKind::kDecimal:
          values.push_back(Value::DecimalScaled(int_dist(rng)));
          break;
        case TypeKind::kReal:
          values.push_back(Value::Real(
              static_cast<double>(int_dist(rng)) / 997.0));
          break;
        case TypeKind::kString: {
          std::string s(len_dist(rng), '\0');
          for (char& c : s) {
            c = static_cast<char>('a' + (rng() % 26));
          }
          values.push_back(Value::Str(std::move(s)));
          break;
        }
        case TypeKind::kDate:
          values.push_back(
              Value::Date(static_cast<int32_t>(int_dist(rng) % 100000)));
          break;
      }
    }
    EXPECT_TRUE(rel.Insert(Tuple(std::move(values)), count_dist(rng)).ok());
  }
  return rel;
}

TEST(SerializerRoundTrip, RandomRelationsSurviveExactly) {
  std::mt19937_64 rng(20260806);
  for (int round = 0; round < 60; ++round) {
    Relation original = RandomRelation(rng);
    Encoder enc;
    enc.PutRelation(original);
    Decoder dec(enc.buffer());
    auto decoded = dec.GetRelation();
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(dec.AtEnd());
    EXPECT_EQ(*decoded, original) << "round " << round;
  }
}

TEST(SerializerRoundTrip, EmptyRelation) {
  Relation empty(RelationSchema(
      "nothing", {Attribute{"a", Type::Int()},
                  Attribute{"b", Type::String()}}));
  Encoder enc;
  enc.PutRelation(empty);
  Decoder dec(enc.buffer());
  auto decoded = dec.GetRelation();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, empty);
  EXPECT_EQ(decoded->size(), 0u);
}

TEST(SerializerRoundTrip, MaxMultiplicityTuple) {
  Relation rel(RelationSchema("huge", {Attribute{"a", Type::Int()}}));
  ASSERT_TRUE(rel.Insert(Tuple({Value::Int(1)}), UINT64_MAX).ok());
  Encoder enc;
  enc.PutRelation(rel);
  Decoder dec(enc.buffer());
  auto decoded = dec.GetRelation();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->Multiplicity(Tuple({Value::Int(1)})), UINT64_MAX);
  EXPECT_EQ(*decoded, rel);
}

TEST(SerializerRoundTrip, LongStringValues) {
  Relation rel(RelationSchema("texts", {Attribute{"s", Type::String()}}));
  std::string big(1 << 20, 'z');
  big[12345] = 'q';
  ASSERT_TRUE(rel.Insert(Tuple({Value::Str(big)}), 3).ok());
  ASSERT_TRUE(rel.Insert(Tuple({Value::Str("")}), 1).ok());
  Encoder enc;
  enc.PutRelation(rel);
  Decoder dec(enc.buffer());
  auto decoded = dec.GetRelation();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rel);
}

TEST(SerializerRoundTrip, EveryTruncationFailsCleanly) {
  std::mt19937_64 rng(7);
  Relation rel = RandomRelation(rng);
  Encoder enc;
  enc.PutRelation(rel);
  std::string_view bytes = enc.buffer();
  for (size_t len = 0; len < bytes.size(); ++len) {
    Decoder dec(bytes.substr(0, len));
    auto decoded = dec.GetRelation();
    // GetRelation consumes the full encoding, so every strict prefix must
    // fail — with a Status, not a crash or an allocation bomb.
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " decoded";
  }
}

TEST(SerializerRoundTrip, RandomCorruptionNeverCrashes) {
  std::mt19937_64 rng(99);
  Relation rel = RandomRelation(rng);
  Encoder enc;
  enc.PutRelation(rel);
  const std::string original = enc.buffer();
  std::uniform_int_distribution<size_t> pos_dist(0, original.size() - 1);
  std::uniform_int_distribution<int> bit_dist(0, 7);
  for (int round = 0; round < 500; ++round) {
    std::string corrupt = original;
    // Flip 1–4 random bits.
    int flips = 1 + (round % 4);
    for (int f = 0; f < flips; ++f) {
      corrupt[pos_dist(rng)] ^= static_cast<char>(1 << bit_dist(rng));
    }
    Decoder dec(corrupt);
    auto decoded = dec.GetRelation();  // Either error or some relation.
    (void)decoded;
  }
}

TEST(SerializerRoundTrip, ZeroMultiplicityIsCorruption) {
  Encoder enc;
  enc.PutSchema(RelationSchema("z", {Attribute{"a", Type::Int()}}));
  enc.PutU64(1);  // One distinct tuple...
  enc.PutTuple(Tuple({Value::Int(7)}));
  enc.PutU64(0);  // ...with multiplicity zero: not a valid support entry.
  Decoder dec(enc.buffer());
  auto decoded = dec.GetRelation();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(SerializerRoundTrip, BadTypeTagIsCorruption) {
  Encoder enc;
  enc.PutString("bad");
  enc.PutU32(1);
  enc.PutString("a");
  enc.PutU8(42);  // No such TypeKind.
  Decoder dec(enc.buffer());
  auto decoded = dec.GetSchema();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(SerializerRoundTrip, ImplausibleStringLengthIsRefusedWithoutAllocating) {
  // A length field of ~4GiB must be rejected by the plausibility bound
  // before any buffer is resized.
  Encoder enc;
  enc.PutU32(0xfffffff0u);
  Decoder dec(enc.buffer());
  auto s = dec.GetString();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kCorruption);
}

TEST(SerializerRoundTrip, SchemaMismatchedTupleIsRefused) {
  // Encode a relation whose tuple does not inhabit the declared schema
  // (string value under an int attribute): decode must refuse it.
  Encoder enc;
  enc.PutSchema(RelationSchema("m", {Attribute{"a", Type::Int()}}));
  enc.PutU64(1);
  enc.PutTuple(Tuple({Value::Str("not an int")}));
  enc.PutU64(2);
  Decoder dec(enc.buffer());
  auto decoded = dec.GetRelation();
  EXPECT_FALSE(decoded.ok());
}

TEST(SerializerRoundTrip, DuplicateSupportEntriesMergeWithoutCrashing) {
  // A (corrupt) encoding listing the same tuple twice is not ideal input,
  // but it must decode deterministically (multiplicities add) or error —
  // never crash.
  Encoder enc;
  enc.PutSchema(RelationSchema("d", {Attribute{"a", Type::Int()}}));
  enc.PutU64(2);
  enc.PutTuple(Tuple({Value::Int(1)}));
  enc.PutU64(3);
  enc.PutTuple(Tuple({Value::Int(1)}));
  enc.PutU64(4);
  Decoder dec(enc.buffer());
  auto decoded = dec.GetRelation();
  if (decoded.ok()) {
    EXPECT_EQ(decoded->Multiplicity(Tuple({Value::Int(1)})), 7u);
  }
}

// --- Counts are bounded by the bytes that remain. -----------------------
//
// Each count below would make the decoder reserve gigabytes if trusted;
// it must be refused as Corruption before anything is allocated.

TEST(SerializerRoundTrip, HugeTupleArityIsCorruption) {
  Encoder enc;
  enc.PutU32(0xFFFFFFFFu);
  enc.PutValue(Value::Int(1));
  Decoder dec(enc.buffer());
  auto decoded = dec.GetTuple();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(SerializerRoundTrip, HugeAttributeCountIsCorruption) {
  Encoder enc;
  enc.PutString("s");
  enc.PutU32(0x7FFFFFFFu);
  enc.PutString("a");
  enc.PutU8(static_cast<uint8_t>(TypeKind::kInt));
  Decoder dec(enc.buffer());
  auto decoded = dec.GetSchema();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(SerializerRoundTrip, HugeStatisticsCountsAreCorruption) {
  for (bool huge_buckets : {false, true}) {
    Encoder enc;
    enc.PutU64(10);  // row_count
    enc.PutU64(5);   // distinct_count
    enc.PutU64(1);   // collected_at
    enc.PutU32(huge_buckets ? 1 : 0x10000000u);  // columns
    enc.PutU64(5);
    enc.PutDouble(0.0);
    enc.PutU8(1);
    enc.PutDouble(0.0);
    enc.PutDouble(1.0);
    enc.PutU32(huge_buckets ? 0x40000000u : 0);  // histogram buckets
    Decoder dec(enc.buffer());
    auto decoded = dec.GetStatistics();
    ASSERT_FALSE(decoded.ok()) << huge_buckets;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(SerializerRoundTrip, HugeDistinctCountIsCorruption) {
  Encoder enc;
  enc.PutSchema(RelationSchema("h", {Attribute{"a", Type::Int()}}));
  enc.PutU64(uint64_t{1} << 62);
  enc.PutTuple(Tuple({Value::Int(1)}));
  enc.PutU64(1);
  Decoder dec(enc.buffer());
  auto decoded = dec.GetRelation();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(SerializerRoundTrip, GetCountAcceptsExactlyWhatFits) {
  Encoder enc;
  enc.PutU32(2);
  enc.PutU64(0);
  enc.PutU64(0);
  Decoder fits(enc.buffer());
  auto ok = fits.GetCount(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2u);
  Decoder over(enc.buffer());
  EXPECT_EQ(over.GetCount(9).status().code(), StatusCode::kCorruption);
}

// --- Canonical order: one byte image per bag. ----------------------------

TEST(SerializerRoundTrip, EqualBagsWithDifferentHistoriesEncodeIdentically) {
  std::mt19937_64 rng(5);
  for (int round = 0; round < 20; ++round) {
    Relation a = RandomRelation(rng);
    // The same bag built backwards, in single steps, with a detour
    // through an extra tuple that is then removed again.
    Relation b(a.schema());
    std::vector<std::pair<Tuple, uint64_t>> entries(a.begin(), a.end());
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      b.InsertUnchecked(it->first, 1);
      b.InsertUnchecked(it->first, it->second - 1);
    }
    if (!entries.empty()) {
      b.InsertUnchecked(entries.front().first, 3);
      b.Remove(entries.front().first, 3);
    }
    ASSERT_TRUE(a.Equals(b));
    Encoder ea, eb;
    ea.PutRelation(a);
    eb.PutRelation(b);
    EXPECT_EQ(ea.buffer(), eb.buffer()) << "round " << round;

    Catalog ca, cb;
    ASSERT_TRUE(ca.CreateRelation(a.schema()).ok());
    ASSERT_TRUE(ca.SetRelation("rnd", a).ok());
    ASSERT_TRUE(cb.CreateRelation(b.schema()).ok());
    ASSERT_TRUE(cb.SetRelation("rnd", b).ok());
    EXPECT_EQ(EncodeCatalog(ca), EncodeCatalog(cb)) << "round " << round;
  }
}

TEST(SerializerRoundTrip, NonFiniteRealsRoundTripInCanonicalOrder) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Relation rel(RelationSchema("f", {Attribute{"x", Type::Real()}}));
  for (double v : {nan, 1.5, -inf, 0.0, inf, -0.0, -2.0, -nan}) {
    ASSERT_TRUE(rel.Insert(Tuple({Value::Real(v)}), 2).ok());
  }
  // -0.0 joins 0.0 and both NaNs share one entry.
  ASSERT_EQ(rel.distinct_size(), 6u);
  EXPECT_EQ(rel.Multiplicity(Tuple({Value::Real(0.0)})), 4u);
  EXPECT_EQ(rel.Multiplicity(Tuple({Value::Real(nan)})), 4u);

  Encoder enc;
  enc.PutRelation(rel);
  Decoder dec(enc.buffer());
  auto decoded = dec.GetRelation();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->Equals(rel));

  // The entries sit on disk in canonical order: -inf … inf, NaN last.
  Decoder walk(enc.buffer());
  ASSERT_TRUE(walk.GetSchema().ok());
  ASSERT_EQ(*walk.GetU64(), 6u);
  std::vector<double> order;
  for (int i = 0; i < 6; ++i) {
    auto t = walk.GetTuple();
    ASSERT_TRUE(t.ok());
    order.push_back(t->at(0).real_value());
    ASSERT_TRUE(walk.GetU64().ok());
  }
  EXPECT_EQ(order[0], -inf);
  EXPECT_EQ(order[1], -2.0);
  EXPECT_EQ(order[2], 0.0);
  EXPECT_EQ(order[3], 1.5);
  EXPECT_EQ(order[4], inf);
  EXPECT_TRUE(std::isnan(order[5]));
}

// --- Golden bytes: the on-disk and on-wire images are fixed. ------------
//
// Every encoder that writes values is pinned to the exact bytes it wrote
// before Value's in-memory layout changed, over one bag that holds each
// domain's edge values and strings on both sides of the inline-string
// limit.  A change to how values are held must leave all of these alone.

// Hex images, generated by the encoders before Value's 16-byte layout.
constexpr char kGoldenRelation[] =
    "06000000676f6c64656e06000000010000006901010000007203010000006405"
    "010000006d020100000073040100000062000600000000000000060000000100"
    "0000000000008003000000000000f87f05219cffffffffffff02c01dfeffffff"
    "ffff0400000000000101000000000000000600000001ffffffffffffffff0300"
    "0000000000008005ffffffffffffffff02ffffffffffffffff04010000006100"
    "0002000000000000000600000001000000000000000003000000000000044005"
    "0000000000000000020000000000000000040e0000006162636465666768696a"
    "6b6c6d6e0001030000000000000006000000010100000000000000039c750088"
    "3ce437fe05ab2300000000000002b168de3a00000000040f0000006162636465"
    "666700696a6b6c6d6e6f00000000000000010000060000000102000000000000"
    "00039a9999999999b93f05a0c02c000000000002ffffffffffffff7f04100000"
    "006162636465666768696a6b6c6d6e6f70000105000000000000000600000001"
    "ffffffffffffff7f03000000000000f03f05c606f5ffffffffff02b03cffffff"
    "ffffff04640000006162636465666768696a6b6c6d6e6f707172737475767778"
    "797a6162636465666768696a6b6c6d6e6f707172737475767778797a61626364"
    "65666768696a6b6c6d6e6f707172737475767778797a6162636465666768696a"
    "6b6c6d6e6f7071727374757600000600000000000000";
constexpr char kGoldenCheckpoint[] =
    "00000000000000000100000006000000676f6c64656e06000000010000006901"
    "010000007203010000006405010000006d020100000073040100000062000600"
    "0000000000000600000001000000000000008003000000000000f87f05219cff"
    "ffffffffff02c01dfeffffffffff040000000000010100000000000000060000"
    "0001ffffffffffffffff03000000000000008005ffffffffffffffff02ffffff"
    "ffffffffff040100000061000002000000000000000600000001000000000000"
    "0000030000000000000440050000000000000000020000000000000000040e00"
    "00006162636465666768696a6b6c6d6e00010300000000000000060000000101"
    "00000000000000039c7500883ce437fe05ab2300000000000002b168de3a0000"
    "0000040f0000006162636465666700696a6b6c6d6e6f00000000000000010000"
    "06000000010200000000000000039a9999999999b93f05a0c02c000000000002"
    "ffffffffffffff7f04100000006162636465666768696a6b6c6d6e6f70000105"
    "000000000000000600000001ffffffffffffff7f03000000000000f03f05c606"
    "f5ffffffffff02b03cffffffffffff04640000006162636465666768696a6b6c"
    "6d6e6f707172737475767778797a6162636465666768696a6b6c6d6e6f707172"
    "737475767778797a6162636465666768696a6b6c6d6e6f707172737475767778"
    "797a6162636465666768696a6b6c6d6e6f707172737475760000060000000000"
    "000000000000";
constexpr char kGoldenPlan[] =
    "07030c030c030500040000000000000001040f0000006162636465666700696a"
    "6b6c6d6e6f030500040000000000000001040100000062030700010000000000"
    "0000010300000000000006400106000000676f6c64656e060000000100000069"
    "01010000007203010000006405010000006d0201000000730401000000620006"
    "000000000000000600000001000000000000008003000000000000f87f05219c"
    "ffffffffffff02c01dfeffffffffff0400000000000101000000000000000600"
    "000001ffffffffffffffff03000000000000008005ffffffffffffffff02ffff"
    "ffffffffffff0401000000610000020000000000000006000000010000000000"
    "000000030000000000000440050000000000000000020000000000000000040e"
    "0000006162636465666768696a6b6c6d6e000103000000000000000600000001"
    "0100000000000000039c7500883ce437fe05ab2300000000000002b168de3a00"
    "000000040f0000006162636465666700696a6b6c6d6e6f000000000000000100"
    "0006000000010200000000000000039a9999999999b93f05a0c02c0000000000"
    "02ffffffffffffff7f04100000006162636465666768696a6b6c6d6e6f700001"
    "05000000000000000600000001ffffffffffffff7f03000000000000f03f05c6"
    "06f5ffffffffff02b03cffffffffffff04640000006162636465666768696a6b"
    "6c6d6e6f707172737475767778797a6162636465666768696a6b6c6d6e6f7071"
    "72737475767778797a6162636465666768696a6b6c6d6e6f7071727374757677"
    "78797a6162636465666768696a6b6c6d6e6f7071727374757600000600000000"
    "000000";
constexpr char kGoldenResultSet[] =
    "0100000006000000676f6c64656e060000000100000069010100000072030100"
    "00006405010000006d0201000000730401000000620006000000060000000100"
    "0000000000008003000000000000f87f05219cffffffffffff02c01dfeffffff"
    "ffff0400000000000101000000000000000600000001ffffffffffffffff0300"
    "0000000000008005ffffffffffffffff02ffffffffffffffff04010000006100"
    "0002000000000000000600000001000000000000000003000000000000044005"
    "0000000000000000020000000000000000040e0000006162636465666768696a"
    "6b6c6d6e0001030000000000000006000000010100000000000000039c750088"
    "3ce437fe05ab2300000000000002b168de3a00000000040f0000006162636465"
    "666700696a6b6c6d6e6f00000000000000010000060000000102000000000000"
    "00039a9999999999b93f05a0c02c000000000002ffffffffffffff7f04100000"
    "006162636465666768696a6b6c6d6e6f70000105000000000000000600000001"
    "ffffffffffffff7f03000000000000f03f05c606f5ffffffffff02b03cffffff"
    "ffffff04640000006162636465666768696a6b6c6d6e6f707172737475767778"
    "797a6162636465666768696a6b6c6d6e6f707172737475767778797a61626364"
    "65666768696a6b6c6d6e6f707172737475767778797a6162636465666768696a"
    "6b6c6d6e6f707172737475760000060000000000000000000000";
constexpr char kGoldenSortRun[] =
    "370000000600000001000000000000008003000000000000f87f05219cffffff"
    "ffffff02c01dfeffffffffff0400000000000101000000000000003800000006"
    "00000001ffffffffffffffff03000000000000008005ffffffffffffffff02ff"
    "ffffffffffffff04010000006100000200000000000000450000000600000001"
    "0000000000000000030000000000000440050000000000000000020000000000"
    "000000040e0000006162636465666768696a6b6c6d6e00010300000000000000"
    "4600000006000000010100000000000000039c7500883ce437fe05ab23000000"
    "00000002b168de3a00000000040f0000006162636465666700696a6b6c6d6e6f"
    "000000000000000100004700000006000000010200000000000000039a999999"
    "9999b93f05a0c02c000000000002ffffffffffffff7f04100000006162636465"
    "666768696a6b6c6d6e6f70000105000000000000009b0000000600000001ffff"
    "ffffffffff7f03000000000000f03f05c606f5ffffffffff02b03cffffffffff"
    "ff04640000006162636465666768696a6b6c6d6e6f707172737475767778797a"
    "6162636465666768696a6b6c6d6e6f707172737475767778797a616263646566"
    "6768696a6b6c6d6e6f707172737475767778797a6162636465666768696a6b6c"
    "6d6e6f7071727374757600000600000000000000";
constexpr char kGoldenWalImageCommit[] =
    "0701000000000000000100000000000000010000000106000000676f6c64656e"
    "06000000010000006901010000007203010000006405010000006d0201000000"
    "7304010000006200060000000000000006000000010000000000000080030000"
    "00000000f87f05219cffffffffffff02c01dfeffffffffff0400000000000101"
    "000000000000000600000001ffffffffffffffff03000000000000008005ffff"
    "ffffffffffff02ffffffffffffffff0401000000610000020000000000000006"
    "0000000100000000000000000300000000000004400500000000000000000200"
    "00000000000000040e0000006162636465666768696a6b6c6d6e000103000000"
    "0000000006000000010100000000000000039c7500883ce437fe05ab23000000"
    "00000002b168de3a00000000040f0000006162636465666700696a6b6c6d6e6f"
    "0000000000000001000006000000010200000000000000039a9999999999b93f"
    "05a0c02c000000000002ffffffffffffff7f0410000000616263646566676869"
    "6a6b6c6d6e6f70000105000000000000000600000001ffffffffffffff7f0300"
    "0000000000f03f05c606f5ffffffffff02b03cffffffffffff04640000006162"
    "636465666768696a6b6c6d6e6f707172737475767778797a6162636465666768"
    "696a6b6c6d6e6f707172737475767778797a6162636465666768696a6b6c6d6e"
    "6f707172737475767778797a6162636465666768696a6b6c6d6e6f7071727374"
    "757600000600000000000000";
constexpr char kGoldenWalTupleCommit[] =
    "0702000000000000000200000000000000010000000006000000676f6c64656e"
    "06000000010000006901010000007203010000006405010000006d0201000000"
    "7304010000006200020000000000000006000000010000000000000000030000"
    "000000000440050000000000000000020000000000000000040e000000616263"
    "6465666768696a6b6c6d6e00010a000000000000000600000001010000000000"
    "0000039c7500883ce437fe05ab2300000000000002b168de3a00000000040f00"
    "00006162636465666700696a6b6c6d6e6f00000700000000010000";

// A string of `n` bytes; the 15-byte one carries an embedded NUL.
std::string GoldenString(size_t n) {
  std::string s;
  for (size_t i = 0; i < n; ++i) s += static_cast<char>('a' + i % 26);
  if (n == 15) s[7] = '\0';
  return s;
}

Relation GoldenBag() {
  Relation rel(RelationSchema(
      "golden", {{"i", Type::Int()},
                 {"r", Type::Real()},
                 {"d", Type::Date()},
                 {"m", Type::Decimal()},
                 {"s", Type::String()},
                 {"b", Type::Bool()}}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    int64_t i;
    double r;
    int32_t d;
    int64_t m;
    size_t len;
    bool b;
    uint64_t count;
  } rows[] = {
      {std::numeric_limits<int64_t>::min(), nan, -25567, -123456, 0, true, 1},
      {-1, -0.0, -1, -1, 1, false, 2},
      {0, 2.5, 0, 0, 14, true, 3},
      {1, -1e300, 9131, 987654321, 15, false, uint64_t{1} << 40},
      {2, 0.1, 2932896, std::numeric_limits<int64_t>::max(), 16, true, 5},
      {std::numeric_limits<int64_t>::max(), 1.0, -719162, -50000, 100, false,
       6},
  };
  for (const auto& r : rows) {
    EXPECT_TRUE(rel.Insert(Tuple({Value::Int(r.i), Value::Real(r.r),
                                  Value::Date(r.d),
                                  Value::DecimalScaled(r.m),
                                  Value::Str(GoldenString(r.len)),
                                  Value::Bool(r.b)}),
                           r.count)
                    .ok());
  }
  EXPECT_EQ(rel.distinct_size(), 6u);
  return rel;
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(GoldenEncodingTest, RelationImage) {
  Encoder enc;
  enc.PutRelation(GoldenBag());
  EXPECT_EQ(Hex(enc.buffer()), kGoldenRelation);
}

TEST(GoldenEncodingTest, CheckpointImage) {
  Catalog catalog;
  Relation bag = GoldenBag();
  ASSERT_TRUE(catalog.CreateRelation(bag.schema()).ok());
  ASSERT_TRUE(catalog.SetRelation("golden", bag).ok());
  EXPECT_EQ(Hex(EncodeCatalog(catalog)), kGoldenCheckpoint);
}

TEST(GoldenEncodingTest, PlanImage) {
  Relation bag = GoldenBag();
  auto plan = Plan::Select(
      Or(Or(Eq(Attr(4), Lit(Value::Str(GoldenString(15)))),
            Eq(Attr(4), Lit("b"))),
         Lt(Attr(1), Lit(2.75))),
      Plan::ConstRel(bag));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(Hex(EncodePlanToString(**plan)), kGoldenPlan);
}

TEST(GoldenEncodingTest, ResultSet) {
  EXPECT_EQ(Hex(net::EncodeResultSet({GoldenBag()})), kGoldenResultSet);
}

TEST(GoldenEncodingTest, SortRunEntries) {
  Relation bag = GoldenBag();
  exec::RunWriter run;
  ASSERT_TRUE(run.Open().ok());
  for (const Relation::Entry* entry : bag.SortedView()) {
    run.Append(exec::Row{entry->first, entry->second});
  }
  ASSERT_TRUE(run.Finish().ok());
  const std::string bytes = ReadFileBytes(run.path());
  std::filesystem::remove(run.path());
  EXPECT_EQ(Hex(bytes), kGoldenSortRun);
}

TEST(GoldenEncodingTest, WalCommitRecords) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mra_golden_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    DatabaseOptions options;
    options.directory = dir.string();
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Relation bag = GoldenBag();
    ASSERT_TRUE((*db)->CreateRelation(bag.schema()).ok());
    // The first bracket logs the whole image, the second its two tuples.
    Relation more(bag.schema());
    for (const Relation::Entry* entry : bag.SortedView()) {
      if (entry->first.at(4).string_value().size() == 14 ||
          entry->first.at(4).string_value().size() == 15) {
        ASSERT_TRUE(more.Insert(entry->first, 7).ok());
      }
    }
    for (const Relation* delta : {&bag, &more}) {
      auto txn = (*db)->Begin();
      ASSERT_TRUE(txn.ok()) << txn.status().ToString();
      ASSERT_TRUE((*txn)->Insert("golden", *delta).ok());
      ASSERT_TRUE((*txn)->Commit().ok());
    }
  }
  auto wal = ReadWal((dir / "wal.log").string());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  std::vector<std::string> commits;
  for (const std::string& record : wal->records) {
    if (!record.empty() && record[0] == 7) commits.push_back(Hex(record));
  }
  ASSERT_EQ(commits.size(), 2u);
  EXPECT_EQ(commits[0], kGoldenWalImageCommit);
  EXPECT_EQ(commits[1], kGoldenWalTupleCommit);
}

}  // namespace
}  // namespace storage
}  // namespace mra
