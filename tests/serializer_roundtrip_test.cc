// Serializer hardening: randomized round-trip property tests for
// PutRelation/GetRelation and adversarial decode inputs — empty relations,
// max-multiplicity tuples, very long strings, every possible truncation,
// and random corruption.  The invariant under attack: a Decoder must
// return Corruption (or decode something), never crash or over-allocate.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "mra/catalog/catalog.h"
#include "mra/storage/serializer.h"

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

}  // namespace
}  // namespace storage
}  // namespace mra
