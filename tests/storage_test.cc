// Tests for binary serialization and the write-ahead log, including
// failure injection (torn tails, corrupt frames).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <random>

#include "mra/catalog/catalog.h"
#include "mra/storage/serializer.h"
#include "mra/storage/wal.h"
#include "mra/txn/database.h"
#include "mra/txn/transaction.h"
#include "test_util.h"

namespace mra {
namespace storage {
namespace {

using ::mra::testing::IntRel;
using ::mra::testing::IntTuple;
using ::mra::testing::PaperBeerDb;

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("mra_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

TEST(SerializerTest, PrimitivesRoundTrip) {
  Encoder enc;
  enc.PutU8(200);
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefULL);
  enc.PutI64(-42);
  enc.PutDouble(3.25);
  enc.PutString("multi-set");
  Decoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetU8(), 200);
  EXPECT_EQ(*dec.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*dec.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*dec.GetI64(), -42);
  EXPECT_DOUBLE_EQ(*dec.GetDouble(), 3.25);
  EXPECT_EQ(*dec.GetString(), "multi-set");
  EXPECT_TRUE(dec.AtEnd());
}

TEST(SerializerTest, AllValueKindsRoundTrip) {
  std::vector<Value> values = {
      Value::Bool(true),     Value::Int(-7),
      Value::DecimalScaled(-123456),            Value::Real(2.5),
      Value::Str("it's"),    Value::Date(8810),
  };
  Encoder enc;
  for (const Value& v : values) enc.PutValue(v);
  Decoder dec(enc.buffer());
  for (const Value& v : values) {
    auto decoded = dec.GetValue();
    ASSERT_OK(decoded);
    EXPECT_EQ(decoded->kind(), v.kind());
    EXPECT_TRUE(decoded->Equals(v));
  }
}

TEST(SerializerTest, RelationRoundTrip) {
  PaperBeerDb db;
  Encoder enc;
  enc.PutRelation(db.beer);
  Decoder dec(enc.buffer());
  auto decoded = dec.GetRelation();
  ASSERT_OK(decoded);
  EXPECT_REL_EQ(*decoded, db.beer);
  EXPECT_EQ(decoded->schema().name(), "beer");
  EXPECT_EQ(decoded->schema().attribute(2).name, "alcperc");
}

TEST(SerializerTest, TruncationDetected) {
  Encoder enc;
  enc.PutRelation(IntRel("r", {{1}, {2}}, 1));
  std::string data = enc.buffer();
  for (size_t cut : {data.size() - 1, data.size() / 2, size_t{1}}) {
    Decoder dec(std::string_view(data.data(), cut));
    EXPECT_EQ(dec.GetRelation().status().code(), StatusCode::kCorruption);
  }
}

TEST(SerializerTest, CorruptKindTagRejected) {
  Encoder enc;
  enc.PutValue(Value::Int(1));
  std::string data = enc.buffer();
  data[0] = 99;  // invalid TypeKind
  Decoder dec(data);
  EXPECT_EQ(dec.GetValue().status().code(), StatusCode::kCorruption);
}

TEST(SerializerTest, CatalogRoundTrip) {
  PaperBeerDb db;
  Catalog catalog;
  ASSERT_OK(catalog.CreateRelation(db.beer.schema()));
  ASSERT_OK(catalog.SetRelation("beer", db.beer));
  ASSERT_OK(catalog.CreateRelation(db.brewery.schema()));
  ASSERT_OK(catalog.SetRelation("brewery", db.brewery));
  catalog.set_logical_time(17);

  auto decoded = DecodeCatalog(EncodeCatalog(catalog));
  ASSERT_OK(decoded);
  EXPECT_EQ(decoded->logical_time(), 17u);
  EXPECT_EQ(decoded->relation_count(), 2u);
  EXPECT_REL_EQ(*decoded->GetRelation("beer").value(), db.beer);
  EXPECT_REL_EQ(*decoded->GetRelation("brewery").value(), db.brewery);
}

TEST(Crc32Test, KnownVectorsAndSensitivity) {
  // Standard test vector: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

TEST(WalTest, AppendAndReadBack) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_OK(writer);
    ASSERT_OK(writer->Append("first", false));
    ASSERT_OK(writer->Append("second", true));
  }
  auto read = ReadWal(path);
  ASSERT_OK(read);
  EXPECT_FALSE(read->torn_tail);
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[0], "first");
  EXPECT_EQ(read->records[1], "second");
}

TEST(WalTest, MissingFileIsEmptyHistory) {
  auto read = ReadWal("/nonexistent/dir/wal.log");
  ASSERT_OK(read);
  EXPECT_TRUE(read->records.empty());
}

TEST(WalTest, AppendsAccumulateAcrossReopens) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  for (int i = 0; i < 3; ++i) {
    auto writer = WalWriter::Open(path);
    ASSERT_OK(writer);
    ASSERT_OK(writer->Append("rec" + std::to_string(i), false));
  }
  auto read = ReadWal(path);
  ASSERT_OK(read);
  EXPECT_EQ(read->records.size(), 3u);
}

TEST(WalTest, TornTailDiscarded) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_OK(writer);
    ASSERT_OK(writer->Append("keep", false));
    ASSERT_OK(writer->Append("lost-in-crash", false));
  }
  // Chop bytes off the tail (simulated crash mid-write).
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);
  auto read = ReadWal(path);
  ASSERT_OK(read);
  EXPECT_TRUE(read->torn_tail);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0], "keep");
}

TEST(WalTest, MidFileCorruptionIsError) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_OK(writer);
    ASSERT_OK(writer->Append("aaaa", false));
    ASSERT_OK(writer->Append("bbbb", false));
  }
  // Flip a payload byte of the FIRST record: its CRC fails and it is not
  // the final record, so this is corruption, not a torn tail.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 12, SEEK_SET);  // first payload byte
  std::fputc('X', f);
  std::fclose(f);
  EXPECT_EQ(ReadWal(path).status().code(), StatusCode::kCorruption);
}

TEST(WalTest, SalvageKeepsIntactPrefixOfCorruptLog) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_OK(writer);
    ASSERT_OK(writer->Append("good-1", false));
    ASSERT_OK(writer->Append("good-2", false));
    ASSERT_OK(writer->Append("corrupted", false));
    ASSERT_OK(writer->Append("collateral", false));
  }
  // Flip a payload byte of the THIRD record: mid-log corruption that also
  // costs the structurally intact record behind it.
  uint64_t third_off = 2 * (12 + 6);
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(third_off + 12), SEEK_SET);
  std::fputc('X', f);
  std::fclose(f);

  ASSERT_EQ(ReadWal(path).status().code(), StatusCode::kCorruption);
  auto read = ReadWal(path, Salvage::kPrefix);
  ASSERT_OK(read);
  EXPECT_TRUE(read->salvaged);
  EXPECT_FALSE(read->torn_tail);
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[0], "good-1");
  EXPECT_EQ(read->records[1], "good-2");
  EXPECT_EQ(read->valid_bytes, third_off);
  // The corrupt frame plus the intact-but-unreachable one behind it.
  EXPECT_EQ(read->discarded_records, 2u);
}

TEST(WalTest, SalvageOfCleanLogIsPassThrough) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_OK(writer);
    ASSERT_OK(writer->Append("only", false));
  }
  auto read = ReadWal(path, Salvage::kPrefix);
  ASSERT_OK(read);
  EXPECT_FALSE(read->salvaged);
  EXPECT_EQ(read->discarded_records, 0u);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->valid_bytes, 12u + 4u);
}

TEST(WalTest, TruncateToOffsetMakesTornLogAppendable) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_OK(writer);
    ASSERT_OK(writer->Append("keep", false));
    ASSERT_OK(writer->Append("torn-away", false));
  }
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 3);
  auto read = ReadWal(path);
  ASSERT_OK(read);
  ASSERT_TRUE(read->torn_tail);
  ASSERT_OK(TruncateWalToOffset(path, read->valid_bytes));
  EXPECT_EQ(std::filesystem::file_size(path), read->valid_bytes);
  // Appending after the truncation yields a clean two-record log — the
  // fresh record lands where the torn frame used to start.
  {
    auto writer = WalWriter::Open(path);
    ASSERT_OK(writer);
    ASSERT_OK(writer->Append("after-recovery", false));
  }
  auto reread = ReadWal(path);
  ASSERT_OK(reread);
  EXPECT_FALSE(reread->torn_tail);
  ASSERT_EQ(reread->records.size(), 2u);
  EXPECT_EQ(reread->records[0], "keep");
  EXPECT_EQ(reread->records[1], "after-recovery");
}

TEST(WalTest, BadMagicIsError) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("GARBAGE-GARBAGE!", 1, 16, f);
  std::fclose(f);
  EXPECT_EQ(ReadWal(path).status().code(), StatusCode::kCorruption);
}

TEST(WalTest, TruncateEmptiesTheLog) {
  TempDir dir;
  std::string path = dir.file("wal.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_OK(writer);
    ASSERT_OK(writer->Append("data", false));
  }
  ASSERT_OK(TruncateWal(path));
  auto read = ReadWal(path);
  ASSERT_OK(read);
  EXPECT_TRUE(read->records.empty());
  // Truncating a missing log is fine.
  EXPECT_OK(TruncateWal(dir.file("never-existed.log")));
}

// Randomized round-trips: arbitrary relations over mixed domains survive
// encode → decode bit-for-bit.
class SerializerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializerFuzzTest, RandomRelationRoundTrip) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> arity_dist(1, 5);
  std::uniform_int_distribution<int> kind_dist(0, 5);
  std::uniform_int_distribution<int64_t> int_dist(-1000000, 1000000);
  std::uniform_int_distribution<int> len_dist(0, 12);
  std::uniform_int_distribution<int> rows_dist(0, 40);
  std::uniform_int_distribution<uint64_t> count_dist(1, 1000);

  int arity = arity_dist(rng);
  std::vector<Attribute> attrs;
  std::vector<TypeKind> kinds;
  for (int i = 0; i < arity; ++i) {
    TypeKind kind = static_cast<TypeKind>(kind_dist(rng));
    kinds.push_back(kind);
    attrs.push_back({"a" + std::to_string(i), Type(kind)});
  }
  Relation rel(RelationSchema("fuzz", std::move(attrs)));
  auto random_value = [&](TypeKind kind) {
    switch (kind) {
      case TypeKind::kBool:
        return Value::Bool(rng() % 2 == 0);
      case TypeKind::kInt:
        return Value::Int(int_dist(rng));
      case TypeKind::kDecimal:
        return Value::DecimalScaled(int_dist(rng));
      case TypeKind::kReal:
        return Value::Real(static_cast<double>(int_dist(rng)) / 7.0);
      case TypeKind::kString: {
        std::string s;
        int len = len_dist(rng);
        for (int i = 0; i < len; ++i) {
          s.push_back(static_cast<char>('!' + rng() % 90));
        }
        return Value::Str(std::move(s));
      }
      case TypeKind::kDate:
        return Value::Date(static_cast<int32_t>(int_dist(rng) % 100000));
    }
    return Value();
  };
  int rows = rows_dist(rng);
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> values;
    for (TypeKind kind : kinds) values.push_back(random_value(kind));
    rel.InsertUnchecked(Tuple(std::move(values)), count_dist(rng));
  }

  Encoder enc;
  enc.PutRelation(rel);
  Decoder dec(enc.buffer());
  auto back = dec.GetRelation();
  ASSERT_OK(back);
  EXPECT_REL_EQ(*back, rel);
  EXPECT_TRUE(dec.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{26}));

// --- Commit records as recovery reads them (layouts: docs/RECOVERY.md). --

constexpr uint8_t kRecCommitImage = 1;
constexpr uint8_t kRecCreateRelation = 2;
constexpr uint8_t kRecCommitDelta = 7;
constexpr uint8_t kChangeTuples = 0;

RelationSchema RSchema() { return RelationSchema("r", {{"x", Type::Int()}}); }

std::string CreateRecord() {
  Encoder enc;
  enc.PutU8(kRecCreateRelation);
  enc.PutSchema(RSchema());
  return enc.TakeBuffer();
}

// The legacy commit record: each relation's whole after-image.
std::string ImageRecord(uint64_t txn, const Relation& after) {
  Encoder enc;
  enc.PutU8(kRecCommitImage);
  enc.PutU64(txn);
  enc.PutU64(txn);  // logical time
  enc.PutU32(1);
  enc.PutRelation(after);
  return enc.TakeBuffer();
}

// A per-tuple record for r: `count` announced entries, then `entries`.
std::string DeltaRecord(uint64_t txn, uint64_t count,
                        const std::vector<std::pair<Tuple, uint64_t>>& entries) {
  Encoder enc;
  enc.PutU8(kRecCommitDelta);
  enc.PutU64(txn);
  enc.PutU64(txn);
  enc.PutU32(1);
  enc.PutU8(kChangeTuples);
  enc.PutSchema(RSchema());
  enc.PutU64(count);
  for (const auto& [tuple, multiplicity] : entries) {
    enc.PutTuple(tuple);
    enc.PutU64(multiplicity);
  }
  return enc.TakeBuffer();
}

// Writes `records` as a fresh log in `dir` and recovers a database from it.
Result<std::unique_ptr<Database>> RecoverFrom(
    const std::string& dir, const std::vector<std::string>& records) {
  std::filesystem::create_directories(dir);
  {
    MRA_ASSIGN_OR_RETURN(WalWriter wal, WalWriter::Open(dir + "/wal.log"));
    for (const std::string& record : records) {
      MRA_RETURN_IF_ERROR(wal.Append(record, false));
    }
  }
  DatabaseOptions options;
  options.directory = dir;
  return Database::Open(options);
}

TEST(CommitRecordTest, AfterImageLogStillRecovers) {
  TempDir dir;
  const std::string path = dir.file("db");
  Relation first = IntRel("r", {{1}, {1}, {3}}, 1);
  Relation second = IntRel("r", {{3}, {4}, {4}}, 1);
  {
    auto db = RecoverFrom(path, {CreateRecord(), ImageRecord(1, first),
                                 ImageRecord(2, second)});
    ASSERT_OK(db);
    EXPECT_REL_EQ(*(*db)->catalog().GetRelation("r").value(), second);
    EXPECT_EQ((*db)->logical_time(), 2u);
    // New commits append per-tuple records after the old ones.
    auto txn = (*db)->Begin();
    ASSERT_OK(txn);
    ASSERT_OK((*txn)->Insert("r", IntRel("", {{5}}, 1)));
    ASSERT_OK((*txn)->Commit());
  }
  DatabaseOptions options;
  options.directory = path;
  auto reopened = Database::Open(options);
  ASSERT_OK(reopened);
  EXPECT_REL_EQ(*(*reopened)->catalog().GetRelation("r").value(),
                IntRel("r", {{3}, {4}, {4}, {5}}, 1));
  EXPECT_EQ((*reopened)->logical_time(), 3u);
}

TEST(CommitRecordTest, PerTupleRecordSetsAbsoluteMultiplicities) {
  TempDir dir;
  const std::vector<std::pair<Tuple, uint64_t>> entries = {
      {IntTuple({1}), 0}, {IntTuple({2}), 5}, {IntTuple({3}), 4}};
  const std::string delta = DeltaRecord(2, entries.size(), entries);
  // Applied once or twice, the record lands on the same state.
  for (int copies : {1, 2}) {
    std::vector<std::string> records = {
        CreateRecord(), ImageRecord(1, IntRel("r", {{1}, {2}, {2}}, 1))};
    for (int i = 0; i < copies; ++i) records.push_back(delta);
    auto db = RecoverFrom(dir.file("db" + std::to_string(copies)), records);
    ASSERT_OK(db);
    const Relation* r = (*db)->catalog().GetRelation("r").value();
    EXPECT_FALSE(r->Contains(IntTuple({1})));
    EXPECT_EQ(r->Multiplicity(IntTuple({2})), 5u);
    EXPECT_EQ(r->Multiplicity(IntTuple({3})), 4u);
    EXPECT_EQ(r->size(), 9u);
    EXPECT_EQ((*db)->logical_time(), 2u);
  }
}

TEST(CommitRecordTest, HugeDeltaCountIsCorruption) {
  TempDir dir;
  auto db = RecoverFrom(
      dir.file("db"),
      {CreateRecord(), DeltaRecord(1, uint64_t{1} << 40, {{IntTuple({1}), 1}})});
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
}

TEST(CommitRecordTest, MalformedEntriesAreCorruption) {
  TempDir dir;
  const std::vector<std::vector<std::pair<Tuple, uint64_t>>> bad = {
      // Out of canonical order.
      {{IntTuple({2}), 1}, {IntTuple({1}), 1}},
      // The same tuple twice.
      {{IntTuple({1}), 1}, {IntTuple({1}), 2}},
      // Not in dom(r).
      {{Tuple({Value::Str("x")}), 1}},
      {{IntTuple({1, 2}), 1}},
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    auto db = RecoverFrom(dir.file("db" + std::to_string(i)),
                          {CreateRecord(), DeltaRecord(1, bad[i].size(), bad[i])});
    ASSERT_FALSE(db.ok()) << i;
    EXPECT_EQ(db.status().code(), StatusCode::kCorruption) << i;
  }
  // An unknown change form.
  std::string record = DeltaRecord(1, 0, {});
  record[1 + 8 + 8 + 4] = 9;
  auto db = RecoverFrom(dir.file("form"), {CreateRecord(), record});
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace storage
}  // namespace mra
