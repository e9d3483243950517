// Tests for the fault-injection framework: spec parsing, trigger gating
// (after/limit), environment configuration, the registry lifecycle, and a
// failpoint actually tearing a WAL write.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "mra/fault/failpoint.h"
#include "mra/obs/metrics.h"
#include "mra/storage/wal.h"
#include "mra/txn/database.h"
#include "mra/txn/transaction.h"
#include "test_util.h"

namespace mra {
namespace fault {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("mra_fault_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }
  std::string path() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

// Every test leaves the process-wide registry disarmed, so tests cannot
// leak faults into each other (or into other suites in the same binary).
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
};

TEST_F(FaultTest, ParseSimpleActions) {
  auto error = ParseFaultAction("error");
  ASSERT_OK(error);
  EXPECT_EQ(error->kind, ActionKind::kError);

  auto abort_cfg = ParseFaultAction("abort");
  ASSERT_OK(abort_cfg);
  EXPECT_EQ(abort_cfg->kind, ActionKind::kAbort);

  auto off = ParseFaultAction("off");
  ASSERT_OK(off);
  EXPECT_EQ(off->kind, ActionKind::kOff);

  auto torn = ParseFaultAction("torn(7)");
  ASSERT_OK(torn);
  EXPECT_EQ(torn->kind, ActionKind::kTorn);
  EXPECT_EQ(torn->keep_bytes, 7u);

  auto delay = ParseFaultAction("delay(25)");
  ASSERT_OK(delay);
  EXPECT_EQ(delay->kind, ActionKind::kDelay);
  EXPECT_EQ(delay->delay_ms, 25);
}

TEST_F(FaultTest, ParseModifiers) {
  auto cfg = ParseFaultAction("torn(3):after=5:limit=2");
  ASSERT_OK(cfg);
  EXPECT_EQ(cfg->kind, ActionKind::kTorn);
  EXPECT_EQ(cfg->keep_bytes, 3u);
  EXPECT_EQ(cfg->start_after, 5u);
  EXPECT_EQ(cfg->max_triggers, 2u);

  auto spaced = ParseFaultAction("  error : after = 1 ");
  ASSERT_OK(spaced);
  EXPECT_EQ(spaced->kind, ActionKind::kError);
  EXPECT_EQ(spaced->start_after, 1u);
}

TEST_F(FaultTest, ParseRejectsMalformedActions) {
  EXPECT_FALSE(ParseFaultAction("").ok());
  EXPECT_FALSE(ParseFaultAction("explode").ok());
  EXPECT_FALSE(ParseFaultAction("torn").ok());        // Needs byte count.
  EXPECT_FALSE(ParseFaultAction("torn(x)").ok());
  EXPECT_FALSE(ParseFaultAction("delay()").ok());
  EXPECT_FALSE(ParseFaultAction("error:bogus=1").ok());
  EXPECT_FALSE(ParseFaultAction("error:after=").ok());
}

TEST_F(FaultTest, SpecConfiguresMultipleSites) {
  auto& reg = FaultRegistry::Global();
  ASSERT_OK(reg.ConfigureFromSpec(
      "test.spec.a=error; test.spec.b=torn(4):limit=1 , test.spec.c=off"));
  std::vector<std::string> armed = reg.ArmedSites();
  EXPECT_NE(std::find(armed.begin(), armed.end(), "test.spec.a"), armed.end());
  EXPECT_NE(std::find(armed.begin(), armed.end(), "test.spec.b"), armed.end());
  EXPECT_EQ(std::find(armed.begin(), armed.end(), "test.spec.c"), armed.end());
  EXPECT_TRUE(reg.Get("test.spec.a")->armed());
  reg.DisarmAll();
  EXPECT_TRUE(reg.ArmedSites().empty());
}

TEST_F(FaultTest, SpecParseErrorNamesTheEntry) {
  Status bad = FaultRegistry::Global().ConfigureFromSpec("a=error;b=kaboom");
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("b"), std::string::npos);
}

TEST_F(FaultTest, HitFiresErrorWhileArmed) {
  auto& reg = FaultRegistry::Global();
  Failpoint* fp = reg.Get("test.hit.error");
  EXPECT_EQ(fp->Hit().kind, ActionKind::kOff);  // Disarmed: passes.
  ASSERT_OK(reg.ConfigureFromSpec("test.hit.error=error"));
  EXPECT_EQ(fp->Hit().kind, ActionKind::kError);
  Status injected = fp->InjectedError();
  EXPECT_EQ(injected.code(), StatusCode::kIoError);
  EXPECT_NE(injected.message().find("test.hit.error"), std::string::npos);
  reg.Disarm("test.hit.error");
  EXPECT_EQ(fp->Hit().kind, ActionKind::kOff);
}

TEST_F(FaultTest, AfterAndLimitGateTriggering) {
  auto& reg = FaultRegistry::Global();
  Failpoint* fp = reg.Get("test.hit.gated");
  ASSERT_OK(reg.ConfigureFromSpec("test.hit.gated=error:after=2:limit=2"));
  EXPECT_EQ(fp->Hit().kind, ActionKind::kOff);    // Hit 1: before `after`.
  EXPECT_EQ(fp->Hit().kind, ActionKind::kOff);    // Hit 2: before `after`.
  EXPECT_EQ(fp->Hit().kind, ActionKind::kError);  // Trigger 1.
  EXPECT_EQ(fp->Hit().kind, ActionKind::kError);  // Trigger 2 (limit).
  EXPECT_EQ(fp->Hit().kind, ActionKind::kOff);    // Limit exhausted.
  EXPECT_EQ(fp->Hit().kind, ActionKind::kOff);
}

TEST_F(FaultTest, InjectIfArmedTreatsTornAsError) {
  auto& reg = FaultRegistry::Global();
  Failpoint* fp = reg.Get("test.inject.torn");
  EXPECT_OK(InjectIfArmed(fp));
  ASSERT_OK(reg.ConfigureFromSpec("test.inject.torn=torn(9)"));
  EXPECT_EQ(InjectIfArmed(fp).code(), StatusCode::kIoError);
}

TEST_F(FaultTest, EnvVariableConfiguresRegistry) {
  ::setenv("MRA_FAILPOINTS", "test.env.site=error:limit=1", 1);
  FaultRegistry reg;  // Local registry: Global() already consumed the env.
  ASSERT_OK(reg.ConfigureFromEnv());
  EXPECT_EQ(reg.ArmedSites(), std::vector<std::string>{"test.env.site"});
  ::unsetenv("MRA_FAILPOINTS");
  ASSERT_OK(reg.ConfigureFromEnv());  // Unset is a no-op, not an error.
}

TEST_F(FaultTest, HitCountersExportedThroughObs) {
  auto& reg = FaultRegistry::Global();
  Failpoint* fp = reg.Get("test.obs.site");
  auto& metrics = obs::MetricsRegistry::Global();
  uint64_t hits0 = metrics.GetCounter("fault.test.obs.site.hits")->value();
  uint64_t trig0 = metrics.GetCounter("fault.test.obs.site.triggered")->value();
  ASSERT_OK(reg.ConfigureFromSpec("test.obs.site=error:after=1"));
  fp->Hit();  // Passes through (after=1) but counts as a hit.
  fp->Hit();  // Triggers.
  EXPECT_EQ(metrics.GetCounter("fault.test.obs.site.hits")->value(),
            hits0 + 2);
  EXPECT_EQ(metrics.GetCounter("fault.test.obs.site.triggered")->value(),
            trig0 + 1);
}

TEST_F(FaultTest, TornActionShortensWalWrite) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  {
    auto writer = storage::WalWriter::Open(path);
    ASSERT_OK(writer);
    ASSERT_OK(writer->Append("intact-record", false));
    // Frame = 12-byte header + payload; keep 5 bytes → the second record
    // survives only as a truncated header.
    ASSERT_OK(
        FaultRegistry::Global().ConfigureFromSpec("wal.append=torn(5)"));
    Status torn = writer->Append("doomed-record", false);
    EXPECT_EQ(torn.code(), StatusCode::kIoError);
    FaultRegistry::Global().DisarmAll();
  }
  auto read = storage::ReadWal(path);
  ASSERT_OK(read);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0], "intact-record");
  EXPECT_TRUE(read->torn_tail);
  // valid_bytes points at the end of the intact record, i.e. where the
  // torn frame starts.
  EXPECT_EQ(read->valid_bytes, 12u + std::string("intact-record").size());
  EXPECT_EQ(std::filesystem::file_size(path), read->valid_bytes + 5);
}

TEST_F(FaultTest, ErrorActionFailsAppendWithoutWriting) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  auto writer = storage::WalWriter::Open(path);
  ASSERT_OK(writer);
  ASSERT_OK(
      FaultRegistry::Global().ConfigureFromSpec("wal.append=error:limit=1"));
  EXPECT_EQ(writer->Append("rejected", false).code(), StatusCode::kIoError);
  ASSERT_OK(writer->Append("accepted", false));  // Limit exhausted.
  auto read = storage::ReadWal(path);
  ASSERT_OK(read);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0], "accepted");
  EXPECT_FALSE(read->torn_tail);
}

// The wal.truncate window: the checkpoint is installed but the log it
// folded in survives.  Recovery replays per-tuple records, whole images
// and DDL over the checkpoint again — and again on a second reopen — and
// must land on the live state both times.
TEST_F(FaultTest, CommitRecordsReplayIdempotentlyInTheTruncateWindow) {
  using ::mra::testing::IntTuple;
  TempDir dir;
  auto schema = [](const char* name) {
    return RelationSchema(name, {{"x", Type::Int()}});
  };
  auto delta = [&](std::initializer_list<std::pair<int64_t, uint64_t>> rows) {
    Relation d(schema(""));
    for (auto [v, c] : rows) d.InsertUnchecked(IntTuple({v}), c);
    return d;
  };
  std::map<std::string, Relation> live;
  uint64_t time = 0;
  {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    // After the first checkpoint, r is only ever edited, so its per-tuple
    // records replay straight over its checkpointed state.  s is also
    // updated (logged whole) and dropped and recreated mid-log, so its
    // earlier records must not leak into the recreated relation.
    for (const char* name : {"r", "s"}) {
      ASSERT_OK((*db)->CreateRelation(schema(name)));
    }
    for (int round = 0; round < 8; ++round) {
      auto txn = (*db)->Begin();
      ASSERT_OK(txn);
      for (const char* name : {"r", "s"}) {
        if (round == 0) {
          ASSERT_OK((*txn)->Insert(
              name, delta({{0, 1}, {1, 5}, {2, 1'000'000}, {3, 1}, {4, 2}})));
        } else if (round == 4 && std::string(name) == "s") {
          ASSERT_OK((*txn)->Update(name, delta({{1, 1}}),
                                   {Add(Attr(0), Lit(int64_t{100}))}));
        } else {
          ASSERT_OK((*txn)->Insert(name, delta({{10 + round, 5}})));
          ASSERT_OK((*txn)->Delete(name, delta({{round, 3}})));
        }
      }
      ASSERT_OK((*txn)->Commit());
      if (round == 0) ASSERT_OK((*db)->Checkpoint());
      if (round == 5) {
        Relation keep = *(*db)->catalog().GetRelation("s").value();
        ASSERT_OK((*db)->DropRelation("s"));
        ASSERT_OK((*db)->CreateRelation(schema("s")));
        auto refill = (*db)->Begin();
        ASSERT_OK(refill);
        ASSERT_OK((*refill)->Insert("s", keep));
        ASSERT_OK((*refill)->Commit());
      }
    }
    ASSERT_OK(FaultRegistry::Global().ConfigureFromSpec("wal.truncate=error"));
    EXPECT_FALSE((*db)->Checkpoint().ok());
    FaultRegistry::Global().DisarmAll();
    EXPECT_GT(std::filesystem::file_size((*db)->wal_path()), 0u);
    for (const char* name : {"r", "s"}) {
      live.emplace(name, *(*db)->catalog().GetRelation(name).value());
    }
    time = (*db)->logical_time();
  }
  for (int reopen = 0; reopen < 2; ++reopen) {
    auto db = Database::Open({.directory = dir.path()});
    ASSERT_OK(db);
    for (const auto& [name, rel] : live) {
      EXPECT_REL_EQ(*(*db)->catalog().GetRelation(name).value(), rel)
          << name << " on reopen " << reopen;
    }
    EXPECT_EQ((*db)->logical_time(), time);
  }
}

}  // namespace
}  // namespace fault
}  // namespace mra
