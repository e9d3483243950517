// E6 — §4.3: transactions.
//
// Measures the cost of the transaction machinery the paper layers over the
// algebra: commit throughput (in-memory, WAL, WAL+fsync), abort cost
// (a bracket's writes live in per-relation overlays, so abort just drops
// them), and recovery (checkpoint + WAL replay), with a correctness check
// that recovery reproduces the pre-shutdown state exactly.
//
// The window sweep runs a 20-in/20-out bracket on windows of 2k, 20k and
// 200k rows.  Such a bracket records its tuples' new multiplicities in an
// overlay and its commit applies them to the committed relation in
// place, so commit time must not grow with the window: the sweep prints
// REGRESSION when the median commit at 200k exceeds 2x the one at 2k.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <vector>

#include "bench_util.h"
#include "mra/txn/database.h"
#include "mra/txn/transaction.h"

namespace mra {
namespace bench {
namespace {

RelationSchema AccountSchema() {
  return RelationSchema("account", {{"id", Type::Int()},
                                    {"balance", Type::Decimal()}});
}

Relation OneAccount(int64_t id, int64_t units) {
  Relation r(RelationSchema({{"id", Type::Int()},
                             {"balance", Type::Decimal()}}));
  r.InsertUnchecked(Tuple({Value::Int(id), Value::Decimal(units)}), 1);
  return r;
}

std::string TempDbDir() {
  static int counter = 0;
  auto path = std::filesystem::temp_directory_path() /
              ("mra_bench_db_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter++));
  return path.string();
}

void RunCommits(benchmark::State& state, const DatabaseOptions& options) {
  std::string dir = options.directory;
  auto db = Unwrap(Database::Open(options));
  Unwrap(db->CreateRelation(AccountSchema()));
  // Pre-populate a fixed-size ledger so each commit's after-image (and
  // therefore each WAL record) has constant size.
  {
    auto setup = Unwrap(db->Begin());
    for (int64_t i = 0; i < 100; ++i) {
      Unwrap(setup->Insert("account", OneAccount(i, 100)));
    }
    Unwrap(setup->Commit());
  }
  int64_t tick = 0;
  for (auto _ : state) {
    int64_t id = tick++ % 100;
    auto txn = Unwrap(db->Begin());
    Unwrap(txn->Delete("account", OneAccount(id, 100)));
    Unwrap(txn->Insert("account", OneAccount(id, 100)));
    Unwrap(txn->Commit());
  }
  state.SetItemsProcessed(state.iterations());
  db.reset();
  if (!dir.empty()) std::filesystem::remove_all(dir);
}

void BM_CommitInMemory(benchmark::State& state) {
  RunCommits(state, DatabaseOptions{});
}
BENCHMARK(BM_CommitInMemory);

void BM_CommitWal(benchmark::State& state) {
  RunCommits(state, DatabaseOptions{.directory = TempDbDir()});
}
BENCHMARK(BM_CommitWal);

void BM_CommitWalFsync(benchmark::State& state) {
  RunCommits(state, DatabaseOptions{.directory = TempDbDir(),
                                    .sync_commits = true});
}
BENCHMARK(BM_CommitWalFsync)->Iterations(200);

void BM_AbortAfterLargeInsert(benchmark::State& state) {
  auto db = Unwrap(Database::Open());
  Unwrap(db->CreateRelation(AccountSchema()));
  Relation big(RelationSchema({{"id", Type::Int()},
                               {"balance", Type::Decimal()}}));
  for (int64_t i = 0; i < state.range(0); ++i) {
    big.InsertUnchecked(Tuple({Value::Int(i), Value::Decimal(1)}), 1);
  }
  for (auto _ : state) {
    auto txn = Unwrap(db->Begin());
    Unwrap(txn->Insert("account", big));
    Unwrap(txn->Abort());
  }
}
BENCHMARK(BM_AbortAfterLargeInsert)->Arg(1000)->Arg(10000);

void BM_RecoveryFromWal(benchmark::State& state) {
  std::string dir = TempDbDir();
  {
    auto db = Unwrap(Database::Open({.directory = dir}));
    Unwrap(db->CreateRelation(AccountSchema()));
    for (int64_t i = 0; i < state.range(0); ++i) {
      auto txn = Unwrap(db->Begin());
      Unwrap(txn->Insert("account", OneAccount(i, 100)));
      Unwrap(txn->Commit());
    }
  }
  for (auto _ : state) {
    auto db = Unwrap(Database::Open({.directory = dir}));
    benchmark::DoNotOptimize(db->logical_time());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_RecoveryFromWal)->Arg(100)->Arg(500);

// `n` accounts with ids first..first+n-1.
Relation Accounts(int64_t first, int64_t n) {
  Relation r(AccountSchema());
  for (int64_t id = first; id < first + n; ++id) {
    r.InsertUnchecked(Tuple({Value::Int(id), Value::Decimal(id % 1000)}), 1);
  }
  return r;
}

double MedianMicros(std::vector<double> samples) {
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

void WindowSweep() {
  constexpr int64_t kDelta = 20;
  constexpr int kBrackets = 300;
  using Clock = std::chrono::steady_clock;
  auto micros = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  Row("%-10s %-18s %-18s", "window", "median stmts us", "median commit us");
  double commit_first = 0;
  double commit_last = 0;
  for (int64_t window : {2'000, 20'000, 200'000}) {
    std::string dir = TempDbDir();
    auto db = Unwrap(Database::Open({.directory = dir}));
    Unwrap(db->CreateRelation(AccountSchema()));
    {
      auto load = Unwrap(db->Begin());
      Unwrap(load->Insert("account", Accounts(0, window)));
      Unwrap(load->Commit());
    }
    std::vector<double> stmts_us;
    std::vector<double> commit_us;
    for (int k = 0; k < kBrackets; ++k) {
      Relation in = Accounts(window + k * kDelta, kDelta);
      Relation out = Accounts(k * kDelta, kDelta);
      Clock::time_point t0 = Clock::now();
      auto txn = Unwrap(db->Begin());
      Unwrap(txn->Insert("account", in));
      Unwrap(txn->Delete("account", out));
      Clock::time_point t1 = Clock::now();
      Unwrap(txn->Commit());
      Clock::time_point t2 = Clock::now();
      stmts_us.push_back(micros(t1 - t0));
      commit_us.push_back(micros(t2 - t1));
    }
    MRA_CHECK(Unwrap(db->catalog().GetRelation("account"))->Equals(
        Accounts(kBrackets * kDelta, window)));
    const double commit = MedianMicros(commit_us);
    Row("%-10lld %-18.1f %-18.1f", static_cast<long long>(window),
        MedianMicros(stmts_us), commit);
    if (commit_first == 0) commit_first = commit;
    commit_last = commit;
    db.reset();
    std::filesystem::remove_all(dir);
  }
  const double ratio = commit_last / commit_first;
  Row("commit at 200k / at 2k      : %.2fx (bar: <= 2x)", ratio);
  if (ratio > 2.0) {
    Row("REGRESSION: commit time grows with the relation, not the delta");
  }
}

void Report() {
  Header("E6: transactions (§4.3)",
         "Claim: bracketed programs execute with atomicity, isolation and "
         "durability on top of the algebra's statement semantics.");
  // Correctness: recovery reproduces the committed state bit-for-bit.
  std::string dir = TempDbDir();
  Relation before(AccountSchema());
  {
    auto db = Unwrap(Database::Open({.directory = dir}));
    Unwrap(db->CreateRelation(AccountSchema()));
    for (int64_t i = 0; i < 500; ++i) {
      auto txn = Unwrap(db->Begin());
      Unwrap(txn->Insert("account", OneAccount(i % 50, i)));
      if (i % 7 == 0) {
        Unwrap(txn->Abort());
      } else {
        Unwrap(txn->Commit());
      }
    }
    before = *Unwrap(db->catalog().GetRelation("account"));
  }
  auto db = Unwrap(Database::Open({.directory = dir}));
  const Relation* after = Unwrap(db->catalog().GetRelation("account"));
  Row("committed tuples before shutdown : %llu",
      static_cast<unsigned long long>(before.size()));
  Row("recovered tuples after reopen    : %llu",
      static_cast<unsigned long long>(after->size()));
  Row("states identical?                : %s",
      before.Equals(*after) ? "yes" : "NO!");
  MRA_CHECK(before.Equals(*after));
  Row("logical time after recovery      : %llu",
      static_cast<unsigned long long>(db->logical_time()));
  db.reset();
  std::filesystem::remove_all(dir);
  WindowSweep();
}

}  // namespace
}  // namespace bench
}  // namespace mra

int main(int argc, char** argv) {
  mra::bench::Report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mra::bench::DumpMetricsJson("E6");
  return 0;
}
