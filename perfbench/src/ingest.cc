// ingest: a durable database (fresh directory, sync_commits = false — the
// shipped default: each commit's WAL record is flushed to the OS, not
// fsync'ed) behind the loopback server, with two connections.
//
//  * The writer runs `begin insert(orders, {B literal rows});
//    delete(orders, {the oldest B rows}) end`.  The sliding window keeps the
//    table at exactly N distinct rows, so the full after-image each commit
//    logs — and with it commit cost — cannot drift with run length.
//  * The reader runs serve's lookup against the moving window.
//
// It loads lang with literal-heavy statements and txn, storage and the
// database-wide lock with commits, and shares net/exec with serve, so a
// write-side gain that costs reads shows up here.

#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "data.h"
#include "mra/lang/parser.h"
#include "mra/storage/serializer.h"
#include "mra/storage/wal.h"
#include "mra/txn/transaction.h"
#include "replay.h"
#include "serve_common.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using mra::Relation;
using mra::Status;

constexpr uint64_t kWindow = kIngestWindow;
constexpr uint64_t kBatch = kIngestBatch;
constexpr int64_t kCustomers = kIngestCustomers;
constexpr int kSetupRuns = 7;
constexpr int kWarmupOps = 3;
// Brackets whose WAL bytes give the exact per-commit count.
constexpr uint64_t kExactOps = 8;
// The reader's lookup keys are their own seeded stream.
constexpr uint64_t kReaderSalt = 0x5eed'0f'4ead'e4ULL;

// Encoded bytes of the tuples bracket p inserts and deletes, each with its
// multiplicity — the user data a commit changes.
uint64_t DeltaBytes(uint64_t seed, uint64_t p) {
  mra::storage::Encoder enc;
  for (uint64_t first : {p * kBatch + kWindow, p * kBatch}) {
    for (uint64_t i = first; i < first + kBatch; ++i) {
      enc.PutTuple(OrderRow(seed, i, kCustomers));
      enc.PutU64(OrderMult(i));
    }
  }
  return enc.buffer().size();
}

// True when `result` is customer `key`'s rows of window position p.
bool MatchesWindow(const Relation& result, uint64_t seed, int64_t key,
                   uint64_t p) {
  const uint64_t first = p * kBatch;
  uint64_t want = 0;
  for (uint64_t i = first; i < first + kWindow; ++i) {
    if (OrderCustomer(seed, i, kCustomers) == key) ++want;
  }
  if (result.distinct_size() != want) return false;
  for (const auto& [tuple, count] : result) {
    const int64_t orderkey = tuple.at(0).int_value();
    if (orderkey < 1) return false;
    const auto i = static_cast<uint64_t>(orderkey - 1);
    if (i < first || i >= first + kWindow || count != OrderMult(i) ||
        !tuple.Equals(OrderRow(seed, i, kCustomers)) ||
        tuple.at(1).int_value() != key) {
      return false;
    }
  }
  return true;
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

// Opens a durable database in `dir` (emptied first).
mra::DatabaseOptions DurableOptions(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  mra::DatabaseOptions options;
  options.directory = dir;
  options.sync_commits = false;
  return options;
}

// Replays writer bracket `text` on `shadow` — a second durable database
// holding the same window as the live one — through the calls the server
// makes: parse, then per statement render (Interpreter::ExecuteStmt renders
// each statement for the slow-query log), bind/optimize/lower/run of the
// literal, and Transaction::Insert/Delete, then Commit.  The commit is then
// broken down (detail spans, not added again): the after-image encode of
// Database::ApplyCommit, and its append to a scratch WAL.
Status ReplayBracket(mra::Database* shadow, mra::net::Client& writer,
                     const std::string& text,
                     mra::storage::WalWriter* scratch_wal, SpanLog* log,
                     uint64_t op, ExecCounts* counts) {
  const uint32_t parent = log->Begin("ingest.bracket", SpanLog::Kind::kOp, 0, op);
  {
    SpanLog::Scope span(log, "net.ping_rtt", parent, op);
    MRA_RETURN_IF_ERROR(writer.Ping());
  }
  mra::lang::Script script;
  {
    SpanLog::Scope span(log, "lang.parse", parent, op);
    MRA_ASSIGN_OR_RETURN(script, mra::lang::ParseScript(text));
  }
  std::unique_ptr<mra::Transaction> txn;
  {
    SpanLog::Scope span(log, "txn.begin", parent, op);
    MRA_ASSIGN_OR_RETURN(txn, shadow->Begin());
  }
  for (const mra::lang::Stmt& stmt : script.items.at(0).stmts) {
    {
      SpanLog::Scope span(log, "lang.render", parent, op);
      if (stmt.ToString().empty()) return Status::Internal("empty rendering");
    }
    MRA_ASSIGN_OR_RETURN(Relation delta,
                         EvaluateTraced(*stmt.expr, *txn, mra::ExecConfig{},
                                        log, parent, op, counts));
    SpanLog::Scope span(log, "txn.stmt", parent, op);
    MRA_RETURN_IF_ERROR(stmt.kind == mra::lang::Stmt::Kind::kInsert
                            ? txn->Insert(stmt.target, delta)
                            : txn->Delete(stmt.target, delta));
  }
  uint32_t commit_span = 0;
  {
    SpanLog::Scope span(log, "txn.commit", parent, op);
    commit_span = span.id();
    MRA_RETURN_IF_ERROR(txn->Commit());
  }
  MRA_RETURN_IF_ERROR(ReplayReply({}, writer, log, parent, op));
  log->End(parent);

  auto read_lock = shadow->ReadLock();
  MRA_ASSIGN_OR_RETURN(const Relation* after,
                       shadow->catalog().GetRelation("orders"));
  mra::storage::Encoder record;
  {
    SpanLog::Scope span(log, "storage.encode", commit_span, op,
                        SpanLog::Kind::kDetail);
    record.PutU8(0);
    record.PutU64(0);
    record.PutU64(0);
    record.PutU32(1);
    record.PutRelation(*after);
  }
  SpanLog::Scope span(log, "storage.wal_append", commit_span, op,
                      SpanLog::Kind::kDetail);
  return scratch_wal->Append(record.buffer(), /*sync=*/false);
}

}  // namespace

void RunIngest(const RunOptions& options, Report* report) {
  const uint64_t seed = options.seed;
  const std::string dir_prefix =
      options.out_dir + "/ingest-" + std::to_string(getpid());
  HostSpeed host;
  SetupParts setup;
  std::unique_ptr<ServedDatabase> served;
  std::string dir;
  for (int i = 0; i < kSetupRuns; ++i) {
    served.reset();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
    dir = dir_prefix + "-db" + std::to_string(i);
    auto made = ServedDatabase::Make(
        DurableOptions(dir), 2,
        [&] { return OrderRows(seed, 0, kWindow, kCustomers); }, &setup);
    if (!made.ok()) {
      report->Fail("setup: " + made.status().ToString());
      return;
    }
    served = std::move(*made);
    host.Sample();
  }
  report->Note("data: window of " + std::to_string(kWindow) +
               " distinct orders over " + std::to_string(kCustomers) +
               " customers; " + std::to_string(kBatch) +
               " rows in and out per bracket");
  report->Note("flush: WAL record flushed to the OS per commit, no fsync "
               "(DatabaseOptions::sync_commits = false, the default)");
  mra::Database* db = served->db();
  mra::net::Client& writer = served->client(0);
  mra::net::Client& reader = served->client(1);
  const std::string wal_path = db->wal_path();

  // Window position p: brackets [0, p) have committed.  The writer bumps
  // `started` before sending bracket p and `committed` after its reply, so
  // a reader's result must match a position in [committed, started].
  std::atomic<uint64_t> started{0}, committed{0};
  uint64_t p = 0;
  uint64_t wal_bytes = 0, delta_bytes = 0, exact_wal_bytes = 0;
  uint64_t brackets = 0;

  // One writer bracket; returns its latency in ms, or a negative value on
  // failure (the bracket rolled back and p stays).
  auto bracket = [&]() -> double {
    ++report->attempted;
    const std::string text = BracketText(seed, p);
    const uint64_t wal0 = FileSize(wal_path);
    started.store(p + 1);
    const int64_t t0 = NowNs();
    mra::Result<std::vector<Relation>> result = writer.ExecuteScript(text);
    const int64_t t1 = NowNs();
    if (!result.ok()) {
      report->OpFailed("bracket " + std::to_string(p) + ": " +
                       result.status().ToString());
      return -1;
    }
    if (!result->empty()) report->Fail("bracket returned a result set");
    const uint64_t appended = FileSize(wal_path) - wal0;
    if (brackets < kExactOps) exact_wal_bytes += appended;
    ++brackets;
    wal_bytes += appended;
    delta_bytes += DeltaBytes(seed, p);
    committed.store(++p);
    return NsToMs(t1 - t0);
  };

  // The reader: closed-loop lookups until `stop`, each checked against the
  // window positions it may have seen.
  struct ReaderTally {
    Samples ms;
    uint64_t attempted = 0, failed = 0, wrong = 0;
    std::string first_wrong;
  };
  uint64_t next_read = 0;
  auto read_loop = [&](const std::atomic<bool>& stop, ReaderTally* tally) {
    while (!stop.load()) {
      const int64_t key =
          LookupKey(seed ^ kReaderSalt, next_read++, kCustomers);
      const std::string text = LookupText(key);
      ++tally->attempted;
      const uint64_t lo = committed.load();
      const int64_t t0 = NowNs();
      mra::Result<Relation> result = reader.Query(text);
      const int64_t t1 = NowNs();
      const uint64_t hi = started.load();
      if (!result.ok()) {
        ++tally->failed;
        continue;
      }
      tally->ms.Add(NsToMs(t1 - t0));
      bool ok = false;
      for (uint64_t q = lo; q <= hi && !ok; ++q) {
        ok = MatchesWindow(*result, seed, key, q);
      }
      if (!ok && tally->wrong++ == 0) {
        tally->first_wrong = "lookup of customer " + std::to_string(key) +
                             " matches no window in [" + std::to_string(lo) +
                             ", " + std::to_string(hi) + "]";
      }
    }
  };

  // Runs the writer on this thread and the reader on another for `seconds`;
  // `per_bracket` (optional) runs after each successful bracket.
  auto run_phase = [&](double seconds, Samples* writes, ReaderTally* reads,
                       const std::function<void(uint64_t)>& per_bracket) {
    std::atomic<bool> stop{false};
    std::thread reader_thread(read_loop, std::cref(stop), reads);
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline) {
      const uint64_t op = p;
      const double ms = bracket();
      if (ms < 0) continue;
      writes->Add(ms);
      if (per_bracket) per_bracket(op);
      host.MaybeSample();
    }
    stop.store(true);
    reader_thread.join();
    report->attempted += reads->attempted;
    report->failed += reads->failed;
    if (reads->wrong > 0) {
      report->Fail(reads->first_wrong + " (" + std::to_string(reads->wrong) +
                   " wrong lookups)");
    }
  };

  for (int i = 0; i < kWarmupOps; ++i) bracket();
  report->attempted = 0;
  report->failed = 0;
  brackets = wal_bytes = delta_bytes = exact_wal_bytes = 0;

  Samples writes;
  ReaderTally reads;
  run_phase(PhaseSeconds(options), &writes, &reads, nullptr);
  ReportLatencies(report, "", writes, host);
  ReportLatencies(report, "read_", reads.ms, host);
  setup.ReportTo(report, host);
  if (brackets < kExactOps) {
    report->Fail("ran " + std::to_string(brackets) +
                 " brackets; the exact counts need " +
                 std::to_string(kExactOps));
  }
  report->Set("write_amp",
              delta_bytes > 0 ? static_cast<double>(wal_bytes) /
                                    static_cast<double>(delta_bytes)
                              : 0,
              "ratio", brackets);
  report->Set("storage.wal_bytes_per_commit",
              static_cast<double>(exact_wal_bytes) / kExactOps, "B",
              kExactOps);
  report->Set("storage.delta_bytes_per_commit",
              static_cast<double>(DeltaBytes(seed, 0)), "B", 1);

  const std::string shadow_dir = dir_prefix + "-shadow";
  const std::string scratch_path = dir_prefix + "-scratch.wal";
  if (options.trace) {
    // The shadow starts from the live window so both apply the same
    // brackets to the same state.
    auto shadow =
        LoadDatabase(DurableOptions(shadow_dir),
                     OrderRows(seed, p * kBatch, kWindow, kCustomers));
    auto scratch_wal = mra::storage::WalWriter::Open(scratch_path);
    if (!shadow.ok() || !scratch_wal.ok()) {
      report->Fail("traced set-up: " + (shadow.ok() ? scratch_wal.status()
                                                    : shadow.status())
                                           .ToString());
      return;
    }
    SpanLog log;
    Samples traced;
    ReaderTally traced_reads;
    ExecCounts all;
    run_phase(PhaseSeconds(options), &traced, &traced_reads,
              [&](uint64_t op) {
                ExecCounts counts;
                Status s = ReplayBracket(shadow->get(), writer,
                                         BracketText(seed, op), &*scratch_wal,
                                         &log, op, &counts);
                if (!s.ok()) report->Fail("replay: " + s.ToString());
                AccumulateCounts(counts, nullptr, &all);
              });
    ReportExecCounts(report, all, traced.size(), all, traced.size());
    ReportTrace(report, log, traced, writes,
                options.out_dir + "/spans-ingest.jsonl");
  }

  // Before the reopen below, whose WAL replay is a check, not the workload.
  report->Set("peak_rss_mb", PeakRssMb(), "MiB", 1);

  // Durability check: the live relation is exactly window p, and reopening
  // the directory recovers the same bag.
  Relation live;
  {
    auto read_lock = db->ReadLock();
    auto rel = db->catalog().GetRelation("orders");
    if (rel.ok()) live = **rel;
  }
  if (!live.Equals(OrderRows(seed, p * kBatch, kWindow, kCustomers)) ||
      live.distinct_size() != kWindow) {
    report->Fail("live orders differ from window " + std::to_string(p));
  }
  served.reset();
  {
    mra::DatabaseOptions reopen;
    reopen.directory = dir;
    auto reopened = mra::Database::Open(reopen);
    auto rel = reopened.ok() ? (*reopened)->catalog().GetRelation("orders")
                             : mra::Result<const Relation*>(reopened.status());
    if (!rel.ok() || !(*rel)->Equals(live) ||
        (*rel)->distinct_size() != kWindow) {
      report->Fail("reopened database differs from the live one");
    } else {
      report->Note("reopen check: " + std::to_string(p) +
                   " brackets recovered, " + std::to_string(kWindow) +
                   " distinct rows");
    }
  }
  std::error_code ec;
  for (const std::string& path : {dir, shadow_dir, scratch_path}) {
    fs::remove_all(path, ec);
  }
}

}  // namespace perfbench
