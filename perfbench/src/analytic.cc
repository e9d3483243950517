// analytic: an embedded sql::SqlSession with workers = 2 runs streams of
// five TPC-H-style queries over a customer/orders/lineitem bag.  Almost all
// of its time is in sql, opt, exec and parallel; net, txn and storage are
// idle apart from the autocommit bracket around each SELECT.

#include <memory>

#include "data.h"
#include "mra/exec/physical_planner.h"
#include "mra/lang/binder.h"
#include "mra/opt/optimizer.h"
#include "mra/sql/sql_parser.h"
#include "mra/sql/translator.h"
#include "mra/txn/database.h"
#include "mra/txn/transaction.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

namespace {

using mra::Database;
using mra::Relation;
using mra::Status;

constexpr int kSetupRuns = 7;
constexpr int kWarmupOps = 1;
// Streams whose exact counts are reported; every stream runs the same five
// queries, so any prefix gives the same per-stream numbers.
constexpr uint64_t kExactOps = 2;

const char* const kTables[] = {"customer", "orders", "lineitem"};

// Generates the bag, bulk-loads it through Transaction::Insert and
// ANALYZEs every table.
mra::Result<std::unique_ptr<Database>> Setup(uint64_t seed, SetupParts* parts,
                                             TpchData* data) {
  const int64_t t0 = NowNs();
  *data = MakeTpch(seed);
  const int64_t t1 = NowNs();
  MRA_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open());
  for (const Relation* rel : {&data->customer, &data->orders,
                              &data->lineitem}) {
    MRA_RETURN_IF_ERROR(db->CreateRelation(rel->schema()));
    MRA_ASSIGN_OR_RETURN(std::unique_ptr<mra::Transaction> txn, db->Begin());
    MRA_RETURN_IF_ERROR(txn->Insert(rel->schema().name(), *rel));
    MRA_RETURN_IF_ERROR(txn->Commit());
  }
  const int64_t t2 = NowNs();
  for (const char* table : kTables) {
    MRA_RETURN_IF_ERROR(db->Analyze(table));
  }
  const int64_t t3 = NowNs();
  parts->generate_s.Add(NsToS(t1 - t0));
  parts->load_s.Add(NsToS(t2 - t1));
  parts->analyze_s.Add(NsToS(t3 - t2));
  parts->connect_s.Add(0);  // embedded: nothing to connect
  parts->total_s.Add(NsToS(t3 - t0));
  return db;
}

// One query of a traced stream, replayed the way SqlSession autocommits a
// SELECT: begin, parse, translate, render (Interpreter::ExecuteStmt renders
// the statement for the slow-query log and again for the result callback),
// evaluate, commit.
Status ReplayQuery(Database* db, const mra::ExecConfig& config, Query q,
                   const TpchOracle& oracle, SpanLog* log, uint32_t parent,
                   uint64_t op, ExecCounts* counts, Report* report) {
  std::unique_ptr<mra::Transaction> txn;
  {
    SpanLog::Scope span(log, "txn.begin", parent, op);
    MRA_ASSIGN_OR_RETURN(txn, db->Begin());
  }
  std::vector<mra::sql::SqlStatement> parsed;
  {
    SpanLog::Scope span(log, "sql.parse", parent, op);
    MRA_ASSIGN_OR_RETURN(parsed, mra::sql::ParseSql(QuerySql(q)));
  }
  mra::lang::Stmt stmt;
  {
    SpanLog::Scope span(log, "sql.translate", parent, op);
    MRA_ASSIGN_OR_RETURN(stmt, mra::sql::TranslateStatement(parsed.at(0), *txn));
  }
  {
    SpanLog::Scope span(log, "lang.render", parent, op);
    if (stmt.ToString().empty() || stmt.ToString().empty()) {
      return Status::Internal("empty statement rendering");
    }
  }
  MRA_ASSIGN_OR_RETURN(Relation result, EvaluateTraced(*stmt.expr, *txn, config,
                                                       log, parent, op, counts));
  {
    SpanLog::Scope span(log, "txn.commit", parent, op);
    MRA_RETURN_IF_ERROR(txn->Commit());
  }
  {
    SpanLog::Scope check(log, "harness", parent, op, SpanLog::Kind::kHarness);
    if (!result.Equals(oracle.expected[static_cast<int>(q)])) {
      report->Fail(std::string("replayed ") + QueryName(q) +
                   " differs from the oracle");
    }
  }
  // The session frees the result once the callback has seen it.
  SpanLog::Scope span(log, "exec.release", parent, op);
  result = Relation();
  return Status::OK();
}

// Drains the ORDER BY plan batch by batch and checks that the sort keys
// never decrease (a materialised Relation has no order to check).
Status CheckSortOrder(Database* db, const mra::ExecConfig& config,
                      Report* report) {
  MRA_ASSIGN_OR_RETURN(std::vector<mra::sql::SqlStatement> parsed,
                       mra::sql::ParseSql(QuerySql(Query::kOrderBy)));
  auto read_lock = db->ReadLock();
  MRA_ASSIGN_OR_RETURN(mra::lang::Stmt stmt,
                       mra::sql::TranslateStatement(parsed.at(0),
                                                    db->catalog()));
  MRA_ASSIGN_OR_RETURN(mra::PlanPtr plan,
                       mra::lang::BindRelExpr(*stmt.expr, db->catalog()));
  mra::opt::Optimizer optimizer(&db->catalog());
  MRA_ASSIGN_OR_RETURN(plan, optimizer.Optimize(std::move(plan)));
  MRA_ASSIGN_OR_RETURN(mra::exec::PhysOpPtr root,
                       mra::exec::LowerPlan(plan, db->catalog(), nullptr,
                                            config));
  MRA_RETURN_IF_ERROR(root->Open());
  mra::exec::RowBatch batch;
  int64_t prev_ship = -1, prev_key = -1;
  uint64_t rows = 0;
  while (true) {
    MRA_RETURN_IF_ERROR(root->NextBatch(batch));
    if (batch.empty()) break;
    for (const mra::exec::Row& row : batch) {
      const int64_t ship = row.tuple.at(0).int_value();
      const int64_t key = row.tuple.at(1).int_value();
      if (ship < prev_ship || (ship == prev_ship && key < prev_key)) {
        report->Fail("ORDER BY emitted (" + std::to_string(ship) + ", " +
                     std::to_string(key) + ") after (" +
                     std::to_string(prev_ship) + ", " +
                     std::to_string(prev_key) + ")");
        break;
      }
      prev_ship = ship;
      prev_key = key;
      rows += row.count;
    }
  }
  root->Close();
  report->Note("orderby emission order checked over " + std::to_string(rows) +
               " rows");
  return Status::OK();
}

}  // namespace

void RunAnalytic(const RunOptions& options, Report* report) {
  HostSpeed host(2);  // a session thread and a pool lane run at once
  SetupParts setup;
  std::unique_ptr<Database> db;
  TpchData data;
  for (int i = 0; i < kSetupRuns; ++i) {
    db.reset();
    auto opened = Setup(options.seed, &setup, &data);
    if (!opened.ok()) {
      report->Fail("setup: " + opened.status().ToString());
      return;
    }
    db = std::move(*opened);
    host.Sample();
  }
  report->Note("data: " + std::to_string(data.customer.size()) +
               " customers, " + std::to_string(data.orders.size()) +
               " orders, " + std::to_string(data.lineitem.distinct_size()) +
               " distinct line items (" + std::to_string(data.lineitem.size()) +
               " with multiplicity)");
  const TpchOracle oracle = ComputeTpchOracle(data);
  data = TpchData{};

  mra::ExecConfig config;
  config.exec.workers = 2;  // the session thread plus one pool lane
  mra::sql::SqlSession session(db.get(), config);
  uint64_t next_op = 0;

  // One stream through the real session; returns its latency in ms, or a
  // negative value when a query failed.  Result checks run inside the
  // callback and are taken off the clock.
  auto run_stream = [&](uint64_t op) -> double {
    ++report->attempted;
    int64_t check_ns = 0;
    const int64_t t0 = NowNs();
    for (Query q : StreamOrder(options.seed, op)) {
      int results = 0;
      Status s = session.Execute(
          QuerySql(q), [&](const std::string&, const Relation& r) {
            const int64_t c0 = NowNs();
            ++results;
            if (!r.Equals(oracle.expected[static_cast<int>(q)])) {
              report->Fail(std::string(QueryName(q)) + " of op " +
                           std::to_string(op) + " differs from the oracle");
            }
            check_ns += NowNs() - c0;
          });
      if (!s.ok() || results != 1) {
        report->OpFailed("stream " + std::to_string(op) + " " + QueryName(q) +
                         ": " + s.ToString());
        return -1;
      }
    }
    return NsToMs(NowNs() - t0 - check_ns);
  };

  for (int i = 0; i < kWarmupOps; ++i) run_stream(next_op++);
  report->attempted = 0;
  report->failed = 0;

  Samples untraced;
  const double phase_s = PhaseSeconds(options);
  int64_t deadline = NowNs() + static_cast<int64_t>(phase_s * 1e9);
  while (NowNs() < deadline) {
    const double ms = run_stream(next_op++);
    if (ms >= 0) untraced.Add(ms);
    host.MaybeSample();
  }

  if (options.trace) {
    SpanLog log;
    Samples traced;
    ExecCounts exact, all;
    uint64_t traced_ops = 0;
    // The traced ops are their own seeded sequence, so the exact counts
    // over its first ops do not depend on how many untraced ops ran.
    next_op = kTracedOpBase;
    deadline = NowNs() + static_cast<int64_t>(phase_s * 1e9);
    while (NowNs() < deadline) {
      const uint64_t op = next_op++;
      const double ms = run_stream(op);
      if (ms < 0) continue;
      traced.Add(ms);
      ExecCounts counts;
      {
        SpanLog::Scope op_span(&log, "analytic.stream", 0, op,
                               SpanLog::Kind::kOp);
        for (Query q : StreamOrder(options.seed, op)) {
          SpanLog::Scope group(&log, std::string("analytic.") + QueryName(q),
                               op_span.id(), op, SpanLog::Kind::kGroup);
          Status s = ReplayQuery(db.get(), config, q, oracle, &log,
                                 group.id(), op, &counts, report);
          if (!s.ok()) report->Fail("replay: " + s.ToString());
        }
      }
      AccumulateCounts(counts, traced_ops++ < kExactOps ? &exact : nullptr,
                       &all);
    }
    if (traced_ops < kExactOps) {
      report->Fail("traced phase ran " + std::to_string(traced_ops) +
                   " streams; the exact counts need " +
                   std::to_string(kExactOps));
    }
    ReportExecCounts(report, exact, kExactOps, all, traced_ops);
    ReportTrace(report, log, traced, untraced,
                options.out_dir + "/spans-analytic.jsonl");
  }

  ReportLatencies(report, "", untraced, host);
  setup.ReportTo(report, host);
  Status order = CheckSortOrder(db.get(), config, report);
  if (!order.ok()) report->Fail("orderby drain: " + order.ToString());
  report->Set("peak_rss_mb", PeakRssMb(), "MiB", 1);
}

}  // namespace perfbench
