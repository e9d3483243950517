// An interactive shell for XRA — the textual extended relational algebra,
// after PRISMA/DB's primary database language.
//
//   $ ./build/examples/xra_repl [database-directory] [--batch-size N]
//   $ ./build/examples/xra_repl --workers 4 --query-mem-budget-mb 64
//   $ ./build/examples/xra_repl --connect host:port
//
// With a directory argument the database is durable (WAL + checkpoint) and
// your relations survive restarts.  With --connect the shell speaks the
// wire protocol to a running mra_serverd instead of embedding an engine
// (statements run server-side; \metrics shows the *server's* registry).
// Every ExecConfig knob is a flag (mra::ParseConfigFlags — the same
// registry behind `set <knob> = <value>;` and `\set`): --batch-size,
// --workers, --statement-timeout-ms, … (--help lists them;
// docs/PARALLELISM.md has the reference).  In --connect mode the server's
// own settings apply.  --slow-query-ms N arms the embedded slow-query log
// (\slowlog): queries at or over N ms land there as JSON lines (0 logs
// everything).
//
// Both modes drive one mra::session::Session, so the loop below never
// branches on where the database lives.  Statements end with ';'.
// Examples:
//
//   create beer(name: string, brewery: string, alcperc: real);
//   insert(beer, {('pils', 'Guineken', 5.0) : 2, ('stout', 'Kirin', 4.2)});
//   ? select(%3 > 4.5, beer);
//   begin x := unique(project([%1], beer)); ? x end;
//   update(beer, select(%2 = 'Guineken', beer), [%1, %2, %3 * 1.1]);
//
// Meta commands: \h help, \d list relations, \q quit, \checkpoint.

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>

#include "mra/common/config.h"
#include "mra/obs/metrics.h"
#include "mra/obs/slow_log.h"
#include "mra/obs/trace.h"
#include "mra/session/session.h"
#include "mra/util/printer.h"

namespace {

using namespace mra;  // NOLINT — example brevity

// Ctrl-C cancels the query in flight, not the shell: the handler may only
// flip this flag (async-signal-safe store); the embedded interpreter and
// the remote client both poll it at batch/wait boundaries.  It is reset
// before each statement so a stray Ctrl-C at the prompt cannot kill the
// next query (docs/GOVERNANCE.md).
std::shared_ptr<std::atomic<bool>> g_cancel =
    std::make_shared<std::atomic<bool>>(false);

void OnInterrupt(int) { g_cancel->store(true, std::memory_order_relaxed); }

constexpr char kHelp[] = R"(XRA statements (end with ';'):
  create <name>(<attr>: <type>, ...)    define a relation (types: bool,
                                        int, decimal, real, string, date)
  drop <name>                           remove a relation
  insert(<name>, E)                     R <- R union E
  delete(<name>, E)                     R <- R - E
  update(<name>, E, [e1, ..., en])      R <- (R - E) union proj(R intersect E)
  <name> := E                           bind a temporary (inside begin/end)
  ? E                                   query
  explain [analyze] E                   show plans; analyze also executes
  analyze <name>                        collect optimizer statistics
  set <knob> = <value>                  session config override (\set lists)
  begin s1; ...; sn end                 transaction bracket (atomic)
  constraint <name> (E)                 integrity constraint: E must stay
                                        empty in every committed state
  drop constraint <name>

Expressions E:
  <name> | {(v, ...) : n, ...} | empty(a: t, ...)
  union(E, E) | diff(E, E) | intersect(E, E) | product(E, E)
  join(cond, E, E) | select(cond, E) | project([e, ...], E) | unique(E)
  groupby([%i, ...], agg(%i), ..., E)   with agg in cnt sum avg min max

Conditions/expressions use %1, %2, ... for attributes; literals include
42, 3.14, 'text', true, date'1994-02-14', dec'9.99'.

Meta: \h help, \d relations, \e <E> explain plans, \ea <E> explain analyze,
      \analyze <name> collect optimizer statistics (same as `analyze <name>;`),
      \set show all knobs, \set <knob> <value> override one (same registry
      as `set <knob> = <value>;` — workers, batch_size, parallel_threshold, …),
      \metrics [json|prom|reset] process metrics, \trace [on|off] spans,
      \slowlog slow-query log, \checkpoint, \q quit.

Ctrl-C cancels the query in flight (the shell survives); --statement-timeout-ms
and --query-mem-budget-mb bound every query (docs/GOVERNANCE.md); --workers N
enables intra-query parallelism (docs/PARALLELISM.md).)";

constexpr char kClientHelp[] =
    R"(Connected to a remote server: statements run server-side (the
statements are the same as the embedded shell's).

Meta: \h help, \metrics [prom|text] server metrics (JSON by default),
      \top live server introspection (sessions, latency histogram, sheds),
      \slowlog the server's slow-query log (JSON lines),
      \trace [id] server-side trace spans (defaults to your last query),
      \last your last query's server-side stats (id, phases, operators),
      \cancel <id> kill the running query with that id (any session; ids
      show in \top), \ping liveness probe, \shutdown drain and stop the
      server, \q quit.  Ctrl-C cancels your own in-flight query.)";

void PrintRelations(const Database& db) {
  for (const std::string& name : db.catalog().RelationNames()) {
    auto rel = db.catalog().GetRelation(name);
    if (rel.ok()) {
      std::cout << "  " << (*rel)->schema().ToString() << "  ["
                << (*rel)->size() << " tuples, " << (*rel)->distinct_size()
                << " distinct]\n";
    }
  }
}

void PrintResult(const Relation& result) {
  // `explain` and `analyze` deliver their text as a one-tuple relation;
  // print the text itself rather than a one-cell table.
  if ((result.schema().name() == "explain" ||
       result.schema().name() == "analyze") &&
      result.schema().arity() == 1 && result.distinct_size() == 1) {
    std::cout << result.begin()->first.at(0).string_value();
    return;
  }
  util::PrintOptions print_options;
  print_options.max_rows = 40;
  util::PrintRelation(std::cout, result, print_options);
}

void PrintLatencySummary(const obs::HistogramData& h) {
  std::cout << "  query latency (exec.query_us): count=" << h.count
            << " p50=" << h.Quantile(0.50) << "us p95=" << h.Quantile(0.95)
            << "us p99=" << h.Quantile(0.99) << "us max=" << h.max_micros
            << "us\n";
}

void PrintServerTop(const net::ServerStatsReply& top) {
  std::cout << "server up " << top.uptime_us / 1'000'000 << "s, sessions "
            << top.active_sessions << " active / " << top.sessions_served
            << " served, queries=" << top.queries << " sheds=" << top.sheds
            << " slow_logged=" << top.slow_logged << "\n";
  PrintLatencySummary(top.query_latency);
  if (top.sessions.empty()) {
    std::cout << "  (no live sessions)\n";
    return;
  }
  std::cout << "  " << std::left << std::setw(6) << "id" << std::setw(16)
            << "peer" << std::setw(5) << "busy" << std::setw(9) << "queries"
            << std::setw(12) << "last_us" << std::setw(9) << "idle_ms"
            << "current query\n";
  for (const net::ServerSessionInfo& s : top.sessions) {
    std::cout << "  " << std::left << std::setw(6) << s.id << std::setw(16)
              << s.peer << std::setw(5) << (s.busy ? "*" : "-")
              << std::setw(9) << s.queries << std::setw(12)
              << s.last_latency_us << std::setw(9) << s.idle_ms
              << (s.current_query.empty() ? "(idle)" : s.current_query)
              << "\n";
  }
  std::cout << std::right;
}

void PrintLastQueryStats(const session::Session& sess) {
  const lang::QueryStats* stats = sess.last_query_stats();
  if (stats == nullptr) {
    std::cout << "no per-query stats yet (run a query first; remote "
                 "servers need protocol v3).\n";
    return;
  }
  std::cout << "query " << stats->query_id << ": rows=" << stats->result_rows
            << " total=" << stats->total_us << "us (bind=" << stats->bind_us
            << " optimize=" << stats->optimize_us
            << " lower=" << stats->lower_us << " exec=" << stats->exec_us
            << ")\n";
  for (const lang::QueryStats::OpStats& op : stats->operators) {
    std::cout << "  " << std::string(2 * op.depth, ' ') << op.name
              << " rows=" << op.metrics.rows_emitted
              << " weighted=" << op.metrics.weighted_rows;
    if (op.metrics.batches_emitted > 0) {
      std::cout << " batches=" << op.metrics.batches_emitted;
    }
    if (op.metrics.timed) {
      std::cout << " time=" << op.metrics.total_ns() / 1000 << "us";
    }
    std::cout << "\n";
  }
}

// Meta commands: the shared set works against any Session; embedded-only
// (\d, \e, \ea, \trace, \checkpoint, local metrics) and remote-only
// (\ping, \shutdown) commands reach through the concrete type's escape
// hatch.  Returns false when the shell should exit; commands that exit
// without the farewell banner set *exit_code (otherwise it stays -1).
bool HandleMeta(const std::string& line, session::Session& sess,
                session::EmbeddedSession* embedded,
                session::RemoteSession* remote, int* exit_code) {
  if (line == "\\q") {
    return false;
  }
  if (line == "\\h") {
    std::cout << (embedded ? kHelp : kClientHelp) << "\n";
    return true;
  }
  if (embedded != nullptr) {
    if (line == "\\d") {
      PrintRelations(embedded->database());
    } else if (line.rfind("\\ea ", 0) == 0) {
      auto explained = embedded->interpreter().ExplainAnalyze(line.substr(4));
      std::cout << (explained.ok() ? *explained
                                   : explained.status().ToString())
                << "\n";
    } else if (line.rfind("\\e ", 0) == 0) {
      auto explained = embedded->interpreter().Explain(line.substr(3));
      std::cout << (explained.ok() ? *explained
                                   : explained.status().ToString())
                << "\n";
    } else if (line.rfind("\\analyze ", 0) == 0) {
      // Sugar for the statement form: routes through the session so remote
      // and embedded behave identically.
      auto result = sess.Execute("analyze " + line.substr(9) + ";");
      if (result.ok()) {
        for (const session::QueryResult::Item& item : result->items) {
          PrintResult(item.relation);
          std::cout << "\n";
        }
      } else {
        std::cout << result.status().ToString() << "\n";
      }
    } else if (line == "\\set") {
      std::cout << embedded->interpreter().options().Describe();
    } else if (line.rfind("\\set ", 0) == 0) {
      // \set <knob> shows one knob; \set <knob> <value> overrides it — the
      // same registry as the `set <knob> = <value>;` statement.
      std::string rest = line.substr(5);
      auto space = rest.find(' ');
      if (space == std::string::npos) {
        auto value = embedded->interpreter().options().Get(rest);
        std::cout << (value.ok() ? rest + " = " + *value
                                 : value.status().ToString())
                  << "\n";
      } else {
        std::string knob = rest.substr(0, space);
        std::string value = rest.substr(rest.find_first_not_of(' ', space));
        Status s = embedded->interpreter().SetOption(knob, value);
        if (s.ok()) {
          std::cout << knob << " = "
                    << *embedded->interpreter().options().Get(knob) << "\n";
        } else {
          std::cout << s.ToString() << "\n";
        }
      }
    } else if (line == "\\metrics") {
      std::cout << obs::MetricsRegistry::Global().RenderText();
    } else if (line == "\\metrics json") {
      auto stats = sess.Stats();
      std::cout << (stats.ok() ? *stats : stats.status().ToString()) << "\n";
    } else if (line == "\\metrics prom") {
      std::cout << obs::MetricsRegistry::Global().RenderPrometheus();
    } else if (line == "\\slowlog") {
      std::string lines = obs::SlowQueryLog::Global().RenderJsonLines();
      std::cout << (lines.empty() ? "(slow-query log empty)\n" : lines);
    } else if (line == "\\last") {
      PrintLastQueryStats(sess);
    } else if (line == "\\metrics reset") {
      obs::MetricsRegistry::Global().Reset();
      std::cout << "metrics reset.\n";
    } else if (line == "\\trace on") {
      obs::Tracer::Global().SetEnabled(true);
      obs::Tracer::Global().Clear();
      std::cout << "tracing on.\n";
    } else if (line == "\\trace off") {
      obs::Tracer::Global().SetEnabled(false);
      std::cout << "tracing off.\n";
    } else if (line == "\\trace") {
      std::cout << obs::Tracer::Global().Render();
    } else if (line == "\\checkpoint") {
      Status s = embedded->database().Checkpoint();
      std::cout << (s.ok() ? "checkpointed.\n" : s.ToString() + "\n");
    } else if (line.rfind("\\cancel", 0) == 0) {
      std::cout << "embedded queries run in this thread — press Ctrl-C to "
                   "cancel the one in flight.\n";
    } else {
      std::cout << "unknown meta command (try \\h)\n";
    }
    return true;
  }
  if (line == "\\metrics") {
    auto stats = sess.Stats();
    std::cout << (stats.ok() ? *stats : stats.status().ToString()) << "\n";
  } else if (line == "\\metrics prom" || line == "\\metrics text") {
    auto stats = remote->client().ServerStats(line.substr(9));
    std::cout << (stats.ok() ? *stats : stats.status().ToString()) << "\n";
  } else if (line == "\\top") {
    auto top = remote->client().FetchServerStats();
    if (top.ok()) {
      PrintServerTop(*top);
    } else {
      std::cout << top.status().ToString() << "\n";
    }
  } else if (line == "\\slowlog") {
    auto top = remote->client().FetchServerStats();
    if (!top.ok()) {
      std::cout << top.status().ToString() << "\n";
    } else if (top->slow_log.empty()) {
      std::cout << "(server slow-query log empty)\n";
    } else {
      for (const std::string& entry : top->slow_log) {
        std::cout << entry << "\n";
      }
    }
  } else if (line == "\\trace" || line.rfind("\\trace ", 0) == 0) {
    uint64_t id = line == "\\trace"
                      ? sess.last_query_id()
                      : std::strtoull(line.c_str() + 7, nullptr, 10);
    auto top = remote->client().FetchServerStats(id);
    if (!top.ok()) {
      std::cout << top.status().ToString() << "\n";
    } else if (top->trace.empty()) {
      std::cout << "(no trace spans"
                << (id != 0 ? " for query " + std::to_string(id) : "")
                << "; is the server tracing? mra_serverd --trace)\n";
    } else {
      std::cout << top->trace;
    }
  } else if (line == "\\last") {
    PrintLastQueryStats(sess);
  } else if (line.rfind("\\cancel", 0) == 0) {
    uint64_t id = line.size() > 8
                      ? std::strtoull(line.c_str() + 8, nullptr, 10)
                      : 0;
    if (id == 0) {
      std::cout << "usage: \\cancel <query-id>  (running ids show in \\top)\n";
    } else {
      auto delivered = remote->client().Cancel(id);
      if (!delivered.ok()) {
        std::cout << delivered.status().ToString() << "\n";
      } else if (*delivered) {
        std::cout << "cancel delivered to query " << id << ".\n";
      } else {
        std::cout << "query " << id
                  << " is not running (already finished?).\n";
      }
    }
  } else if (line == "\\ping") {
    Status s = sess.Ping();
    std::cout << (s.ok() ? "pong.\n" : s.ToString() + "\n");
  } else if (line == "\\shutdown") {
    Status s = remote->client().RequestShutdown();
    if (!s.ok()) {
      std::cout << s.ToString() << "\n";
    } else {
      std::cout << "server draining; bye.\n";
      *exit_code = 0;
      return false;
    }
  } else {
    std::cout << "unknown meta command in --connect mode (try \\h)\n";
  }
  return true;
}

// The line-buffered loop both modes share: accumulate until a trailing
// ';', then Execute() the script through the session.
int RunShell(session::Session& sess, session::EmbeddedSession* embedded,
             session::RemoteSession* remote) {
  std::string buffer;
  std::string line;
  int exit_code = -1;
  while (true) {
    std::cout << (buffer.empty() ? "xra> " : "...> ") << std::flush;
    if (!std::getline(std::cin, line)) break;

    if (buffer.empty() && !line.empty() && line[0] == '\\') {
      if (!HandleMeta(line, sess, embedded, remote, &exit_code)) {
        if (exit_code >= 0) return exit_code;
        break;
      }
      continue;
    }

    buffer += line;
    buffer += '\n';
    // Execute once the statement terminator appears.  `begin … end` blocks
    // also end with ';' after `end`.
    auto trimmed = buffer.find_last_not_of(" \t\n");
    if (trimmed == std::string::npos) {
      buffer.clear();
      continue;
    }
    if (buffer[trimmed] != ';') continue;

    // A Ctrl-C that landed at the prompt must not kill this statement.
    g_cancel->store(false, std::memory_order_relaxed);
    auto result = sess.Execute(buffer);
    if (result.ok()) {
      for (const session::QueryResult::Item& item : result->items) {
        if (!item.query.empty()) std::cout << item.query << "\n";
        PrintResult(item.relation);
      }
    } else {
      std::cout << result.status().ToString() << "\n";
      if (remote != nullptr && !remote->client().connected()) {
        std::cout << "connection lost.\n";
        return 1;
      }
    }
    buffer.clear();
  }
  std::cout << "\nbye.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // ExecConfig-owned flags (--batch-size, --workers, --no-optimize, …) go
  // through the shared funnel; what remains is REPL-specific.
  ExecConfig config;
  if (Status flags = ParseConfigFlags(&argc, argv, &config); !flags.ok()) {
    std::cerr << flags.ToString() << "\n";
    return 1;
  }
  std::string connect_spec;
  std::string directory;
  long long slow_query_ms = -1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect_spec = argv[++i];
    } else if (arg == "--slow-query-ms" && i + 1 < argc) {
      slow_query_ms = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: xra_repl [database-directory] [flags]\n"
                   "  --connect host:port     speak to a running mra_serverd\n"
                   "  --slow-query-ms N       arm the slow-query log\n"
                << ConfigFlagHelp();
      return 0;
    } else {
      directory = std::move(arg);
    }
  }
  obs::SlowQueryLog::Global().SetThresholdMs(slow_query_ms);
  std::signal(SIGINT, OnInterrupt);

  if (!connect_spec.empty()) {
    if (config.governance.statement_timeout_ms != 0 ||
        config.governance.query_mem_budget_bytes != 0) {
      std::cerr << "note: --statement-timeout-ms/--query-mem-budget-mb are "
                   "embedded-engine settings; in --connect mode the "
                   "server's own flags govern queries.\n";
    }
    net::ClientOptions client_options;
    client_options.client_name = "xra_repl";
    client_options.interrupt = g_cancel;
    auto sess_or = session::RemoteSession::Connect(connect_spec,
                                                   client_options);
    if (!sess_or.ok()) {
      std::cerr << "cannot connect to " << connect_spec << ": "
                << sess_or.status().ToString() << "\n";
      return 1;
    }
    session::RemoteSession& sess = **sess_or;
    std::cout << "connected to " << sess.client().server_banner() << " at "
              << connect_spec << " (protocol v"
              << sess.client().server_version() << ").\n"
              << "Type \\h for help, \\q to quit.\n";
    return RunShell(sess, /*embedded=*/nullptr, &sess);
  }

  DatabaseOptions db_options;
  db_options.directory = directory;
  config.governance.cancel_token = g_cancel;
  auto sess_or = session::EmbeddedSession::Open(db_options, config);
  if (!sess_or.ok()) {
    std::cerr << "cannot open database: " << sess_or.status().ToString()
              << "\n";
    return 1;
  }
  session::EmbeddedSession& sess = **sess_or;

  std::cout << "mra XRA shell — a multi-set extended relational algebra "
               "(Grefen & de By, ICDE 1994).\n"
            << (db_options.directory.empty()
                    ? "In-memory database; pass a directory for durability.\n"
                    : "Durable database at " + db_options.directory + ".\n")
            << "Type \\h for help, \\q to quit.\n";
  return RunShell(sess, &sess, /*remote=*/nullptr);
}
