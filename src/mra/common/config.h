// Unified execution configuration: one layered struct for every knob.
// Each field is defined exactly once, here; the language, session, server
// and example layers all consume `ExecConfig` directly.
//
// Two entry points:
//  * field access         — `config.exec.batch_size = 64;`
//  * string-keyed knobs   — `config.Set("workers", "4")` backs the
//    `SET <knob> = <value>;` statement (XRA + SQL) and the REPL `\set`,
//    and ParseConfigFlags maps `--workers 4` / `--no-optimize` style
//    command-line flags onto the same registry, so the REPL and serverd
//    parse flags through one funnel (docs/PARALLELISM.md has the knob
//    reference).

#ifndef MRA_COMMON_CONFIG_H_
#define MRA_COMMON_CONFIG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mra/common/result.h"
#include "mra/common/status.h"

namespace mra {

struct ExecConfig {
  /// Executor shape: batching, kernel selection, parallelism.
  struct Exec {
    /// Rows pulled per NextBatch() call when draining a physical plan;
    /// 0 means the default (1024).
    size_t batch_size = 1024;
    /// Execute through the physical operators (mra/exec); when false the
    /// definitional evaluator (mra/algebra) runs instead.
    bool use_physical_exec = true;
    /// Intra-query parallel degree: number of worker lanes the planner may
    /// give one hash operator.  0 and 1 both mean one lane; higher values
    /// run the hash kernels partitioned over that many lanes when the
    /// operator's estimated input reaches `parallel_threshold`
    /// (docs/PARALLELISM.md).
    size_t workers = 0;
    /// Minimum estimated input cardinality (build+probe for joins) before
    /// the planner gives a hash operator more than one lane; below it the
    /// one-lane kernel wins on fan-out overhead alone.
    uint64_t parallel_threshold = 8192;
    /// In-memory working-set cap, in bytes, for one sort run and one hash
    /// join build chunk: a SortOp whose buffered rows exceed it sorts the
    /// buffer and spills it as a merge run, and a HashJoinOp writes the
    /// build rows past it to run files and joins them chunk by chunk
    /// (docs/EXECUTION.md).  0 means no fixed cap — both still spill at
    /// half the query memory budget when one is armed, and stay fully in
    /// memory otherwise.
    uint64_t sort_spill_bytes = 0;
  } exec;

  /// Per-query governance (docs/GOVERNANCE.md).
  struct Governance {
    /// Statement timeout: a physically-executed query still running this
    /// many milliseconds after it starts is killed at the next batch
    /// boundary with kDeadlineExceeded.  0 disables.
    int64_t statement_timeout_ms = 0;
    /// Per-query memory budget in bytes, charged by the materialising and
    /// hash-building operators; exceeding it kills the query with
    /// kResourceExhausted.  0 means unlimited.
    uint64_t query_mem_budget_bytes = 0;
    /// Optional external cancel flag consulted at every batch boundary —
    /// the REPL points this at its SIGINT flag so Ctrl-C cancels the
    /// in-flight query (a signal handler may only do the atomic store).
    /// The holder resets it to false before each new query.  Not a
    /// string-keyed knob: it is a live handle, not a value.
    std::shared_ptr<std::atomic<bool>> cancel_token;
  } governance;

  /// Plan-level toggles.
  struct Planner {
    /// Run plans through the rule/cost optimizer before execution.
    bool optimize = true;
  } planner;

  /// Session behaviour.
  struct Session {
    /// When the database's (serial) transaction slot is taken, wait for it
    /// instead of failing with TxnError.  Off for interactive/embedded
    /// use; the network server turns it on so concurrent sessions queue
    /// their brackets rather than bounce.
    bool block_on_txn_slot = false;
  } session;

  /// Sets a knob by name ("workers", "batch_size", …; KnobNames() lists
  /// them).  Backs `SET <knob> = <value>;` and `\set`.  Returns
  /// InvalidArgument for an unknown knob or an unparseable value.
  Status Set(std::string_view knob, std::string_view value);

  /// Reads a knob back in its canonical string form.
  Result<std::string> Get(std::string_view knob) const;

  /// All settable knob names, in display order.
  static std::vector<std::string_view> KnobNames();

  /// "knob = value" lines for every knob, for `\set` with no arguments.
  std::string Describe() const;
};

/// Consumes the config-owned flags from an argv (`--batch-size 64`,
/// `--workers 4`, `--no-optimize`, `--query-mem-budget-mb 32`, …),
/// compacting argv in place so the caller's own flag loop only sees what
/// is left.  Every knob in the registry is reachable: value knobs as
/// `--<knob-with-hyphens> V`, boolean knobs as `--<knob>` / `--no-<knob>`.
/// Returns InvalidArgument on a recognised flag with a bad/missing value;
/// unrecognised flags are left untouched for the caller.
Status ParseConfigFlags(int* argc, char** argv, ExecConfig* config);

/// Help text describing the flags ParseConfigFlags accepts, one per line,
/// indented to match the examples' usage blocks.
std::string ConfigFlagHelp();

}  // namespace mra

#endif  // MRA_COMMON_CONFIG_H_
