// The three workloads.  Each sets up its system several times (setup_s is
// the median), warms up, measures for RunOptions::seconds — half untraced
// and half traced when RunOptions::trace is set — checks every output, and
// fills the report.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Embedded SQL session, workers = 2: TPC-H-style query streams.
void RunAnalytic(const RunOptions& options, Report* report);

/// Loopback server, one client: point lookups on a few thousand rows.
void RunServe(const RunOptions& options, Report* report);

/// Durable database behind the loopback server: a writer connection slides
/// a fixed-size window of literal rows while a reader connection looks up.
void RunIngest(const RunOptions& options, Report* report);

/// First op index of a traced phase's op sequence.
inline constexpr uint64_t kTracedOpBase = uint64_t{1} << 40;

/// Seconds of each measured phase: the whole run, or half of it for each of
/// the untraced and traced phases.
inline double PhaseSeconds(const RunOptions& options) {
  return options.trace ? options.seconds / 2 : options.seconds;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
