#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

/// Export formats for collected telemetry: the Chrome trace-event JSON
/// the tentpole promises (loadable in Perfetto / chrome://tracing) and
/// the timeline CSV of the epoch sampler.
namespace comet::telemetry {

/// One traced run to export; `label` prefixes the process names so a
/// multi-job sweep stays readable in one trace file ("comet/gcc_like
/// channel 3"). A null collector is skipped.
struct TraceRun {
  std::string label;
  const Collector* collector = nullptr;
};

/// Writes one Chrome trace-event document covering every run:
///
///   - one process (pid) per (run, stage, channel), named from the run
///     label, the stage name and the channel index;
///   - one thread (tid) per bank carrying "X" complete events (ts =
///     service start, dur = bank-busy time) named "read"/"write", with
///     the full lifecycle in args;
///   - a "channel" thread per process carrying async "queued" spans
///     (arrival → issue, only when the scheduler actually held the
///     request) and instant drain/admit-stall markers;
///   - when any lane hit its event cap, one global "trace-truncated"
///     instant record with the dropped-event count.
///
/// Timestamps are microseconds (the trace-event convention) at 1 ps
/// resolution; within every (pid, tid) track the "X" events are
/// monotonically ordered — scripts/validate_trace.py checks both.
void write_chrome_trace(std::ostream& os, const std::vector<TraceRun>& runs);

/// One scalar TimelinePoint column as the report writers print it;
/// exactly one of `count` and `real` is set.
struct TimelineColumn {
  const char* name;
  std::uint64_t TimelinePoint::*count = nullptr;
  double TimelinePoint::*real = nullptr;
};

/// `epoch`, then `reads` through `bank_busy_ns`: the columns the JSON
/// report's `timeline` objects and the timeline CSV share. Each writer
/// adds its own epoch bounds after `epoch` (`start_ps`/`end_ps` in JSON,
/// `start_ns`/`end_ns` in CSV) and its own number format.
const std::vector<TimelineColumn>& timeline_columns();

/// Writes every run's merged timeline as one CSV (header + one row per
/// run × epoch, runs in order, epochs ascending): the run label, then
/// timeline_columns() with the epoch bounds in nanoseconds.
void write_timeline_csv(std::ostream& os, const std::vector<TraceRun>& runs);

}  // namespace comet::telemetry
