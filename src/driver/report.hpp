#pragma once

#include <ostream>
#include <vector>

#include "driver/sweep.hpp"
#include "memsim/metrics.hpp"
#include "memsim/stats.hpp"

/// Human tables and machine-readable JSON for comet_sim sweep results.
namespace comet::driver {

/// Per-run table (one row per device × workload) followed by a per-device
/// summary averaged over workloads — the Fig. 9 presentation — and the
/// hybrid, scheduler and tenant breakdowns of the records that have
/// them. The per-run, hybrid-tier and fairness columns are the console
/// columns of the metric table (memsim/metrics.hpp). `csv` switches
/// every table to CSV.
void print_report(std::ostream& os, const std::vector<SweepJob>& jobs,
                  const std::vector<memsim::SimStats>& results, bool csv);

/// "Host profile" tables for the --profile runs: per-record wall time,
/// throughput and source wait (the host rows of the metric table), pool
/// utilization and queue pressure, followed by the per-stage wall-time
/// breakdown. Prints nothing when no record was profiled (`profilers`
/// null, or no entry with spec().profiling()). `results` and
/// `profilers`, when given, must be indexed like `jobs`.
void print_host_profile(
    std::ostream& os, const std::vector<SweepJob>& jobs,
    const std::vector<memsim::SimStats>& results,
    const std::vector<std::unique_ptr<prof::Profiler>>* profilers, bool csv);

/// BENCH_fig9.json-style record: `{"bench": "comet_sim_sweep",
/// "results": [{device, workload, channels, requests, seed, line_bytes,
/// run_threads, trace_file, experiment, config_file, <metrics>, sched,
/// tenants, ...}, ...]}`. The experiment/config_file pair is the run's
/// config provenance (`"cli"` / `""` for flag-driven runs). `<metrics>`
/// and the tenants/host scalars are the rows of the metric table, at
/// their place and in table order. Numbers are emitted with round-trip
/// precision.
///
/// Telemetry provenance rides along in every record: trace_out /
/// trace_limit / metrics_interval_ns / metrics_csv (null when the
/// corresponding feature is disabled), plus — when `collectors`
/// supplies a Collector for the record — a "telemetry" object (per-
/// stage recorded/dropped counts and the per-bank request heatmap) and
/// the "timeline" array of epoch metrics (null without sampling). A
/// `jq 'del(.results[].telemetry, .results[].timeline, ...)'` therefore
/// diffs a traced run against an untraced one field for field.
/// `collectors`, when given, must be indexed like `jobs` (null entries
/// = telemetry disabled for that job).
///
/// Host observability rides along the same way: a "host" object (whole-
/// job wall time, host throughput, peak RSS, stage timings and LanePool
/// profiles) on records whose job had --profile and a Profiler in
/// `profilers`, and an "slo" object (overall pass plus one check per
/// predicate, skipped checks marked inapplicable) on records with an
/// entry in `slo` — both null otherwise, preserving the jq del() diff
/// contract. `profilers` and `slo`, when given, must be indexed like
/// `jobs` (an empty predicate list in `slo` means "no gating" for that
/// record).
void write_json(
    std::ostream& os, const std::vector<SweepJob>& jobs,
    const std::vector<memsim::SimStats>& results,
    const std::vector<std::unique_ptr<telemetry::Collector>>* collectors =
        nullptr,
    const std::vector<std::unique_ptr<prof::Profiler>>* profilers = nullptr,
    const std::vector<std::vector<memsim::SloOutcome>>* slo = nullptr);

}  // namespace comet::driver
