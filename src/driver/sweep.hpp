#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/experiment.hpp"
#include "driver/registry.hpp"
#include "memsim/stats.hpp"
#include "memsim/trace_gen.hpp"
#include "prof/profiler.hpp"
#include "sched/controller.hpp"
#include "telemetry/telemetry.hpp"

/// Parallel sweep engine: fans the experiment matrix out across threads
/// (memsim::for_each_index). Each job is fully independent — the
/// request stream is either synthesized lazily inside the job from
/// (profile, seed) or streamed from an on-disk NVMain trace, and the
/// polymorphic memsim::Engine built per job (DeviceSpec::make_engine)
/// is const — so results are bit-identical for any thread count, and
/// the Fig. 9 matrix parallelises with near-linear speedup.
///
/// The matrix itself comes from a config::ExperimentSpec — the document
/// the CLI flags spell or a `--config` one (parse_args reads both), its
/// device tokens and workload names already resolved to definitions by
/// the reader — so both entry points expand through one path.
namespace comet::driver {

/// One cell of the sweep matrix. `device` is either a flat architecture
/// or a hybrid DRAM-cache + backend design point. When `trace_path` is
/// empty the worker synthesizes `requests` requests from (profile,
/// seed); otherwise it streams the on-disk trace (profile.name then only
/// labels the run — by convention the trace file's basename) and
/// requests/seed are ignored.
struct SweepJob {
  DeviceSpec device;
  memsim::WorkloadProfile profile;
  std::size_t requests = 20000;
  std::uint64_t seed = 42;
  std::uint32_t line_bytes = 128;
  std::string trace_path;  ///< Non-empty: replay this NVMain trace file.
  double cpu_ghz = 2.0;    ///< Trace cycle -> time conversion.

  /// Engaged: run behind a sched::Controller front-end (the backend
  /// tier of hybrid devices); disengaged: legacy direct replay.
  std::optional<sched::ControllerConfig> controller;

  /// Per-channel replay worker threads inside this one job
  /// (memsim::resolve_run_threads semantics; orthogonal to the sweep's
  /// own job-level `--threads`). Results are bit-identical across
  /// values — the axis only moves wall-clock.
  int run_threads = 1;

  /// Observability for this cell (disabled by default — the replay
  /// results are identical either way; only the recording happens).
  comet::telemetry::TelemetrySpec telemetry;

  /// Host-side observability for this cell (wall-clock twin of
  /// `telemetry`): stage/LanePool profiling, heartbeat progress and SLO
  /// gating. Also never changes the replay results.
  comet::prof::ProfSpec profile_spec;

  /// Multi-tenant front-end: non-empty replaces the single stream with
  /// the interleaved tenant streams (tenant::run_multi_tenant —
  /// `requests` then serves as the per-tenant default and `profile`
  /// only labels the run). Empty = classic single-stream cell.
  std::vector<config::TenantSpec> tenants;
  config::TenantMapping tenant_mapping = config::TenantMapping::kPartition;

  // --- Provenance, echoed into the JSON report.
  std::string experiment;   ///< Experiment name ("cli" for flag runs).
  std::string config_file;  ///< The --config path; empty for flag runs.
};

/// Validates a spec and expands it into the job matrix: devices ×
/// channels × policies × run_threads × workloads × requests × seeds.
/// The channel override re-validates each adjusted model.
std::vector<SweepJob> build_matrix(const config::ExperimentSpec& spec);

/// Runs one job serially (the reference path the tests compare against):
/// streams the job's source through the device's engine in O(1) memory.
/// A non-null `collector` is passed to the engine's run (the caller
/// builds it from job.telemetry and reads it back afterwards). A
/// non-null `profiler` is likewise passed and additionally receives
/// the job's wall time and request total (set_run_totals) when the run
/// finishes; neither observer changes the simulated stats.
memsim::SimStats run_job(const SweepJob& job,
                         telemetry::Collector* collector = nullptr,
                         prof::Profiler* profiler = nullptr);

/// One Profiler per profiling-enabled job (indexed like `jobs`; null
/// entries otherwise), built eagerly on the calling thread — hoisted
/// out of run_sweep so the heartbeat can start watching the profilers'
/// progress counters *before* the sweep runs.
std::vector<std::unique_ptr<prof::Profiler>> make_profilers(
    const std::vector<SweepJob>& jobs);

/// Upper-bound request total for the whole sweep (the heartbeat's ETA
/// denominator): synthetic cells contribute `requests` (tenant cells
/// twice — the merged run plus the per-tenant baseline replays); trace
/// cells contribute 0 (stream length unknown until EOF), so a
/// trace-only sweep reports progress without an ETA.
std::uint64_t estimate_sweep_requests(const std::vector<SweepJob>& jobs);

/// Runs every job on the calling thread and up to `threads` - 1 helper
/// threads (memsim::for_each_index; `threads` is resolved as in
/// memsim::resolve_run_threads, so 0 → hardware concurrency; 1 → fully
/// serial in the calling thread). Results are indexed like `jobs`
/// regardless of execution order. A throwing job stops the sweep from
/// starting more jobs; once every thread is joined, the error of the
/// lowest-indexed job that threw is rethrown on the calling thread.
///
/// A non-null `collectors` receives one Collector per job (indexed like
/// `jobs`; null entries for jobs whose telemetry is disabled), built on
/// the calling thread before any worker starts and passed to each
/// job's run — each job records into its own collector, so the sweep
/// needs no telemetry synchronization.
///
/// A non-null `profilers` (from make_profilers, indexed like `jobs`)
/// passes each entry to its job's run the same way. The caller
/// owns the vector so the heartbeat can poll the progress counters —
/// the only profiler state written while a job is still running.
std::vector<memsim::SimStats> run_sweep(
    const std::vector<SweepJob>& jobs, int threads,
    std::vector<std::unique_ptr<telemetry::Collector>>* collectors = nullptr,
    std::vector<std::unique_ptr<prof::Profiler>>* profilers = nullptr);

}  // namespace comet::driver
