#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "config/device_spec.hpp"
#include "config/serialize.hpp"
#include "memsim/trace_gen.hpp"

/// The declarative experiment API: one document describes a full
/// comet_sim run — devices, workloads, request counts, seeds, channel
/// overrides and trace files — and expands into the sweep matrix
/// without touching C++. The comet_sim flags are a second spelling of
/// the same document (config/knobs.hpp maps each flag to its key).
/// Device tokens and workload names resolve to definitions when the
/// document is read, so a spec holds definitions only.
///
/// Document shape (`--config`):
///
///     [experiment]
///     name = "fig9"
///     devices = ["comet", "hybrid-comet"]   # registry tokens / all
///     workloads = ["gcc_like", "lbm_like"]  # profile names / all
///     requests = 20000                      # scalar or array (axis)
///     seed = [1, 2, 3]                      # scalar or array (axis)
///     channels = [8, 16]                    # scalar or array (axis);
///                                           # 0 keeps the device default
///     line_bytes = 128
///     cache_mb = 128                        # every hybrid device's cache:
///     cache_ways = 16                       # folded in once all devices
///     cache_policy = "write-no-allocate"    # are read; flat ones stay flat
///
///     [[device]]                            # inline device definitions
///     base = "comet"                        # (appended after names)
///     name = "comet-16ch"
///     [device.timing]
///     channels = 16
///
///     [[workload]]                          # inline workload profiles
///     name = "scan"
///     pattern = "streaming"
///
///     [controller]                          # scheduled replay (optional)
///     policy = ["fcfs", "read-first"]       # scalar or array (axis)
///     read_queue_depth = 32                 # 0 = unbounded
///     write_queue_depth = 32
///     drain_high_watermark = 28             # keys that refine a policy
///     drain_low_watermark = 12              # need it on the axis
///     run_threads = [1, 8]                  # scalar or array (axis);
///                                           # 0 = hardware threads
///
///     [telemetry]                           # observability (optional)
///     trace_out = "run.trace.json"          # Chrome trace-event JSON
///     trace_limit = 1000000                 # event cap (0 = unlimited)
///     metrics_interval_ns = 1000000         # epoch metrics time-series
///     metrics_csv = "timeline.csv"          # also dump the timeline
///
///     [profile]                             # host observability (optional)
///     enabled = true                        # stage/lane wall profiling
///     progress_ms = 500                     # live stderr heartbeat
///
///     [slo]                                 # run health gates (optional)
///     assert = "p99_read_latency_ns<=2500"  # violation -> exit 3
///
///     [tenant]                              # multi-tenant run (optional)
///     mapping = "partition"                 # or "interleave"
///     [tenant.web]                          # one section per stream
///     workload = "gcc_like"                 # built-in profile name
///     interarrival_ns = 50.0                # rate override (0 = profile's)
///     burstiness = 0.5                      # open-loop burst knob [0, 1)
///     [tenant.batch]
///     trace_file = "batch.nvt"              # trace tenant
///
/// A `[controller]` holding only `run_threads` shards the direct replay
/// without engaging scheduling (results are bit-identical for any
/// thread count either way, so the axis measures wall-clock only).
///
/// The matrix expands devices × channels × policies × run_threads ×
/// workloads × requests × seeds in that nesting order, devices ordered
/// as read: named ones first, then inline definitions (same for
/// workloads).
namespace comet::config {

struct ExperimentSpec {
  std::string name = "experiment";

  std::vector<DeviceSpec> devices;
  std::vector<memsim::WorkloadProfile> workloads;

  // --- Sweep axes. Single-element vectors reproduce the CLI flags; a
  // --- longer vector multiplies the matrix.
  std::vector<std::uint64_t> requests = {20000};
  std::vector<std::uint64_t> seeds = {42};
  std::vector<int> channels = {0};  ///< 0 keeps each device's topology.

  /// Scheduling-policy axis: empty = legacy direct replay (no
  /// controller stage). Otherwise one matrix cell per policy, every
  /// cell sharing `controller`'s queue depths and drain watermarks.
  std::vector<sched::Policy> policies;
  sched::ControllerConfig controller;

  /// Sharded-replay axis: per-channel replay worker threads per run
  /// (memsim::resolve_run_threads semantics — 0 = one per hardware
  /// thread). Orthogonal to the scheduling axis; results are
  /// bit-identical across values.
  std::vector<int> run_threads = {1};

  /// Observability: request tracing and/or epoch metrics, applied to
  /// every matrix cell (each cell records into its own Collector).
  /// Default-constructed = disabled; never affects the replay results.
  comet::telemetry::TelemetrySpec telemetry;

  /// Host-side observability: run profiling, the live progress
  /// heartbeat and SLO health gates ([profile] / [slo] sections, the
  /// --profile/--progress/--assert-slo flags). Applied to every matrix
  /// cell (each cell profiles into its own Profiler); never affects
  /// the replay results.
  comet::prof::ProfSpec profile;

  /// Multi-tenant front-end: non-empty turns every matrix cell into an
  /// interleaved run of these streams (plus per-tenant run-alone
  /// baselines). The tenant specs then define the demand — workloads
  /// and trace_file must stay empty. List order fixes the 1-based
  /// tenant ids; parse_experiment orders streams by name.
  std::vector<TenantSpec> tenants;
  TenantMapping tenant_mapping = TenantMapping::kPartition;

  std::uint32_t line_bytes = 128;
  std::string trace_file;  ///< Non-empty: replay instead of synthesis.
  double cpu_ghz = 2.0;

  /// Provenance label: the config file path, or "" for CLI/programmatic
  /// specs. Carried into the JSON report's config_file field.
  std::string source;

  /// Throws std::invalid_argument on an inconsistent spec: no devices,
  /// no demand (workloads, trace file or tenants), workloads alongside
  /// a trace file, workloads or a trace file alongside tenants, empty
  /// axes, or an empty inline device.
  void validate() const;
};

/// Parses a whole experiment document. `resolver` expands the tokens of
/// the `devices` list and `base` references inside inline [[device]]
/// tables (an empty one rejects both); `workloads` names expand to
/// built-in profiles, `all` to memsim::spec_like_profiles(). A
/// [[device]] table with its own `source` (toml::Table) reports its
/// errors against that source. The `cache_*` keys fold into every
/// hybrid device through hybrid::TieredConfig::set_cache; a device they
/// make invalid fails at the first such key's line. Throws
/// toml::ParseError with source:line diagnostics.
ExperimentSpec parse_experiment(const toml::Document& doc,
                                const DeviceResolver& resolver);

/// Serializes a spec as a parse_experiment-compatible document, every
/// device and workload written in full, so it reads back without a
/// registry.
void write_experiment(std::ostream& os, const ExperimentSpec& spec);

std::string experiment_to_toml(const ExperimentSpec& spec);

}  // namespace comet::config
