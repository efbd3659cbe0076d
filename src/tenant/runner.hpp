#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/tenant_spec.hpp"
#include "memsim/engine.hpp"
#include "memsim/source.hpp"
#include "memsim/stats.hpp"

/// Multi-tenant run orchestration: the shared interleaved run plus the
/// per-tenant run-alone baselines that turn raw per-tenant latency
/// into slowdown and fairness numbers. The baselines replay on
/// one-thread twins of the engine beside a threaded shared run while
/// the host has hardware threads spare.
namespace comet::tenant {

/// Everything a multi-tenant run needs beyond the engine itself.
struct MultiTenantJob {
  std::vector<config::TenantSpec> tenants;
  config::TenantMapping mapping = config::TenantMapping::kPartition;
  /// Per-tenant request count for specs that leave theirs at 0.
  std::uint64_t default_requests = 20000;
  std::uint64_t seed = 42;
  std::uint32_t line_bytes = 128;
  /// Cycle clock for trace-file tenants (NVMain traces are in cycles).
  double cpu_ghz = 2.0;
};

/// Builds tenant `index`'s paced, tagged, address-mapped stream — the
/// exact sub-stream the merged run interleaves, so replaying it alone
/// reproduces the tenant's share of the shared run request for
/// request. Deterministic in (job.seed, index) only: adding or
/// reordering *other* tenants never perturbs this stream.
std::unique_ptr<memsim::RequestSource> make_tenant_stream(
    const MultiTenantJob& job, std::size_t index);

/// The merged multi-tenant demand stream (a MultiSource over
/// every tenant's make_tenant_stream).
std::unique_ptr<memsim::RequestSource> make_multi_stream(
    const MultiTenantJob& job);

/// "a+b+c" — the workload label of the shared run of `tenants`.
std::string multi_workload_name(
    const std::vector<config::TenantSpec>& tenants);

/// Runs the interleaved stream through `engine` (recording into
/// `collector` when set) and replays every tenant's identical
/// sub-stream alone — same controller, no collector — to fill the
/// run-alone baselines, per-tenant slowdown, max_slowdown and Jain's
/// index. Results do not depend on the thread count.
///
/// The baselines do not wait for the shared run: one
/// memsim::for_each_index loop runs the shared run as index 0 on the
/// caller and tenant i as index i + 1. Up to min(tenants,
/// run_threads - 1) helper threads start with it, no more than the
/// hardware threads the running replays leave spare (spare_only: each
/// helper claims one in running_replay_threads() until it exits, so a
/// sweep's concurrent jobs share them), and replay tenants in index
/// order, taken from one counter, on one-thread twins of the engine
/// (Engine::serial_twin). The caller replays whatever is left on the
/// engine itself once its shared run is done, and joins the helpers.
/// At one run thread, or with no hardware thread spare, there is no
/// helper, and the baselines replay one after another after the
/// shared run. Every thread is joined before the call returns or
/// throws. A failed shared run throws its own error; otherwise a failed
/// baseline throws the error of the lowest-indexed tenant that failed.
///
/// `profiler`, when set, observes the shared run's stages and pools
/// only. Each baseline replay adds its demand requests to the progress
/// counter when it ends, and the "baseline_replays" stage records once
/// the replays' summed wall time; with helpers, that time overlaps the
/// shared run's stages. Throws std::invalid_argument on an invalid
/// tenant list.
memsim::SimStats run_multi_tenant(const memsim::Engine& engine,
                                  const MultiTenantJob& job,
                                  telemetry::Collector* collector = nullptr,
                                  prof::Profiler* profiler = nullptr);

}  // namespace comet::tenant
