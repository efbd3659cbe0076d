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
/// into slowdown and fairness numbers.
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
/// `collector` when set), then replays every tenant's identical
/// sub-stream alone — same engine, same controller and thread count,
/// no collector — to fill the run-alone baselines, per-tenant
/// slowdown, max_slowdown and Jain's index. `profiler`, when set,
/// observes both: the baselines tick its progress counter and time
/// into its "baseline_replays" stage. Throws std::invalid_argument on
/// an invalid tenant list.
memsim::SimStats run_multi_tenant(const memsim::Engine& engine,
                                  const MultiTenantJob& job,
                                  telemetry::Collector* collector = nullptr,
                                  prof::Profiler* profiler = nullptr);

}  // namespace comet::tenant
