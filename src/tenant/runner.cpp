#include "tenant/runner.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "memsim/sharded.hpp"
#include "memsim/trace.hpp"
#include "memsim/trace_gen.hpp"
#include "prof/profiler.hpp"
#include "tenant/fairness.hpp"
#include "tenant/multi_source.hpp"

namespace comet::tenant {
namespace {

/// Per-tenant seed split (SplitMix64 increment): `salt` separates the
/// generator's stream from the pacer's so re-timing never correlates
/// with the addresses being timed.
std::uint64_t tenant_seed(std::uint64_t seed, std::size_t index,
                          std::uint64_t salt) {
  return seed + 0x9e3779b97f4a7c15ULL * (2 * index + 1 + salt);
}

}  // namespace

std::unique_ptr<memsim::RequestSource> make_tenant_stream(
    const MultiTenantJob& job, std::size_t index) {
  if (index >= job.tenants.size()) {
    throw std::invalid_argument("make_tenant_stream: no such tenant");
  }
  const config::TenantSpec& spec = job.tenants[index];
  spec.validate();
  const auto tenant_id = static_cast<std::uint16_t>(index + 1);
  const auto tenant_count = static_cast<std::uint16_t>(job.tenants.size());

  std::unique_ptr<memsim::RequestSource> inner;
  double mean_interarrival_ns = spec.interarrival_ns;
  if (!spec.trace_file.empty()) {
    // Trace tenants keep their native arrival times unless the spec
    // overrides the rate (mean 0 disables the pacer's re-timing).
    memsim::TraceConfig trace_config;
    trace_config.cpu_clock_ghz = job.cpu_ghz;
    trace_config.line_bytes = job.line_bytes;
    inner = std::make_unique<memsim::TraceFileSource>(spec.trace_file,
                                                      trace_config);
  } else {
    const std::uint64_t requests =
        spec.requests != 0 ? spec.requests : job.default_requests;
    // Generator arrivals are always re-drawn by the pacer (that is the
    // open-loop model), so the effective rate falls back to the
    // profile's own when the spec does not override it.
    if (mean_interarrival_ns <= 0.0) {
      mean_interarrival_ns = spec.profile.avg_interarrival_ns;
    }
    inner = std::make_unique<memsim::GeneratorSource>(
        memsim::TraceGenerator(spec.profile,
                               tenant_seed(job.seed, index, /*salt=*/0))
            .stream(requests, job.line_bytes));
  }
  return std::make_unique<PacedSource>(
      std::move(inner), tenant_id, tenant_count, job.mapping,
      mean_interarrival_ns, spec.burstiness,
      tenant_seed(job.seed, index, /*salt=*/1), job.line_bytes);
}

std::unique_ptr<memsim::RequestSource> make_multi_stream(
    const MultiTenantJob& job) {
  config::validate_tenants(job.tenants);
  std::vector<std::unique_ptr<memsim::RequestSource>> streams;
  streams.reserve(job.tenants.size());
  for (std::size_t i = 0; i < job.tenants.size(); ++i) {
    streams.push_back(make_tenant_stream(job, i));
  }
  return std::make_unique<MultiSource>(std::move(streams));
}

std::string multi_workload_name(
    const std::vector<config::TenantSpec>& tenants) {
  std::string name;
  for (const auto& tenant : tenants) {
    if (!name.empty()) name += '+';
    name += tenant.name;
  }
  return name;
}

memsim::SimStats run_multi_tenant(const memsim::Engine& engine,
                                  const MultiTenantJob& job,
                                  telemetry::Collector* collector,
                                  prof::Profiler* profiler) {
  config::validate_tenants(job.tenants);
  if (job.tenants.empty()) {
    throw std::invalid_argument("run_multi_tenant: no tenants");
  }

  // Run-alone baselines: the identical sub-stream on the same
  // controller (bit-identical at any thread count), without the
  // collector so the shared run's trace stays the run's trace, and
  // without the profiler so its stages and pools describe the shared
  // run. Index 0 is the shared run, on the caller; index i + 1 replays
  // tenant i. Up to run_threads - 1 helpers replay baselines beside the
  // shared run on one-thread twins of the engine, on hardware threads
  // the running replays leave spare (memsim::for_each_index). The
  // caller replays whatever is left on the engine itself, threads and
  // all, so at one run thread, or on a busy host, the baselines replay
  // one after another once the shared run is done.
  const std::size_t tenants = job.tenants.size();
  const auto multi = make_multi_stream(job);
  const auto alone_engine = engine.serial_twin();
  memsim::SimStats stats;
  std::vector<double> alone_avg_latency_ns(tenants);
  std::vector<double> alone_wall_s(tenants);
  memsim::for_each_index(
      tenants + 1, engine.run_threads(),
      [&](std::size_t index, bool on_caller) {
        if (index == 0) {
          stats = engine.run(*multi, multi_workload_name(job.tenants),
                             collector, profiler);
          return;
        }
        const std::size_t i = index - 1;
        const auto start = std::chrono::steady_clock::now();
        const auto alone = make_tenant_stream(job, i);
        const memsim::Engine& replayer = on_caller ? engine : *alone_engine;
        const memsim::SimStats alone_stats =
            replayer.run(*alone, job.tenants[i].name);
        alone_avg_latency_ns[i] = alone_stats.avg_latency_ns();
        if (profiler) {
          profiler->add_progress(alone_stats.reads + alone_stats.writes);
        }
        alone_wall_s[i] = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      },
      /*spare_only=*/true);
  if (profiler) {
    double wall_s = 0.0;
    for (const double s : alone_wall_s) wall_s += s;
    profiler->record_stage("baseline_replays", wall_s);
  }

  // A tenant whose stream produced no requests never reached a lane;
  // make the breakdown dense before naming it.
  if (stats.tenants.size() < tenants) {
    stats.tenants.resize(tenants);
  }
  for (std::size_t i = 0; i < tenants; ++i) {
    stats.tenants[i].name = job.tenants[i].name;
    stats.tenants[i].alone_avg_latency_ns = alone_avg_latency_ns[i];
  }

  apply_fairness(stats);
  return stats;
}

}  // namespace comet::tenant
