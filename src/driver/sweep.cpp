#include "driver/sweep.hpp"

#include <chrono>

#include "memsim/sharded.hpp"
#include "memsim/trace.hpp"
#include "tenant/runner.hpp"

namespace comet::driver {

namespace {

/// Display label for a trace-file run: the file's basename.
std::string trace_display_name(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

std::vector<SweepJob> build_matrix(const config::ExperimentSpec& spec) {
  spec.validate();

  std::vector<memsim::WorkloadProfile> profiles;
  if (!spec.tenants.empty()) {
    // Multi-tenant run: one pseudo-workload labelled like the shared
    // run; the tenant specs carry the actual demand.
    memsim::WorkloadProfile pseudo;
    pseudo.name = tenant::multi_workload_name(spec.tenants);
    profiles.push_back(std::move(pseudo));
  } else if (!spec.trace_file.empty()) {
    // On-disk replay: one pseudo-workload per trace file, labelled with
    // its basename; the profile is never used for synthesis.
    memsim::WorkloadProfile pseudo;
    pseudo.name = trace_display_name(spec.trace_file);
    profiles.push_back(std::move(pseudo));
  } else {
    profiles = spec.workloads;
  }

  // The scheduler axis: no [controller] section runs the legacy direct
  // replay (one cell, no controller); otherwise one cell per policy.
  std::vector<std::optional<sched::ControllerConfig>> controllers;
  if (spec.policies.empty()) {
    controllers.push_back(std::nullopt);
  } else {
    for (const auto policy : spec.policies) {
      sched::ControllerConfig controller = spec.controller;
      controller.policy = policy;
      controllers.emplace_back(controller);
    }
  }

  std::vector<SweepJob> jobs;
  jobs.reserve(spec.devices.size() * spec.channels.size() *
               controllers.size() * spec.run_threads.size() *
               profiles.size() * spec.requests.size() *
               spec.seeds.size());
  for (const auto& device : spec.devices) {
    for (const int channels : spec.channels) {
      DeviceSpec configured = device;
      if (channels > 0) configured.set_channels(channels);
      for (const auto& controller : controllers) {
        for (const int run_threads : spec.run_threads) {
          for (const auto& profile : profiles) {
            for (const auto requests : spec.requests) {
              for (const auto seed : spec.seeds) {
                SweepJob job;
                job.device = configured;
                job.profile = profile;
                job.requests = static_cast<std::size_t>(requests);
                job.seed = seed;
                job.line_bytes = spec.line_bytes;
                job.trace_path = spec.trace_file;
                job.cpu_ghz = spec.cpu_ghz;
                job.controller = controller;
                job.run_threads = run_threads;
                job.telemetry = spec.telemetry;
                job.profile_spec = spec.profile;
                job.tenants = spec.tenants;
                job.tenant_mapping = spec.tenant_mapping;
                job.experiment = spec.name;
                job.config_file = spec.source;
                jobs.push_back(std::move(job));
              }
            }
          }
        }
      }
    }
  }
  return jobs;
}

memsim::SimStats run_job(const SweepJob& job, telemetry::Collector* collector,
                         prof::Profiler* profiler) {
  const auto engine = job.device.make_engine(job.controller, job.run_threads);
  const auto started = std::chrono::steady_clock::now();
  const auto finish = [&](memsim::SimStats stats) {
    if (profiler) {
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      profiler->set_run_totals(wall_s, stats.reads + stats.writes);
    }
    return stats;
  };
  if (!job.tenants.empty()) {
    tenant::MultiTenantJob multi;
    multi.tenants = job.tenants;
    multi.mapping = job.tenant_mapping;
    multi.default_requests = job.requests;
    multi.seed = job.seed;
    multi.line_bytes = job.line_bytes;
    multi.cpu_ghz = job.cpu_ghz;
    return finish(
        tenant::run_multi_tenant(*engine, multi, collector, profiler));
  }
  if (!job.trace_path.empty()) {
    memsim::TraceFileSource source(
        job.trace_path, memsim::TraceConfig{.cpu_clock_ghz = job.cpu_ghz,
                                            .line_bytes = job.line_bytes});
    return finish(
        engine->run(source, job.profile.name, collector, profiler));
  }
  auto source = memsim::TraceGenerator(job.profile, job.seed)
                    .stream(job.requests, job.line_bytes);
  return finish(engine->run(source, job.profile.name, collector, profiler));
}

std::vector<std::unique_ptr<prof::Profiler>> make_profilers(
    const std::vector<SweepJob>& jobs) {
  std::vector<std::unique_ptr<prof::Profiler>> profilers(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].profile_spec.enabled()) {
      profilers[i] = std::make_unique<prof::Profiler>(jobs[i].profile_spec);
    }
  }
  return profilers;
}

std::uint64_t estimate_sweep_requests(const std::vector<SweepJob>& jobs) {
  std::uint64_t total = 0;
  for (const SweepJob& job : jobs) {
    if (!job.tenants.empty()) {
      // Merged run plus one baseline replay per tenant: 2x each stream.
      for (const auto& tenant : job.tenants) {
        const std::uint64_t requests =
            tenant.trace_file.empty()
                ? (tenant.requests > 0 ? tenant.requests : job.requests)
                : 0;  // Trace tenants: length unknown until EOF.
        total += 2 * requests;
      }
    } else if (job.trace_path.empty()) {
      total += job.requests;
    }
  }
  return total;
}

std::vector<memsim::SimStats> run_sweep(
    const std::vector<SweepJob>& jobs, int threads,
    std::vector<std::unique_ptr<telemetry::Collector>>* collectors,
    std::vector<std::unique_ptr<prof::Profiler>>* profilers) {
  std::vector<memsim::SimStats> results(jobs.size());
  if (collectors) {
    // One collector per telemetry-enabled job, created before any
    // helper starts so the jobs only ever read the vector.
    collectors->clear();
    collectors->resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].telemetry.enabled()) {
        (*collectors)[i] =
            std::make_unique<telemetry::Collector>(jobs[i].telemetry);
      }
    }
  }
  const auto job_collector = [&](std::size_t i) -> telemetry::Collector* {
    return collectors ? (*collectors)[i].get() : nullptr;
  };
  const auto job_profiler = [&](std::size_t i) -> prof::Profiler* {
    return profilers ? (*profilers)[i].get() : nullptr;
  };
  memsim::for_each_index(
      jobs.size(), memsim::resolve_run_threads(threads),
      [&](std::size_t i, bool) {
        results[i] = run_job(jobs[i], job_collector(i), job_profiler(i));
      });
  return results;
}

}  // namespace comet::driver
