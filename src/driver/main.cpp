#include <chrono>
#include <cstdint>
#include <memory>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/experiment.hpp"
#include "driver/options.hpp"
#include "driver/registry.hpp"
#include "driver/report.hpp"
#include "driver/sweep.hpp"
#include "memsim/metrics.hpp"
#include "memsim/trace.hpp"
#include "memsim/trace_gen.hpp"
#include "prof/heartbeat.hpp"
#include "prof/profiler.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "util/format.hpp"

namespace {

/// Creates `path` and fills it with `write(stream)`. An unopenable path
/// or a failed write is reported on stderr and returns false.
template <typename Write>
bool write_file(const std::string& path, Write&& write) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "comet_sim: cannot open '" << path << "' for writing\n";
    return false;
  }
  write(out);
  out.close();
  if (out.fail()) {
    std::cerr << "comet_sim: error writing '" << path << "' (disk full?)\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace comet::driver;

  Options options;
  try {
    options = parse_args(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    std::cerr << "comet_sim: " << e.what() << "\n\n" << usage();
    return 2;
  }
  if (options.help) {
    std::cout << usage();
    return 0;
  }
  if (options.list_devices) {
    for (const auto& name : known_devices()) std::cout << name << "\n";
    for (const auto& name : known_hybrid_devices()) std::cout << name << "\n";
    return 0;
  }
  if (options.list_workloads) {
    for (const auto& profile : comet::memsim::spec_like_profiles()) {
      std::cout << profile.name << "\n";
    }
    return 0;
  }
  if (options.list_policies) {
    std::cout << policy_list();
    return 0;
  }
  const comet::config::ExperimentSpec& spec = options.spec;
  if (!options.dump_trace.empty()) {
    // Stream the synthesized workload straight to the NVMain text format
    // (no materialized vector), so even huge traces dump in O(1) memory.
    try {
      const auto& profile = spec.workloads.front();
      const std::size_t requests = spec.requests.front();
      auto source = comet::memsim::TraceGenerator(profile, spec.seeds.front())
                        .stream(requests, spec.line_bytes);
      if (!write_file(options.dump_trace, [&](std::ostream& out) {
            comet::memsim::write_trace(
                out, source,
                comet::memsim::TraceConfig{.cpu_clock_ghz = spec.cpu_ghz,
                                           .line_bytes = spec.line_bytes});
          })) {
        return 1;
      }
      std::cout << "wrote " << options.dump_trace << " (" << requests
                << " requests, " << profile.name << ")\n";
    } catch (const std::exception& e) {
      std::cerr << "comet_sim: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }
  if (!options.dump_config.empty()) {
    // Round-trip the resolved experiment back to disk: registry tokens
    // and profile names are already expanded to fully inline
    // definitions, so the dumped spec replays anywhere `--config` does —
    // the config analogue of --dump-trace.
    try {
      if (!write_file(options.dump_config, [&](std::ostream& out) {
            comet::config::write_experiment(out, spec);
          })) {
        return 1;
      }
      std::cout << "wrote " << options.dump_config << " ("
                << spec.devices.size() << " device(s), "
                << spec.workloads.size() << " workload(s))\n";
    } catch (const std::exception& e) {
      std::cerr << "comet_sim: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  try {
    // Write JSON to a sibling temp file and rename on success: an
    // unwritable path fails in milliseconds (not after a multi-minute
    // run), and a failed run never clobbers a previous results file.
    const std::string json_tmp =
        options.json_path.empty() ? "" : options.json_path + ".tmp";
    std::ofstream out;
    if (!json_tmp.empty()) {
      out.open(json_tmp);
      if (!out) {
        std::cerr << "comet_sim: cannot open '" << json_tmp
                  << "' for writing\n";
        return 1;
      }
    }

    const auto jobs = build_matrix(spec);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::unique_ptr<comet::telemetry::Collector>> collectors;

    // Host observability: the profilers exist before the sweep starts so
    // the heartbeat can watch their progress counters live; the sweep
    // attaches them per job. Heartbeat-only runs still profile nothing —
    // the "host" JSON object stays null without --profile.
    auto profilers = make_profilers(jobs);
    std::unique_ptr<comet::prof::Heartbeat> heartbeat;
    const std::uint64_t heartbeat_ms =
        jobs.empty() ? 0 : jobs.front().profile_spec.progress_ms;
    if (heartbeat_ms > 0) {
      std::vector<const comet::prof::Profiler*> watched;
      watched.reserve(profilers.size());
      for (const auto& profiler : profilers) {
        if (profiler) watched.push_back(profiler.get());
      }
      if (!watched.empty()) {
        heartbeat = std::make_unique<comet::prof::Heartbeat>(
            std::cerr, heartbeat_ms, std::move(watched),
            estimate_sweep_requests(jobs));
      }
    }

    const auto results =
        run_sweep(jobs, options.threads, &collectors, &profilers);
    if (heartbeat) heartbeat->stop();
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start);

    print_report(std::cout, jobs, results, options.csv);
    print_host_profile(std::cout, jobs, results, &profilers, options.csv);
    std::cout << "\n" << jobs.size() << " run(s) in " << elapsed.count()
              << " s\n";

    // SLO health gates: evaluated per record against the finished stats
    // (plus each job's host wall clock). The report is still written in
    // full — exit 3 replaces exit 0 only after everything is on disk,
    // so CI can both archive the JSON and fail the build.
    std::vector<std::vector<comet::memsim::SloOutcome>> slo_outcomes(
        jobs.size());
    bool slo_failed = false;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto& predicates = jobs[i].profile_spec.slo;
      if (predicates.empty()) continue;
      slo_outcomes[i] = comet::memsim::evaluate_slo(
          predicates, {results[i], profilers[i].get()});
      for (const auto& outcome : slo_outcomes[i]) {
        if (outcome.pass) continue;
        slo_failed = true;
        std::cerr << "comet_sim: SLO violation: "
                  << outcome.predicate.to_string() << " (actual "
                  << comet::util::shortest_double(outcome.value) << ") on "
                  << jobs[i].device.name << "/" << jobs[i].profile.name
                  << "\n";
      }
    }

    // Telemetry exports: every traced cell lands in one Chrome trace
    // (one process group per run × stage × channel) and one timeline
    // CSV, labelled run-by-run. All cells share one spec, so the paths
    // come from any job.
    std::vector<comet::telemetry::TraceRun> trace_runs;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!collectors[i]) continue;
      std::string label = jobs[i].device.name + "/" + jobs[i].profile.name;
      if (jobs.size() > 1) label = "job" + std::to_string(i) + " " + label;
      trace_runs.push_back({std::move(label), collectors[i].get()});
    }
    if (!trace_runs.empty() && jobs.front().telemetry.tracing()) {
      const std::string& path = jobs.front().telemetry.trace_path;
      if (!write_file(path, [&](std::ostream& out) {
            comet::telemetry::write_chrome_trace(out, trace_runs);
          })) {
        return 1;
      }
      std::uint64_t events = 0;
      std::uint64_t dropped = 0;
      for (const auto& run : trace_runs) {
        events += run.collector->recorded_events();
        dropped += run.collector->dropped_events();
      }
      std::cout << "wrote " << path << " (" << events << " trace events";
      if (dropped > 0) std::cout << ", " << dropped << " dropped";
      std::cout << ")\n";
    }
    if (!trace_runs.empty() && !jobs.front().telemetry.metrics_csv.empty()) {
      const std::string& path = jobs.front().telemetry.metrics_csv;
      if (!write_file(path, [&](std::ostream& out) {
            comet::telemetry::write_timeline_csv(out, trace_runs);
          })) {
        return 1;
      }
      std::cout << "wrote " << path << "\n";
    }

    if (!json_tmp.empty()) {
      write_json(out, jobs, results, &collectors, &profilers, &slo_outcomes);
      out.close();
      if (out.fail() ||
          std::rename(json_tmp.c_str(), options.json_path.c_str()) != 0) {
        std::cerr << "comet_sim: error writing '" << options.json_path
                  << "' (disk full?)\n";
        std::remove(json_tmp.c_str());
        return 1;
      }
      std::cout << "wrote " << options.json_path << "\n";
    }
    if (slo_failed) return 3;
  } catch (const std::exception& e) {
    std::cerr << "comet_sim: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
