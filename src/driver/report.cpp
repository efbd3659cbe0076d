#include "driver/report.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "memsim/metrics.hpp"
#include "telemetry/export.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace comet::driver {

namespace {

using util::json_string;
using util::shortest_double;

/// The rows in `scope` that have a console column, in column order.
std::vector<const memsim::Metric*> metric_columns(memsim::MetricScope scope) {
  std::vector<const memsim::Metric*> columns;
  for (const memsim::Metric& metric : memsim::metrics()) {
    if (metric.scope == scope && metric.column.header) {
      columns.push_back(&metric);
    }
  }
  std::sort(columns.begin(), columns.end(), [](const auto* a, const auto* b) {
    return a->column.position < b->column.position;
  });
  return columns;
}

/// "device", "workload", the columns' headers, then `extra`.
std::vector<std::string> column_headers(
    const std::vector<const memsim::Metric*>& columns,
    std::vector<std::string> extra = {}) {
  std::vector<std::string> headers{"device", "workload"};
  for (const auto* metric : columns) {
    headers.emplace_back(metric->column.header);
  }
  headers.insert(headers.end(), extra.begin(), extra.end());
  return headers;
}

/// The device × workload table over the console columns of the rows in
/// `scope`, one line per record in that scope.
util::Table metric_table(memsim::MetricScope scope,
                         const std::vector<SweepJob>& jobs,
                         const std::vector<memsim::SimStats>& results) {
  const auto columns = metric_columns(scope);
  util::Table table(column_headers(columns));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const memsim::MetricInput in{results[i]};
    if (!columns.front()->applies(in)) continue;
    std::vector<std::string> cells{jobs[i].device.name, jobs[i].profile.name};
    for (const auto* metric : columns) cells.push_back(metric->cell(in));
    table.add_row(std::move(cells));
  }
  return table;
}

void print_table(std::ostream& os, const char* title, const util::Table& table,
                 bool csv) {
  os << title;
  if (csv) table.print_csv(os); else table.print(os);
}

/// The rows written at `place`, as `"name": value` pairs joined by ", "
/// (with a leading ", " unless `lead` is false).
void write_metrics(std::ostream& os, memsim::MetricPlace place,
                   const memsim::MetricInput& in, bool lead = true) {
  const char* separator = lead ? ", " : "";
  for (const memsim::Metric& metric : memsim::metrics()) {
    if (metric.place != place) continue;
    os << separator << '"' << metric.name << "\": " << metric.json(in);
    separator = ", ";
  }
}

}  // namespace

void print_report(std::ostream& os, const std::vector<SweepJob>& jobs,
                  const std::vector<memsim::SimStats>& results, bool csv) {
  if (jobs.size() != results.size()) {
    throw std::invalid_argument("jobs/results size mismatch");
  }
  using util::Table;

  struct Agg {
    double bw = 0.0, epb = 0.0, latency = 0.0;
    int n = 0;
  };
  std::map<std::string, Agg> per_device;
  std::vector<std::string> device_order;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& stats = results[i];
    if (per_device.find(jobs[i].device.name) == per_device.end()) {
      device_order.push_back(jobs[i].device.name);
    }
    auto& agg = per_device[jobs[i].device.name];
    agg.bw += stats.bandwidth_gbps();
    agg.epb += stats.epb_pj_per_bit();
    agg.latency += stats.avg_latency_ns();
    ++agg.n;
  }
  print_table(os, "=== Per-run results ===\n",
              metric_table(memsim::MetricScope::kAlways, jobs, results), csv);

  Table summary({"device", "avg BW (GB/s)", "avg EPB (pJ/bit)", "BW/EPB",
                 "avg latency (ns)"});
  for (const auto& name : device_order) {
    const auto& agg = per_device.at(name);
    const double bw = agg.bw / agg.n;
    const double epb = agg.epb / agg.n;
    summary.add_row({name, Table::num(bw, 2), Table::num(epb, 2),
                     Table::num(epb > 0 ? bw / epb : 0.0, 3),
                     Table::num(agg.latency / agg.n, 1)});
  }
  print_table(os, "\n=== Per-device averages over workloads ===\n", summary,
              csv);

  // Hybrid runs get a tier breakdown: the flat columns above stay
  // comparable across all devices, and the cache behaviour lives here.
  const Table hybrid =
      metric_table(memsim::MetricScope::kHybrid, jobs, results);
  if (hybrid.rows() > 0) {
    print_table(os, "\n=== Hybrid tier breakdown ===\n", hybrid, csv);
  }

  // Scheduled runs get the controller breakdown: how much of the
  // end-to-end latency was controller-queue wait vs device service,
  // what the transaction queues held, and the write-drain activity.
  Table sched({"device", "workload", "policy", "queued (ns)", "service (ns)",
               "p95 read (ns)", "rd occ", "wr occ", "drains",
               "drain stalls", "admit stalls"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& stats = results[i];
    if (!stats.is_scheduled()) continue;
    sched.add_row({jobs[i].device.name, jobs[i].profile.name,
                   stats.sched_policy,
                   Table::num(stats.sched_queue_delay_ns.mean(), 1),
                   Table::num(stats.service_latency_ns.mean(), 1),
                   Table::num(stats.read_latency_ns.p95(), 1),
                   Table::num(stats.read_queue_occupancy.mean(), 2),
                   Table::num(stats.write_queue_occupancy.mean(), 2),
                   std::to_string(stats.write_drains),
                   std::to_string(stats.drain_stalls),
                   std::to_string(stats.admit_stalls)});
  }
  if (sched.rows() > 0) {
    print_table(os, "\n=== Scheduler breakdown ===\n", sched, csv);
  }

  // Multi-tenant runs get the fairness breakdown: per-tenant latency
  // against its own run-alone baseline, plus each run's max slowdown
  // and Jain index over the per-tenant slowdowns.
  Table tenants({"device", "workload", "tenant", "reqs", "avg (ns)",
                 "p99 (ns)", "alone (ns)", "slowdown"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& stats = results[i];
    if (!stats.is_multi_tenant()) continue;
    for (const auto& tenant : stats.tenants) {
      tenants.add_row({jobs[i].device.name, jobs[i].profile.name, tenant.name,
                       std::to_string(tenant.requests()),
                       Table::num(tenant.avg_latency_ns(), 1),
                       Table::num(tenant.latency_ns.p99(), 1),
                       Table::num(tenant.alone_avg_latency_ns, 1),
                       Table::num(tenant.slowdown, 3)});
    }
  }
  if (tenants.rows() > 0) {
    print_table(os, "\n=== Tenant breakdown ===\n", tenants, csv);
    print_table(os, "\n=== Tenant fairness ===\n",
                metric_table(memsim::MetricScope::kMultiTenant, jobs, results),
                csv);
  }
}

void print_host_profile(
    std::ostream& os, const std::vector<SweepJob>& jobs,
    const std::vector<memsim::SimStats>& results,
    const std::vector<std::unique_ptr<prof::Profiler>>* profilers, bool csv) {
  if (!profilers) return;
  if (profilers->size() != jobs.size() || results.size() != jobs.size()) {
    throw std::invalid_argument("jobs/results/profilers size mismatch");
  }
  using util::Table;

  // Wall clock, throughput and source wait are host rows of the metric
  // table; the pool pressure columns follow them.
  const auto columns = metric_columns(memsim::MetricScope::kHostTimed);
  Table host(column_headers(
      columns, {"pool util", "push stalls", "pop waits", "queue max"}));
  Table stages({"device", "workload", "stage", "calls", "wall (s)", "share"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const prof::Profiler* profiler = (*profilers)[i].get();
    if (!profiler || !profiler->spec().profiling()) continue;

    // Pool pressure aggregated across this record's pools (a hybrid run
    // has one pool per tier stage): utilization weighted by worker-time.
    double busy_s = 0.0, capacity_s = 0.0;
    std::uint64_t push_stalls = 0, pop_waits = 0;
    std::size_t queue_high_water = 0;
    for (const auto& pool : profiler->pools()) {
      push_stalls += pool->push_stalls;
      if (pool->queue_high_water > queue_high_water) {
        queue_high_water = pool->queue_high_water;
      }
      for (const auto& worker : pool->workers) {
        busy_s += worker.busy_s;
        pop_waits += worker.pop_waits;
      }
      capacity_s +=
          pool->wall_s * static_cast<double>(pool->workers.size());
    }
    const double utilization = capacity_s > 0.0 ? busy_s / capacity_s : 0.0;
    const memsim::MetricInput in{results[i], profiler};
    std::vector<std::string> cells{jobs[i].device.name, jobs[i].profile.name};
    for (const auto* metric : columns) cells.push_back(metric->cell(in));
    cells.insert(cells.end(),
                 {Table::num(utilization, 3), std::to_string(push_stalls),
                  std::to_string(pop_waits), std::to_string(queue_high_water)});
    host.add_row(std::move(cells));

    const double wall_s = profiler->wall_seconds();
    for (const auto& [name, stage] : profiler->stages()) {
      stages.add_row({jobs[i].device.name, jobs[i].profile.name, name,
                      std::to_string(stage.calls),
                      Table::num(stage.wall_s, 3),
                      Table::num(wall_s > 0.0 ? stage.wall_s / wall_s : 0.0,
                                 3)});
    }
  }
  if (host.rows() == 0) return;

  os << "\n=== Host profile (wall clock; peak RSS "
     << prof::peak_rss_bytes() / (1024 * 1024) << " MiB) ===\n";
  print_table(os, "", host, csv);
  if (stages.rows() > 0) {
    print_table(os, "\n=== Host stage timings ===\n", stages, csv);
  }
}

namespace {

void write_timeline_json(std::ostream& os,
                         const telemetry::Collector& collector) {
  os << "[";
  bool first = true;
  const auto& columns = telemetry::timeline_columns();
  for (const auto& point : collector.timeline()) {
    os << (first ? "" : ", ") << "{";
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const telemetry::TimelineColumn& column = columns[c];
      os << (c ? ", \"" : "\"") << column.name << "\": ";
      if (column.count) {
        os << point.*column.count;
      } else {
        os << shortest_double(point.*column.real);
      }
      if (c == 0) {
        os << ", \"start_ps\": " << point.start_ps
           << ", \"end_ps\": " << point.end_ps;
      }
    }
    os << ", \"channel_requests\": [";
    for (std::size_t c = 0; c < point.channel_requests.size(); ++c) {
      os << (c ? ", " : "") << point.channel_requests[c];
    }
    os << "]}";
    first = false;
  }
  os << "]";
}

/// The per-stage recording summary and channel×bank request heatmap.
void write_telemetry_json(std::ostream& os,
                          const telemetry::Collector& collector) {
  os << "{\"recorded_events\": " << collector.recorded_events()
     << ", \"dropped_events\": " << collector.dropped_events()
     << ", \"truncated\": " << (collector.truncated() ? "true" : "false")
     << ", \"stages\": [";
  bool first_stage = true;
  for (const auto& stage : collector.stages()) {
    os << (first_stage ? "" : ", ")
       << "{\"stage\": " << json_string(stage->stage())
       << ", \"channels\": " << stage->channels()
       << ", \"banks\": " << stage->banks()
       << ", \"recorded_events\": " << stage->recorded_events()
       << ", \"dropped_events\": " << stage->dropped_events()
       << ", \"bank_requests\": [";
    for (int c = 0; c < stage->channels(); ++c) {
      const auto& lane = stage->lane(c);
      os << (c ? ", " : "") << "[";
      for (std::size_t b = 0; b < lane.bank_requests.size(); ++b) {
        os << (b ? ", " : "") << lane.bank_requests[b];
      }
      os << "]";
    }
    os << "]}";
    first_stage = false;
  }
  os << "]}";
}

/// The whole-job host profile: wall clock, throughput, RSS, stage
/// timings and one entry per LanePool.
void write_host_json(std::ostream& os, const memsim::MetricInput& in) {
  const prof::Profiler& profiler = *in.host;
  os << "{";
  write_metrics(os, memsim::MetricPlace::kHost, in, /*lead=*/false);
  os << ", \"peak_rss_bytes\": " << prof::peak_rss_bytes()
     << ", \"stages\": [";
  bool first = true;
  for (const auto& [name, stage] : profiler.stages()) {
    os << (first ? "" : ", ") << "{\"stage\": " << json_string(name)
       << ", \"calls\": " << stage.calls
       << ", \"wall_s\": " << shortest_double(stage.wall_s) << "}";
    first = false;
  }
  os << "], \"pools\": [";
  bool first_pool = true;
  for (const auto& pool : profiler.pools()) {
    os << (first_pool ? "" : ", ") << "{\"stage\": " << json_string(pool->stage)
       << ", \"threads\": " << pool->threads
       << ", \"wall_s\": " << shortest_double(pool->wall_s)
       << ", \"utilization\": " << shortest_double(pool->utilization())
       << ", \"blocks_pushed\": " << pool->blocks_pushed
       << ", \"push_stalls\": " << pool->push_stalls
       << ", \"push_wait_s\": " << shortest_double(pool->push_wait_s)
       << ", \"queue_high_water\": " << pool->queue_high_water
       << ", \"lanes\": [";
    for (std::size_t l = 0; l < pool->lanes.size(); ++l) {
      const auto& lane = pool->lanes[l];
      os << (l ? ", " : "") << "{\"busy_s\": " << shortest_double(lane.busy_s)
         << ", \"blocks\": " << lane.blocks
         << ", \"requests\": " << lane.requests << "}";
    }
    os << "], \"workers\": [";
    for (std::size_t w = 0; w < pool->workers.size(); ++w) {
      const auto& worker = pool->workers[w];
      os << (w ? ", " : "") << "{\"busy_s\": " << shortest_double(worker.busy_s)
         << ", \"idle_s\": " << shortest_double(worker.idle_s)
         << ", \"pop_waits\": " << worker.pop_waits << "}";
    }
    os << "]}";
    first_pool = false;
  }
  os << "]}";
}

/// The SLO verdict: overall pass plus one check per predicate. A check
/// that was skipped (metric not applicable to this record) reports
/// applicable=false and pass=true so the reader can tell "held" from
/// "not measured".
void write_slo_json(std::ostream& os,
                    const std::vector<memsim::SloOutcome>& outcomes) {
  os << "{\"pass\": " << (memsim::slo_violated(outcomes) ? "false" : "true")
     << ", \"checks\": [";
  for (std::size_t c = 0; c < outcomes.size(); ++c) {
    const memsim::SloOutcome& outcome = outcomes[c];
    os << (c ? ", " : "")
       << "{\"predicate\": " << json_string(outcome.predicate.to_string())
       << ", \"metric\": " << json_string(outcome.predicate.metric)
       << ", \"threshold\": " << shortest_double(outcome.predicate.threshold)
       << ", \"value\": " << shortest_double(outcome.value)
       << ", \"applicable\": " << (outcome.applicable ? "true" : "false")
       << ", \"pass\": " << (outcome.pass ? "true" : "false") << "}";
  }
  os << "]}";
}

}  // namespace

void write_json(
    std::ostream& os, const std::vector<SweepJob>& jobs,
    const std::vector<memsim::SimStats>& results,
    const std::vector<std::unique_ptr<telemetry::Collector>>* collectors,
    const std::vector<std::unique_ptr<prof::Profiler>>* profilers,
    const std::vector<std::vector<memsim::SloOutcome>>* slo) {
  if (jobs.size() != results.size()) {
    throw std::invalid_argument("jobs/results size mismatch");
  }
  if (collectors && collectors->size() != jobs.size()) {
    throw std::invalid_argument("jobs/collectors size mismatch");
  }
  if (profilers && profilers->size() != jobs.size()) {
    throw std::invalid_argument("jobs/profilers size mismatch");
  }
  if (slo && slo->size() != jobs.size()) {
    throw std::invalid_argument("jobs/slo size mismatch");
  }
  os << "{\n  \"bench\": \"comet_sim_sweep\",\n  \"results\": [";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& job = jobs[i];
    const auto& stats = results[i];
    os << (i ? ",\n" : "\n") << "    {"
       << "\"device\": " << json_string(job.device.name)
       << ", \"workload\": " << json_string(job.profile.name)
       << ", \"channels\": " << job.device.channels()
       << ", \"requests\": " << job.requests
       << ", \"seed\": " << job.seed
       << ", \"line_bytes\": " << job.line_bytes
       << ", \"run_threads\": " << job.run_threads
       << ", \"trace_file\": " << json_string(job.trace_path)
       << ", \"experiment\": " << json_string(job.experiment)
       << ", \"config_file\": " << json_string(job.config_file);
    const prof::Profiler* profiler =
        profilers ? (*profilers)[i].get() : nullptr;
    const memsim::MetricInput in{stats, profiler};
    write_metrics(os, memsim::MetricPlace::kRecord, in);
    // Every scheduler field lives under one "sched" object (null for
    // legacy runs), so a jq del(.results[].sched) compares a scheduled
    // run against the direct-replay path field for field.
    if (stats.is_scheduled() && job.controller) {
      const auto& c = *job.controller;
      os << ", \"sched\": {"
         << "\"policy\": " << json_string(stats.sched_policy)
         << ", \"read_queue_depth\": " << c.read_queue_depth
         << ", \"write_queue_depth\": " << c.write_queue_depth
         << ", \"drain_high_watermark\": " << c.drain_high_watermark
         << ", \"drain_low_watermark\": " << c.drain_low_watermark
         << ", \"avg_queue_delay_ns\": "
         << shortest_double(stats.sched_queue_delay_ns.mean())
         << ", \"p95_queue_delay_ns\": "
         << shortest_double(stats.sched_queue_delay_ns.p95())
         << ", \"avg_service_latency_ns\": "
         << shortest_double(stats.service_latency_ns.mean())
         << ", \"avg_read_queue_occupancy\": "
         << shortest_double(stats.read_queue_occupancy.mean())
         << ", \"avg_write_queue_occupancy\": "
         << shortest_double(stats.write_queue_occupancy.mean())
         << ", \"max_write_queue_occupancy\": "
         << shortest_double(stats.write_queue_occupancy.max())
         << ", \"write_drains\": " << stats.write_drains
         << ", \"drained_writes\": " << stats.drained_writes
         << ", \"drain_stalls\": " << stats.drain_stalls
         << ", \"admit_stalls\": " << stats.admit_stalls
         << "}";
    } else {
      os << ", \"sched\": null";
    }
    // Per-tenant fairness block, "sched"-style: null for single-stream
    // runs, so jq del(.results[].tenants) compares the two shapes.
    if (stats.is_multi_tenant()) {
      os << ", \"tenants\": {"
         << "\"mapping\": "
         << json_string(config::tenant_mapping_name(job.tenant_mapping));
      write_metrics(os, memsim::MetricPlace::kTenants, in);
      os << ", \"streams\": [";
      for (std::size_t t = 0; t < stats.tenants.size(); ++t) {
        const auto& tenant = stats.tenants[t];
        os << (t ? ", " : "") << "{"
           << "\"name\": " << json_string(tenant.name)
           << ", \"reads\": " << tenant.reads
           << ", \"writes\": " << tenant.writes
           << ", \"bytes\": " << tenant.bytes_transferred
           << ", \"avg_latency_ns\": "
           << shortest_double(tenant.avg_latency_ns())
           << ", \"p50_latency_ns\": "
           << shortest_double(tenant.latency_ns.p50())
           << ", \"p95_latency_ns\": "
           << shortest_double(tenant.latency_ns.p95())
           << ", \"p99_latency_ns\": "
           << shortest_double(tenant.latency_ns.p99())
           << ", \"alone_avg_latency_ns\": "
           << shortest_double(tenant.alone_avg_latency_ns)
           << ", \"slowdown\": " << shortest_double(tenant.slowdown)
           << "}";
      }
      os << "]}";
    } else {
      os << ", \"tenants\": null";
    }
    // Telemetry provenance: null when the feature is disabled, so
    // jq del(...) diffs traced against untraced reports cleanly.
    if (job.telemetry.tracing()) {
      os << ", \"trace_out\": " << json_string(job.telemetry.trace_path)
         << ", \"trace_limit\": " << job.telemetry.trace_limit;
    } else {
      os << ", \"trace_out\": null, \"trace_limit\": null";
    }
    if (job.telemetry.sampling()) {
      os << ", \"metrics_interval_ns\": "
         << job.telemetry.metrics_interval_ps / 1000;
    } else {
      os << ", \"metrics_interval_ns\": null";
    }
    if (!job.telemetry.metrics_csv.empty()) {
      os << ", \"metrics_csv\": " << json_string(job.telemetry.metrics_csv);
    } else {
      os << ", \"metrics_csv\": null";
    }
    const telemetry::Collector* collector =
        collectors ? (*collectors)[i].get() : nullptr;
    if (collector) {
      os << ", \"telemetry\": ";
      write_telemetry_json(os, *collector);
    } else {
      os << ", \"telemetry\": null";
    }
    if (collector && job.telemetry.sampling()) {
      os << ", \"timeline\": ";
      write_timeline_json(os, *collector);
    } else {
      os << ", \"timeline\": null";
    }
    // Host profile and SLO verdict, same null contract: --profile off
    // (or a heartbeat/gate-only profiler) keeps "host" null, no
    // --assert-slo keeps "slo" null.
    if (profiler && job.profile_spec.profiling()) {
      os << ", \"host\": ";
      write_host_json(os, in);
    } else {
      os << ", \"host\": null";
    }
    if (slo && !(*slo)[i].empty()) {
      os << ", \"slo\": ";
      write_slo_json(os, (*slo)[i]);
    } else {
      os << ", \"slo\": null";
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace comet::driver
