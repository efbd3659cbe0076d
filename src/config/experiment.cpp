#include "config/experiment.hpp"

#include <climits>
#include <cmath>
#include <cstdint>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "config/knobs.hpp"

namespace comet::config {

void ExperimentSpec::validate() const {
  if (name.empty()) {
    throw std::invalid_argument("experiment: empty name");
  }
  if (devices.empty()) {
    throw std::invalid_argument("experiment '" + name +
                                "' defines no devices");
  }
  for (const auto& spec : devices) {
    if (!spec.flat && !spec.tiered) {
      throw std::invalid_argument("experiment '" + name +
                                  "' contains an empty device spec");
    }
  }
  if (!tenants.empty()) {
    validate_tenants(tenants);
    if (!trace_file.empty()) {
      throw std::invalid_argument(
          "experiment '" + name +
          "' sets trace_file and [tenant] streams; a trace tenant's file "
          "belongs on its own spec");
    }
    if (!workloads.empty()) {
      throw std::invalid_argument(
          "experiment '" + name +
          "' sets workloads and [tenant] streams; the tenant specs define "
          "the demand of a multi-tenant run");
    }
  } else if (trace_file.empty()) {
    if (workloads.empty()) {
      throw std::invalid_argument("experiment '" + name +
                                  "' defines no workloads and no trace_file");
    }
  } else if (!workloads.empty()) {
    throw std::invalid_argument(
        "experiment '" + name +
        "' sets trace_file and workloads; a trace replay has exactly one "
        "request stream");
  } else if (requests.size() > 1 || seeds.size() > 1) {
    // requests/seed are ignored during replay, so an axis would just run
    // the identical trace N times and misread as a real sweep.
    throw std::invalid_argument(
        "experiment '" + name +
        "' sets trace_file and a requests/seed axis; replay ignores both, "
        "so the axis would only duplicate identical runs");
  }
  if (requests.empty() || seeds.empty() || channels.empty()) {
    throw std::invalid_argument("experiment '" + name +
                                "' has an empty requests/seeds/channels axis");
  }
  for (const auto count : requests) {
    if (count == 0) {
      throw std::invalid_argument("experiment '" + name +
                                  "': requests values must be >= 1");
    }
  }
  for (const auto count : channels) {
    if (count < 0) {
      throw std::invalid_argument("experiment '" + name +
                                  "': channels values must be >= 0");
    }
  }
  if (line_bytes == 0) {
    throw std::invalid_argument("experiment '" + name +
                                "': line_bytes must be >= 1");
  }
  if (!(cpu_ghz > 0.0) || !std::isfinite(cpu_ghz)) {
    throw std::invalid_argument("experiment '" + name +
                                "': cpu_ghz must be a positive number");
  }
  if (run_threads.empty()) {
    throw std::invalid_argument("experiment '" + name +
                                "' has an empty run_threads axis");
  }
  for (const auto threads : run_threads) {
    if (threads < 0) {
      throw std::invalid_argument("experiment '" + name +
                                  "': run_threads values must be >= 0");
    }
  }
  if (!policies.empty()) controller.validate();
  telemetry.validate();
}

ExperimentSpec parse_experiment(const toml::Document& doc,
                                const DeviceResolver& resolver) {
  ExperimentSpec spec;
  spec.source = doc.source;

  TableReader root(doc.root, doc.source, "experiment file");
  std::uint64_t anchor_line = 0;
  // The cache_* keys, folded into the hybrid devices once all are read.
  std::optional<std::uint64_t> cache_mb;
  std::optional<std::int64_t> cache_ways;
  std::optional<bool> write_allocate;
  std::string cache_key;  // The first one set: a bad fold fails at its line.
  std::uint64_t cache_line = 0;

  if (const toml::Table* experiment = root.child("experiment")) {
    anchor_line = experiment->line;
    TableReader reader(*experiment, doc.source, "[experiment]");
    if (auto v = reader.get_string("name")) spec.name = *v;
    // Names resolve here, ahead of the inline [[device]] and
    // [[workload]] tables; a typo fails at its line.
    if (auto v = reader.get_string_list("devices")) {
      for (const auto& token : *v) {
        for (auto& device : resolve_devices(reader, "devices", token,
                                            resolver)) {
          spec.devices.push_back(std::move(device));
        }
      }
    }
    if (auto v = reader.get_string_list("workloads")) {
      for (const auto& name : *v) {
        if (name == "all") {
          for (auto& profile : memsim::spec_like_profiles()) {
            spec.workloads.push_back(std::move(profile));
          }
          continue;
        }
        try {
          spec.workloads.push_back(memsim::profile_by_name(name));
        } catch (const std::exception& e) {
          reader.fail_at(reader.key_line("workloads"), e.what());
        }
      }
    }
    if (auto v = reader.get_u64_list("requests", 1, SIZE_MAX)) {
      spec.requests = *v;
    }
    if (auto v = reader.get_u64_list("seed")) spec.seeds = *v;
    if (auto v = reader.get_u64_list("channels", 0, INT_MAX)) {
      spec.channels.clear();
      for (const auto c : *v) spec.channels.push_back(int(c));
    }
    if (auto v = reader.get_u64("line_bytes", 1, UINT32_MAX)) {
      spec.line_bytes = std::uint32_t(*v);
    }
    if (auto v = reader.get_path("trace_file")) spec.trace_file = *v;
    if (auto v = reader.get_double("cpu_ghz", 1e-6, 1e6)) spec.cpu_ghz = *v;
    cache_mb = reader.get_u64("cache_mb", 1, 1ull << 30);
    cache_ways = reader.get_int("cache_ways", 1, INT_MAX);
    write_allocate =
        reader.get_parsed("cache_policy", hybrid::parse_cache_policy);
    for (const char* key : {"cache_mb", "cache_ways", "cache_policy"}) {
      if (!cache_key.empty() || !reader.has(key)) continue;
      cache_key = key;
      cache_line = reader.key_line(key);
    }
    reader.finish();
  }

  if (const toml::Table* controller = root.child("controller")) {
    parse_controller_section(*controller, doc.source, spec.policies,
                             spec.controller, spec.run_threads);
  }

  if (const toml::Table* telemetry = root.child("telemetry")) {
    parse_telemetry_section(*telemetry, doc.source, spec.telemetry);
  }

  if (const toml::Table* profile = root.child("profile")) {
    parse_profile_section(*profile, doc.source, spec.profile);
  }

  if (const toml::Table* slo = root.child("slo")) {
    parse_slo_section(*slo, doc.source, spec.profile);
  }

  if (const toml::Table* tenant = root.child("tenant")) {
    parse_tenant_section(*tenant, doc.source, spec.tenants,
                         spec.tenant_mapping);
  }

  if (const auto* devices = root.array_of_tables("device")) {
    for (const auto& table : *devices) {
      spec.devices.push_back(parse_device(
          table, table.source.empty() ? doc.source : table.source, resolver));
    }
  }
  if (const auto* workloads = root.array_of_tables("workload")) {
    for (const auto& table : *workloads) {
      spec.workloads.push_back(parse_workload(table, doc.source));
    }
  }
  root.finish();

  for (auto& device : spec.devices) {
    if (cache_key.empty() || !device.is_hybrid()) continue;
    hybrid::DramCacheConfig cache = device.tiered->cache;
    if (cache_mb) cache.capacity_bytes = *cache_mb << 20;
    if (cache_ways) cache.ways = int(*cache_ways);
    if (write_allocate) cache.write_allocate = *write_allocate;
    device.tiered->set_cache(cache);
    try {
      device.tiered->validate();
    } catch (const std::exception& e) {
      throw toml::ParseError(doc.source, cache_line,
                             "[experiment]: '" + cache_key +
                                 "' does not fit device '" + device.name +
                                 "': " + e.what());
    }
  }

  try {
    spec.validate();
  } catch (const std::exception& e) {
    throw toml::ParseError(doc.source, anchor_line, e.what());
  }
  return spec;
}

namespace {

template <typename T, typename Format>
void write_axis(std::ostream& os, const char* key, const std::vector<T>& axis,
                Format&& format) {
  os << key << " = ";
  if (axis.size() == 1) {
    os << format(axis.front()) << "\n";
    return;
  }
  os << "[";
  for (std::size_t i = 0; i < axis.size(); ++i) {
    os << (i ? ", " : "") << format(axis[i]);
  }
  os << "]\n";
}

std::string format_integer(std::uint64_t v) { return std::to_string(v); }

}  // namespace

void write_experiment(std::ostream& os, const ExperimentSpec& spec) {
  os << "# comet_sim experiment specification\n"
     << "[experiment]\n"
     << "name = " << toml::format_string(spec.name) << "\n";
  write_axis(os, "requests", spec.requests, format_integer);
  write_axis(os, "seed", spec.seeds, format_integer);
  write_axis(os, "channels", spec.channels,
             [](int v) { return std::to_string(v); });
  os << "line_bytes = " << spec.line_bytes << "\n";
  if (!spec.trace_file.empty()) {
    os << "trace_file = " << toml::format_string(spec.trace_file) << "\n"
       << "cpu_ghz = " << toml::format_float(spec.cpu_ghz) << "\n";
  }
  const bool sharded = spec.run_threads != std::vector<int>{1};
  if (!spec.policies.empty() || sharded) {
    os << "\n[controller]\n";
    if (!spec.policies.empty()) {
      write_axis(os, "policy", spec.policies, [](sched::Policy policy) {
        return toml::format_string(sched::policy_name(policy));
      });
      // Only the keys some policy on the axis uses: the reader rejects
      // the others.
      const auto key = [&](const char* name, int value) {
        if (applies_to(knob_for("controller", name), spec.policies)) {
          os << name << " = " << value << "\n";
        }
      };
      key("read_queue_depth", spec.controller.read_queue_depth);
      key("write_queue_depth", spec.controller.write_queue_depth);
      key("drain_high_watermark", spec.controller.drain_high_watermark);
      key("drain_low_watermark", spec.controller.drain_low_watermark);
      key("tenant_tokens", spec.controller.tenant_tokens);
      key("starvation_cap", spec.controller.starvation_cap);
    }
    if (sharded) {
      write_axis(os, "run_threads", spec.run_threads,
                 [](int v) { return std::to_string(v); });
    }
  }
  if (spec.telemetry.enabled()) {
    os << "\n[telemetry]\n";
    if (spec.telemetry.tracing()) {
      os << "trace_out = " << toml::format_string(spec.telemetry.trace_path)
         << "\n"
         << "trace_limit = " << spec.telemetry.trace_limit << "\n";
    }
    if (spec.telemetry.sampling()) {
      os << "metrics_interval_ns = "
         << spec.telemetry.metrics_interval_ps / 1000 << "\n";
      if (!spec.telemetry.metrics_csv.empty()) {
        os << "metrics_csv = "
           << toml::format_string(spec.telemetry.metrics_csv) << "\n";
      }
    }
  }
  if (spec.profile.profiling() || spec.profile.heartbeat()) {
    os << "\n[profile]\n";
    if (spec.profile.profiling()) os << "enabled = true\n";
    if (spec.profile.heartbeat()) {
      os << "progress_ms = " << spec.profile.progress_ms << "\n";
    }
  }
  if (spec.profile.gating()) {
    os << "\n[slo]\n"
       << "assert = "
       << toml::format_string(prof::slo_to_string(spec.profile.slo)) << "\n";
  }
  if (!spec.tenants.empty()) {
    os << "\n[tenant]\n"
       << "mapping = "
       << toml::format_string(tenant_mapping_name(spec.tenant_mapping))
       << "\n";
    // parse_tenant_section returns streams in name order; specs built
    // by parse already round-trip, programmatic ones re-load sorted.
    for (const auto& tenant : spec.tenants) {
      os << "\n[tenant." << tenant.name << "]\n";
      if (!tenant.trace_file.empty()) {
        os << "trace_file = " << toml::format_string(tenant.trace_file)
           << "\n";
      } else {
        os << "workload = " << toml::format_string(tenant.profile.name)
           << "\n";
      }
      if (tenant.interarrival_ns > 0.0) {
        os << "interarrival_ns = " << toml::format_float(tenant.interarrival_ns)
           << "\n";
      }
      if (tenant.burstiness > 0.0) {
        os << "burstiness = " << toml::format_float(tenant.burstiness) << "\n";
      }
      if (tenant.requests != 0) {
        os << "requests = " << tenant.requests << "\n";
      }
    }
  }
  for (const auto& device : spec.devices) {
    os << "\n[[device]]\n";
    write_device_spec_body(os, device, "device");
  }
  for (const auto& workload : spec.workloads) {
    os << "\n[[workload]]\n";
    write_workload_body(os, workload);
  }
}

std::string experiment_to_toml(const ExperimentSpec& spec) {
  std::ostringstream os;
  write_experiment(os, spec);
  return os.str();
}

}  // namespace comet::config
