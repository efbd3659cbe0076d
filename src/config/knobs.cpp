#include "config/knobs.hpp"

#include <stdexcept>

namespace comet::config {

namespace {

using sched::Policy;

constexpr unsigned kReadFirst = policy_bit(Policy::kReadFirst);

}  // namespace

const std::vector<Knob>& knobs() {
  static const std::vector<Knob> rows = {
      {"--device", "<name|all>", "experiment", "devices", KnobKind::kString, 0,
       "architecture to simulate (default: all)"},
      {"--workload", "<name|all>", "experiment", "workloads",
       KnobKind::kString, 0, "SPEC-like profile (default: all)"},
      {"--channels", "N", "experiment", "channels", KnobKind::kInteger, 0,
       "override the device channel count\n(default: 0 = keep each device's)"},
      {"--requests", "N", "experiment", "requests", KnobKind::kInteger, 0,
       "requests per run (default: 20000)"},
      {"--seed", "N", "experiment", "seed", KnobKind::kInteger, 0,
       "trace RNG seed (default: 42)"},
      {"--line-bytes", "N", "experiment", "line_bytes", KnobKind::kInteger, 0,
       "request line size (default: 128)"},
      {"--trace-file", "<path>", "experiment", "trace_file", KnobKind::kString,
       0,
       "replay an on-disk NVMain trace (streamed,\nO(1) memory) instead of a "
       "synthetic\nworkload; ignores --requests/--seed"},
      {"--cpu-ghz", "X", "experiment", "cpu_ghz", KnobKind::kDecimal, 0,
       "CPU clock for trace cycle->time\nconversion (default: 2.0)"},
      {"--cache-mb", "N", "experiment", "cache_mb", KnobKind::kInteger, 0,
       "hybrid devices: DRAM cache capacity [MiB]"},
      {"--cache-ways", "N", "experiment", "cache_ways", KnobKind::kInteger, 0,
       "hybrid devices: cache associativity"},
      {"--cache-policy", "<p>", "experiment", "cache_policy",
       KnobKind::kString, 0,
       "hybrid devices: write-allocate (default)\nor write-no-allocate"},
      {"--run-threads", "N", "controller", "run_threads", KnobKind::kInteger, 0,
       "per-channel replay worker threads inside\neach run (default: 1 = "
       "serial; 0 =\nhardware threads); N > 1 adds one thread\nthat pulls "
       "the source, as does a serial\nflat run whose source is costly "
       "while a\nCPU is spare; results are bit-identical\nfor any value"},
      {"--schedule", "<policy>", "controller", "policy", KnobKind::kString, 0,
       "engage the memory-controller scheduler:\nfcfs, frfcfs, read-first, "
       "token-budget or\nfrfcfs-cap (see --list-policies)"},
      {"--read-q", "N", "controller", "read_queue_depth", KnobKind::kInteger,
       kAllPolicies,
       "scheduler read-queue depth per channel\n(default: 32; 0 = unbounded)"},
      {"--write-q", "N", "controller", "write_queue_depth", KnobKind::kInteger,
       kAllPolicies,
       "scheduler write-queue depth per channel\n(default: 32; 0 = "
       "unbounded)"},
      {"--drain-high", "N", "controller", "drain_high_watermark",
       KnobKind::kInteger, kReadFirst,
       "write-drain high watermark (default: 7/8\nof the write-queue depth)"},
      {"--drain-low", "N", "controller", "drain_low_watermark",
       KnobKind::kInteger, kReadFirst,
       "write-drain low watermark (default: 3/8\nof the write-queue depth)"},
      {"--tenant-tokens", "N", "controller", "tenant_tokens",
       KnobKind::kInteger, policy_bit(Policy::kTokenBudget),
       "per-tenant scheduling tokens per refill\n(default: 64)"},
      {"--starvation-cap", "N", "controller", "starvation_cap",
       KnobKind::kInteger, policy_bit(Policy::kFrFcfsCap),
       "times a queued tenant may be passed over\nbefore it outranks row hits "
       "(default: 16)"},
      {"--tenant-mapping", "<m>", "tenant", "mapping", KnobKind::kString, 0,
       "tenant address spaces: partition (default,\ndisjoint 1 TiB slabs) or "
       "interleave\n(line-granular sharing, maximal contention)"},
      {"--trace-out", "<path>", "telemetry", "trace_out", KnobKind::kString, 0,
       "write a Chrome trace-event JSON of every\nrequest's lifecycle (open in "
       "Perfetto:\none track per channel and bank)"},
      {"--trace-limit", "N", "telemetry", "trace_limit", KnobKind::kInteger, 0,
       "cap on recorded trace events per run\n(default: 1000000; 0 = "
       "unlimited); the\ntrace records what was dropped"},
      {"--metrics-interval", "N", "telemetry", "metrics_interval_ns",
       KnobKind::kInteger, 0,
       "sample an epoch metrics time-series every\nN ns (bandwidth, queue "
       "occupancy, drain\nactivity, latency percentiles) into the\n--json "
       "report's timeline array"},
      {"--metrics-csv", "<path>", "telemetry", "metrics_csv",
       KnobKind::kString, 0, "also write the timeline as CSV"},
      {"--profile", "", "profile", "enabled", KnobKind::kFlag, 0,
       "record a host-side run profile (stage wall\ntimes, lane utilization, "
       "queue stalls,\npeak RSS) into each record's JSON host\nobject and a "
       "console table; never changes\nthe simulated results"},
      {"--progress", "[=ms]", "profile", "progress_ms", KnobKind::kOptional, 0,
       "live heartbeat on stderr while the sweep\nruns: completed/total "
       "requests, req/s,\nETA, RSS (default period: 500 ms)",
       "500"},
      {"--assert-slo", "<list>", "slo", "assert", KnobKind::kString, 0,
       "comma-separated run health gates over\nthe report's JSON metrics, "
       "e.g.\n\"p99_read_latency_ns<=2500,\nrequests_per_s>=5e6\";\n"
       "any violated predicate exits 3"},
  };
  return rows;
}

const Knob* find_knob(const std::string& flag) {
  for (const Knob& knob : knobs()) {
    if (flag == knob.flag) return &knob;
  }
  return nullptr;
}

const Knob& knob_for(const std::string& section, const std::string& key) {
  for (const Knob& knob : knobs()) {
    if (section == knob.section && key == knob.key) return knob;
  }
  throw std::logic_error("no knob row for [" + section + "] " + key);
}

bool applies_to(const Knob& knob, const std::vector<sched::Policy>& axis) {
  if (knob.policies == 0) return true;
  for (const auto policy : axis) {
    if (knob.policies & policy_bit(policy)) return true;
  }
  return false;
}

std::string policy_names(unsigned policies) {
  std::string names;
  for (const auto& info : sched::known_policies()) {
    if (!(policies & policy_bit(info.policy))) continue;
    if (!names.empty()) names += ", ";
    names += info.name;
  }
  return names;
}

}  // namespace comet::config
