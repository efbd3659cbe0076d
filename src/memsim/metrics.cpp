#include "memsim/metrics.hpp"

#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "util/format.hpp"
#include "util/table.hpp"

namespace comet::memsim {

namespace {

using P = MetricPlace;
using S = MetricScope;

double wall_s(const MetricInput& in) {
  return in.host ? in.host->wall_seconds() : 0.0;
}

}  // namespace

const std::vector<Metric>& metrics() {
  static const std::vector<Metric> rows = {
      {"reads", P::kRecord, S::kAlways, {},
       [](const MetricInput& in) { return in.stats.reads; }},
      {"writes", P::kRecord, S::kAlways, {},
       [](const MetricInput& in) { return in.stats.writes; }},
      {"span_ps", P::kRecord, S::kAlways, {},
       [](const MetricInput& in) { return in.stats.span_ps; }},
      {"avg_read_latency_ns", P::kRecord, S::kAlways,
       {.header = "read lat (ns)", .position = 3, .digits = 1},
       [](const MetricInput& in) { return in.stats.read_latency_ns.mean(); }},
      {"avg_write_latency_ns", P::kRecord, S::kAlways,
       {.header = "write lat (ns)", .position = 4, .digits = 1},
       [](const MetricInput& in) { return in.stats.write_latency_ns.mean(); }},
      {"p50_read_latency_ns", P::kRecord, S::kAlways, {},
       [](const MetricInput& in) { return in.stats.read_latency_ns.p50(); }},
      {"p95_read_latency_ns", P::kRecord, S::kAlways, {},
       [](const MetricInput& in) { return in.stats.read_latency_ns.p95(); }},
      {"p99_read_latency_ns", P::kRecord, S::kAlways, {},
       [](const MetricInput& in) { return in.stats.read_latency_ns.p99(); }},
      {"p50_write_latency_ns", P::kRecord, S::kAlways, {},
       [](const MetricInput& in) { return in.stats.write_latency_ns.p50(); }},
      {"p95_write_latency_ns", P::kRecord, S::kAlways, {},
       [](const MetricInput& in) { return in.stats.write_latency_ns.p95(); }},
      {"p99_write_latency_ns", P::kRecord, S::kAlways, {},
       [](const MetricInput& in) { return in.stats.write_latency_ns.p99(); }},
      {"avg_queue_delay_ns", P::kRecord, S::kAlways,
       {.header = "queue (ns)", .position = 5, .digits = 1},
       [](const MetricInput& in) { return in.stats.queue_delay_ns.mean(); }},
      {"bandwidth_gbps", P::kRecord, S::kAlways,
       {.header = "BW (GB/s)", .position = 1, .digits = 2},
       [](const MetricInput& in) { return in.stats.bandwidth_gbps(); }},
      {"energy_pj_per_bit", P::kRecord, S::kAlways,
       {.header = "EPB (pJ/bit)", .position = 2, .digits = 2},
       [](const MetricInput& in) { return in.stats.epb_pj_per_bit(); }},
      {"dynamic_energy_pj", P::kRecord, S::kAlways, {},
       [](const MetricInput& in) { return in.stats.dynamic_energy_pj; }},
      {"background_energy_pj", P::kRecord, S::kAlways, {},
       [](const MetricInput& in) { return in.stats.background_energy_pj; }},
      {"hybrid", P::kRecord, S::kAlways, {},
       [](const MetricInput& in) { return in.stats.is_hybrid(); }},
      {"cache_hits", P::kRecord, S::kHybrid, {},
       [](const MetricInput& in) { return in.stats.cache_hits; }},
      {"cache_misses", P::kRecord, S::kHybrid, {},
       [](const MetricInput& in) { return in.stats.cache_misses; }},
      {"hit_rate", P::kRecord, S::kHybrid,
       {.header = "hit rate", .position = 1, .digits = 3},
       [](const MetricInput& in) { return in.stats.hit_rate(); }},
      {"writebacks", P::kRecord, S::kHybrid,
       {.header = "writebacks", .position = 2},
       [](const MetricInput& in) { return in.stats.writebacks; }},
      {"dram_tier_energy_pj", P::kRecord, S::kHybrid,
       {.header = "DRAM tier (pJ)", .position = 3, .digits = 3, .sci = true},
       [](const MetricInput& in) { return in.stats.dram_tier_energy_pj; }},
      {"backend_tier_energy_pj", P::kRecord, S::kHybrid,
       {.header = "backend tier (pJ)", .position = 4, .digits = 3, .sci = true},
       [](const MetricInput& in) { return in.stats.backend_tier_energy_pj; }},
      {"avg_latency_ns", P::kNone, S::kAlways, {},
       [](const MetricInput& in) { return in.stats.avg_latency_ns(); }},
      {"max_slowdown", P::kTenants, S::kMultiTenant,
       {.header = "max slowdown", .position = 1, .digits = 3},
       [](const MetricInput& in) { return in.stats.max_slowdown; }},
      {"fairness_index", P::kTenants, S::kMultiTenant,
       {.header = "Jain index", .position = 2, .digits = 3},
       [](const MetricInput& in) { return in.stats.fairness_index; }},
      {"wall_s", P::kHost, S::kHostTimed,
       {.header = "wall (s)", .position = 1, .digits = 3}, wall_s},
      // The requests the job served. The record's top-level `requests`
      // is a provenance field: the requests the job asked for.
      {"requests", P::kHost, S::kHostTimed, {},
       [](const MetricInput& in) -> std::uint64_t {
         return in.host ? in.host->run_requests() : 0;
       }},
      {"requests_per_s", P::kHost, S::kHostTimed,
       {.header = "req/s", .position = 2, .digits = 3, .sci = true},
       [](const MetricInput& in) {
         return in.host ? in.host->requests_per_second() : 0.0;
       }},
      // The replay caller's wait for the source producer (threaded runs):
      // host time the stage timings do not show, since source_pull
      // overlaps the caller's stages there. 0 in a serial run.
      {"source_wait_s", P::kHost, S::kHostTimed,
       {.header = "src wait (s)", .position = 3, .digits = 3},
       [](const MetricInput& in) {
         return in.host ? in.host->source_wait_seconds() : 0.0;
       }},
  };
  return rows;
}

bool Metric::applies(const MetricInput& in) const {
  switch (scope) {
    case S::kAlways: return true;
    case S::kHybrid: return in.stats.is_hybrid();
    case S::kMultiTenant: return in.stats.is_multi_tenant();
    case S::kHostTimed: return wall_s(in) > 0.0;
  }
  return false;
}

double Metric::number(const MetricInput& in) const {
  return std::visit([&](auto get) { return static_cast<double>(get(in)); },
                    extract);
}

std::string Metric::json(const MetricInput& in) const {
  return std::visit(
      [&](auto get) -> std::string {
        const auto value = get(in);
        if constexpr (std::is_same_v<decltype(value), const bool>) {
          return value ? "true" : "false";
        } else if constexpr (std::is_same_v<decltype(value), const double>) {
          return util::shortest_double(value);
        } else {
          return std::to_string(value);
        }
      },
      extract);
}

std::string Metric::cell(const MetricInput& in) const {
  if (const auto* get = std::get_if<double (*)(const MetricInput&)>(&extract)) {
    return column.sci ? util::Table::sci((*get)(in), column.digits)
                      : util::Table::num((*get)(in), column.digits);
  }
  return json(in);
}

const Metric& metric_by_name(const std::string& name) {
  const Metric* guess = nullptr;
  std::string known;
  for (const Metric& metric : metrics()) {
    if (name == metric.name) return metric;
    // `name` as a subsequence of the row's name; the shortest such row.
    std::size_t at = 0;
    for (const char* c = metric.name; *c && at < name.size(); ++c) {
      if (*c == name[at]) ++at;
    }
    if (at == name.size() &&
        (!guess || std::strlen(metric.name) < std::strlen(guess->name))) {
      guess = &metric;
    }
    known += (known.empty() ? "" : ", ") + std::string(metric.name);
  }
  throw std::invalid_argument(
      "unknown metric '" + name + "'" +
      (guess ? " (did you mean '" + std::string(guess->name) + "'?)" : "") +
      "; metrics: " + known);
}

std::vector<SloOutcome> evaluate_slo(
    const std::vector<prof::SloPredicate>& predicates, const MetricInput& in) {
  std::vector<SloOutcome> outcomes;
  outcomes.reserve(predicates.size());
  for (const prof::SloPredicate& predicate : predicates) {
    const Metric& metric = metric_by_name(predicate.metric);
    SloOutcome outcome{predicate, metric.applies(in), metric.number(in)};
    outcome.pass = !outcome.applicable || predicate.holds(outcome.value);
    outcomes.push_back(outcome);
  }
  return outcomes;
}

bool slo_violated(const std::vector<SloOutcome>& outcomes) {
  for (const SloOutcome& outcome : outcomes) {
    if (!outcome.pass) return true;
  }
  return false;
}

}  // namespace comet::memsim
