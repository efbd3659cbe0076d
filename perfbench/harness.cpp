// The repo benchmark's measuring program. It drives the entry points
// comet_sim uses (driver::make_device_spec, DeviceSpec::make_engine,
// Engine::run, tenant::run_multi_tenant) with the request generator
// inside the timed loop, checks every run's statistics, and prints one
// JSON object for run.py. See README.md in this directory.
//
//   perfbench run   --workload W --seed S --seconds T --trace 0|1
//                   --data-dir D
//   perfbench stats --workload W --seed S --requests N --data-dir D
//
// `run` with --trace 0 times whole runs and reports the end-to-end
// metrics; with --trace 1 it times the layers through the wrappers in
// timing.hpp and reports the per-layer metrics. `stats` replays one run
// of N requests and prints its comet_sim --json record plus the
// comet_sim arguments that should reproduce it.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "driver/registry.hpp"
#include "driver/report.hpp"
#include "driver/sweep.hpp"
#include "hybrid/dram_cache.hpp"
#include "memsim/sharded.hpp"
#include "memsim/system.hpp"
#include "memsim/trace.hpp"
#include "memsim/trace_gen.hpp"
#include "prof/profiler.hpp"
#include "sched/controller.hpp"
#include "tenant/fairness.hpp"
#include "tenant/runner.hpp"
#include "timing.hpp"
#include "util/rng.hpp"

namespace {

using namespace comet;
using perfbench::Clock;
using perfbench::seconds_since;
using perfbench::Span;

constexpr std::uint32_t kLineBytes = 128;
constexpr double kCpuGhz = 2.0;
/// Read and write transaction-queue depth of every controller.
constexpr int kQueueDepth = 32;
/// Warm set-ups timed per run; set-up is well under a millisecond.
constexpr int kSetupSamples = 200;
/// Throughput quantile over a run's timed runs that requests_per_s
/// reports (wall_s reports the mirror-image time quantile).
constexpr double kFastQuantile = 0.9;
/// Zipf side leg: the hot-set draw the pointer-chase generator makes.
constexpr std::uint64_t kZipfLines = 4096;
constexpr double kZipfExponent = 0.9;
constexpr int kZipfDraws = 200000;

struct Workload {
  std::string name;
  std::string device;   ///< Registry token.
  std::string profile;  ///< Single-stream profile (trace source for
                        ///< from_trace); empty for multi-tenant.
  std::vector<std::pair<std::string, std::string>> tenants;  ///< name, profile
  bool from_trace = false;
  std::optional<sched::Policy> policy;
  int run_threads = 1;
  std::size_t requests = 0;  ///< Per timed run; per tenant if multi-tenant.

  bool multi_tenant() const { return !tenants.empty(); }
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> w(4);
    w[0].name = "chase-flat";
    w[0].device = "comet";
    w[0].profile = "mcf_like";
    w[0].requests = 250000;

    w[1].name = "stream-frfcfs";
    w[1].device = "comet";
    w[1].profile = "lbm_like";
    w[1].policy = sched::Policy::kFrFcfs;
    w[1].requests = 250000;

    w[2].name = "tenants-hybrid";
    w[2].device = "hybrid-comet";
    w[2].tenants = {{"chase", "mcf_like"}, {"stream", "lbm_like"}};
    w[2].policy = sched::Policy::kFrFcfsCap;
    w[2].run_threads = 3;
    w[2].requests = 500000;

    w[3].name = "trace-flat";
    w[3].device = "comet";
    w[3].profile = "gcc_like";
    w[3].from_trace = true;
    w[3].requests = 250000;
    return w;
  }();
  return kWorkloads;
}

const Workload& workload_by_name(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// What one run of a workload replays.
struct Inputs {
  std::uint64_t seed = 42;
  std::size_t requests = 0;
  std::string trace_path;  ///< from_trace workloads only.
};

/// Demand requests one run issues, over all tenants.
std::size_t issued(const Workload& w, const Inputs& in) {
  return in.requests * std::max<std::size_t>(1, w.tenants.size());
}

std::optional<sched::ControllerConfig> controller_of(const Workload& w) {
  if (!w.policy) return std::nullopt;
  return sched::ControllerConfig::with_depths(*w.policy, kQueueDepth,
                                              kQueueDepth);
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// The workload label comet_sim gives the run.
std::string label_of(const Workload& w, const Inputs& in) {
  if (w.multi_tenant()) {
    std::string label;
    for (const auto& t : w.tenants) label += (label.empty() ? "" : "+") + t.first;
    return label;
  }
  return w.from_trace ? basename_of(in.trace_path) : w.profile;
}

tenant::MultiTenantJob tenant_job(const Workload& w, const Inputs& in) {
  tenant::MultiTenantJob job;
  for (const auto& [name, profile] : w.tenants) {
    config::TenantSpec spec;
    spec.name = name;
    spec.profile = memsim::profile_by_name(profile);
    job.tenants.push_back(std::move(spec));
  }
  job.default_requests = in.requests;
  job.seed = in.seed;
  job.line_bytes = kLineBytes;
  job.cpu_ghz = kCpuGhz;
  return job;
}

std::unique_ptr<memsim::RequestSource> open_source(const Workload& w,
                                                   const Inputs& in) {
  if (w.from_trace) {
    return std::make_unique<memsim::TraceFileSource>(
        in.trace_path, memsim::TraceConfig{.cpu_clock_ghz = kCpuGhz,
                                           .line_bytes = kLineBytes});
  }
  return std::make_unique<memsim::GeneratorSource>(
      memsim::profile_by_name(w.profile), in.seed, in.requests, kLineBytes);
}

/// Writes the NVMain trace a from_trace workload replays (once per
/// seed and size; later runs reuse the file).
std::string prepare_trace(const Workload& w, const Inputs& in,
                          const std::string& data_dir) {
  ::mkdir(data_dir.c_str(), 0755);
  const std::string path = data_dir + "/" + w.profile + "-" +
                           std::to_string(in.seed) + "-" +
                           std::to_string(in.requests) + ".nvt";
  if (std::ifstream(path).good()) return path;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    memsim::GeneratorSource source(memsim::profile_by_name(w.profile),
                                   in.seed, in.requests, kLineBytes);
    memsim::write_trace(out, source,
                        memsim::TraceConfig{.cpu_clock_ghz = kCpuGhz,
                                            .line_bytes = kLineBytes});
    if (!out) throw std::runtime_error("cannot write trace " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename trace to " + path);
  }
  return path;
}

/// Registry resolution, device-model build, engine construction and
/// opening the source — what a user pays before the first request.
struct Setup {
  driver::DeviceSpec spec;
  std::unique_ptr<memsim::Engine> engine;
  std::unique_ptr<memsim::RequestSource> source;  ///< Single-stream only.
  double device_spec_s = 0.0;
  double engine_s = 0.0;
  double total_s = 0.0;
};

Setup set_up(const Workload& w, const Inputs& in, int run_threads) {
  Setup s;
  const Clock::time_point start = Clock::now();
  s.spec = driver::make_device_spec(w.device);
  s.device_spec_s = seconds_since(start);
  const Clock::time_point engine_start = Clock::now();
  s.engine = s.spec.make_engine(controller_of(w), run_threads);
  s.engine_s = seconds_since(engine_start);
  if (!w.multi_tenant()) s.source = open_source(w, in);
  s.total_s = seconds_since(start);
  return s;
}

memsim::SimStats run_once(const Workload& w, const Inputs& in, Setup& s) {
  if (w.multi_tenant()) {
    return tenant::run_multi_tenant(*s.engine, tenant_job(w, in));
  }
  return s.engine->run(*s.source, label_of(w, in));
}

driver::SweepJob sweep_job(const Workload& w, const Inputs& in,
                           const driver::DeviceSpec& spec) {
  driver::SweepJob job;
  job.device = spec;
  job.profile.name = label_of(w, in);
  job.requests = in.requests;
  job.seed = in.seed;
  job.line_bytes = kLineBytes;
  job.trace_path = in.trace_path;
  job.cpu_ghz = kCpuGhz;
  job.controller = controller_of(w);
  job.run_threads = w.run_threads;
  if (w.multi_tenant()) job.tenants = tenant_job(w, in).tenants;
  job.experiment = "cli";
  return job;
}

/// The run's comet_sim --json document, on one line.
std::string json_record(const Workload& w, const Inputs& in,
                        const driver::DeviceSpec& spec,
                        const memsim::SimStats& stats) {
  std::ostringstream os;
  driver::write_json(os, {sweep_job(w, in, spec)}, {stats});
  std::string doc = os.str();
  std::replace(doc.begin(), doc.end(), '\n', ' ');
  return doc;
}

void append_stats(std::ostringstream& os, const util::RunningStats& s) {
  os << s.count() << ',' << s.mean() << ',' << s.variance() << ','
     << s.min() << ',' << s.max() << ',' << s.sum() << ',' << s.p50() << ','
     << s.p95() << ',' << s.p99() << ';';
}

/// Everything the simulation computed, at full precision: the JSON
/// record plus the fields it leaves out.
std::string fingerprint(const Workload& w, const Inputs& in,
                        const driver::DeviceSpec& spec,
                        const memsim::SimStats& stats) {
  std::ostringstream os;
  os.precision(17);
  os << json_record(w, in, spec, stats) << stats.device_name << '|'
     << stats.workload_name << '|' << stats.bytes_transferred << '|'
     << stats.total_bank_busy_ns << '|' << stats.cache_fills << '|';
  for (const auto* s :
       {&stats.read_latency_ns, &stats.write_latency_ns, &stats.queue_delay_ns,
        &stats.sched_queue_delay_ns, &stats.service_latency_ns,
        &stats.read_queue_occupancy, &stats.write_queue_occupancy}) {
    append_stats(os, *s);
  }
  for (const auto& t : stats.tenants) {
    os << t.bytes_transferred << ',' << t.alone_avg_latency_ns << ','
       << t.slowdown << ';';
    append_stats(os, t.latency_ns);
  }
  return os.str();
}

/// The q-quantile of `values`, interpolating between closest ranks.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

int total_banks(const driver::DeviceSpec& spec) {
  const auto banks = [](const memsim::DeviceModel& m) {
    return m.timing.channels * m.timing.banks_per_channel;
  };
  return spec.is_hybrid() ? banks(spec.tiered->dram) + banks(spec.tiered->backend)
                          : banks(*spec.flat);
}

// --- Output checks ---------------------------------------------------------

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

class Checks {
 public:
  /// One checked run: counts against attempted, and against failed when
  /// any of its checks fails.
  void run(const std::vector<Check>& checks) {
    ++attempted_;
    bool ok = true;
    for (const Check& c : checks) {
      ok = ok && c.ok;
      auto& slot = summary_[c.name];
      if (slot.name.empty() || (slot.ok && !c.ok)) slot = c;
    }
    if (!ok) ++failed_;
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const std::map<std::string, Check>& summary() const { return summary_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
  std::map<std::string, Check> summary_;  ///< First failure, else first pass.
};

Check equal_check(const std::string& name, const std::string& got,
                  const std::string& want) {
  return {name, got == want, got == want ? "" : "simulated stats differ"};
}

/// True when the engine filled the per-tenant breakdown. The hybrid
/// engine does not: its derived tier requests drop the tenant tag, so
/// every tenant reads zero and max_slowdown is 0.
bool has_tenant_breakdown(const memsim::SimStats& stats) {
  return std::any_of(stats.tenants.begin(), stats.tenants.end(),
                     [](const auto& t) { return t.requests() > 0; });
}

/// Reads plus writes equal the requests issued, and per tenant as well
/// wherever the engine reports a per-tenant breakdown.
Check count_check(const Workload& w, const Inputs& in,
                  const memsim::SimStats& stats) {
  std::ostringstream detail;
  bool ok = stats.reads + stats.writes == issued(w, in);
  if (!ok) {
    detail << "reads+writes " << stats.reads + stats.writes << " != issued "
           << issued(w, in) << "; ";
  }
  if (w.multi_tenant()) {
    ok = ok && stats.tenants.size() == w.tenants.size();
    for (const auto& t : stats.tenants) {
      if (has_tenant_breakdown(stats) && t.requests() != in.requests) {
        ok = false;
        detail << "tenant " << t.name << " served " << t.requests() << " of "
               << in.requests << "; ";
      }
    }
  }
  return {"requests_accounted", ok, detail.str()};
}

// --- Traced legs -------------------------------------------------------------

using Metrics = std::map<std::string, double>;

/// One shard lane per channel of `system`, each wrapped in a TimedLane
/// with its own span.
std::vector<std::unique_ptr<memsim::ShardLane>> timed_lanes(
    const memsim::MemorySystem& system,
    const std::optional<sched::ControllerConfig>& controller,
    const std::string& label, std::vector<Span>& spans) {
  const int channels = system.model().timing.channels;
  spans.assign(static_cast<std::size_t>(channels), Span{});
  std::vector<std::unique_ptr<memsim::ShardLane>> lanes;
  for (int c = 0; c < channels; ++c) {
    std::unique_ptr<memsim::ShardLane> inner;
    if (controller) {
      inner = std::make_unique<sched::ControllerLane>(system, *controller, label);
    } else {
      inner = std::make_unique<memsim::SessionLane>(system, label);
    }
    lanes.push_back(std::make_unique<perfbench::TimedLane>(
        std::move(inner), spans[static_cast<std::size_t>(c)]));
  }
  return lanes;
}

double busy_sum(const std::vector<Span>& spans) {
  double total = 0.0;
  for (const Span& s : spans) total += s.busy_s;
  return total;
}

/// A wrapped replay of the workload's stream through run_sharded.
struct LaneLeg {
  memsim::SimStats stats;
  double wall_s = 0.0;
  double pull_s = 0.0;
  double lanes_s = 0.0;
};

LaneLeg lane_leg(const Workload& w, const Inputs& in,
                 const memsim::MemorySystem& system,
                 const std::optional<sched::ControllerConfig>& controller) {
  LaneLeg leg;
  Span pull;
  std::vector<Span> spans;
  const std::string label = label_of(w, in);
  auto source = open_source(w, in);
  perfbench::TimedSource timed(*source, pull);
  auto lanes = timed_lanes(system, controller, label, spans);
  const Clock::time_point start = Clock::now();
  leg.stats = memsim::run_sharded(system, std::move(lanes), w.run_threads,
                                  timed);
  leg.wall_s = seconds_since(start);
  leg.pull_s = pull.busy_s;
  leg.lanes_s = busy_sum(spans);
  return leg;
}

/// Stores the side leg's result so the draws cannot be optimized away.
volatile std::uint64_t g_zipf_sink = 0;

double zipf_ns_per_draw(std::uint64_t seed) {
  util::Rng rng(seed);
  std::uint64_t sum = 0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kZipfDraws; ++i) {
    sum += rng.next_zipf(kZipfLines, kZipfExponent);
  }
  const double s = seconds_since(start);
  g_zipf_sink = sum;
  return s / kZipfDraws * 1e9;
}

/// The DRAM-cache filter alone: the tag model's access sequence the
/// tiered engine makes for `demand`, with the backend traffic it
/// derives counted rather than replayed.
struct FilterLeg {
  double filter_s = 0.0;
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t backend_requests = 0;
};

FilterLeg filter_leg(const hybrid::DramCacheConfig& config,
                     const std::vector<memsim::Request>& demand) {
  FilterLeg leg;
  hybrid::DramCache cache(config);
  const std::uint64_t line_bytes = config.line_bytes;
  const Clock::time_point start = Clock::now();
  for (const memsim::Request& req : demand) {
    const bool is_write = req.op == memsim::Op::kWrite;
    const std::uint64_t end =
        req.address + std::max<std::uint64_t>(req.size_bytes, 1);
    for (std::uint64_t line = req.address / line_bytes;
         line <= (end - 1) / line_bytes; ++line) {
      const std::uint64_t line_address = line * line_bytes;
      const auto outcome = cache.access(line_address, is_write);
      ++leg.accesses;
      if (outcome.hit) {
        ++leg.hits;
        continue;
      }
      ++leg.misses;
      const std::uint64_t portion = std::min(end, line_address + line_bytes) -
                                    std::max(req.address, line_address);
      if (!(outcome.fill && is_write && portion == line_bytes)) {
        ++leg.backend_requests;  // Fetch, or a write-no-allocate write.
      }
      if (outcome.writeback) {
        ++leg.writebacks;
        ++leg.backend_requests;
      }
    }
  }
  leg.filter_s = seconds_since(start);
  return leg;
}

std::vector<memsim::Request> drain(memsim::RequestSource& source) {
  std::vector<memsim::Request> out;
  while (auto r = source.next()) out.push_back(*r);
  return out;
}

/// Common simulated per-layer fields of a run's statistics.
void simulated_layers(const driver::DeviceSpec& spec,
                      const memsim::SimStats& stats, Metrics& m) {
  m["replay.bank_utilization"] = stats.bank_utilization(total_banks(spec));
  m["replay.window_wait_mean_ns"] = stats.queue_delay_ns.mean();
  m["sched.queue_delay_mean_ns"] = stats.sched_queue_delay_ns.mean();
  m["sched.admit_stalls"] = static_cast<double>(stats.admit_stalls);
  m["sched.write_drains"] = static_cast<double>(stats.write_drains);
}

/// One traced repetition of a single-stream workload.
Metrics traced_single(const Workload& w, const Inputs& in, Checks& checks) {
  Metrics m;
  Setup s = set_up(w, in, w.run_threads);
  const Clock::time_point start = Clock::now();
  const memsim::SimStats bare = run_once(w, in, s);
  const double bare_s = seconds_since(start);

  const memsim::MemorySystem system(*s.spec.flat);
  const auto controller = controller_of(w);
  const LaneLeg leg = lane_leg(w, in, system, controller);
  checks.run({count_check(w, in, leg.stats),
              equal_check("wrappers_transparent",
                          fingerprint(w, in, s.spec, leg.stats),
                          fingerprint(w, in, s.spec, bare))});

  const double n = static_cast<double>(in.requests);
  m["source.pull_s"] = leg.pull_s;
  m["source.ns_per_request"] = leg.pull_s / n * 1e9;
  m["source.share"] = leg.pull_s / leg.wall_s;
  if (w.from_trace) {
    struct stat st {};
    ::stat(in.trace_path.c_str(), &st);
    m["trace.parse_mb_per_s"] = static_cast<double>(st.st_size) / leg.pull_s / 1e6;
  }
  double replay_s = leg.lanes_s;
  if (controller) {
    // The same stream through bare replay lanes: what the controller
    // lanes spend beyond it is arbitration.
    replay_s = lane_leg(w, in, system, std::nullopt).lanes_s;
    m["sched.lane_s"] = leg.lanes_s;
    m["sched.arbitrate_s"] = leg.lanes_s - replay_s;
    m["sched.ns_per_request"] = leg.lanes_s / n * 1e9;
  }
  m["replay.feed_s"] = replay_s;
  m["replay.ns_per_request"] = replay_s / n * 1e9;
  simulated_layers(s.spec, bare, m);
  // Only a generator in the loop draws Zipf lines (trace-flat's were
  // drawn before timing).
  if (!w.from_trace && memsim::profile_by_name(w.profile).zipf_exponent > 0) {
    m["rng.zipf_ns_per_draw"] = zipf_ns_per_draw(in.seed);
  }
  m["traced.overhead_pct"] = (leg.wall_s - bare_s) / bare_s * 100.0;
  m["traced.coverage"] = (leg.pull_s + leg.lanes_s) / leg.wall_s;
  return m;
}

/// One traced repetition of the multi-tenant workload.
Metrics traced_multi(const Workload& w, const Inputs& in, Checks& checks) {
  Metrics m;
  const tenant::MultiTenantJob job = tenant_job(w, in);
  const std::string label = label_of(w, in);
  Setup s = set_up(w, in, w.run_threads);
  Clock::time_point start = Clock::now();
  const memsim::SimStats bare = tenant::run_multi_tenant(*s.engine, job);
  const double bare_s = seconds_since(start);

  // The shared run and the run-alone baselines, timed separately; put
  // back together exactly as run_multi_tenant does.
  Span pull;
  auto multi = tenant::make_multi_stream(job);
  perfbench::TimedSource timed(*multi, pull);
  start = Clock::now();
  memsim::SimStats shared = s.engine->run(timed, label);
  const double shared_s = seconds_since(start);
  const memsim::SimStats shared_only = shared;
  shared.tenants.resize(job.tenants.size());
  double baselines_s = 0.0;
  // Each tenant's run-alone replay must serve its whole stream: the
  // per-tenant accounting that holds even where the shared run reports
  // no per-tenant breakdown.
  Check alone_check{"tenants_accounted", true, ""};
  for (std::size_t i = 0; i < job.tenants.size(); ++i) {
    shared.tenants[i].name = job.tenants[i].name;
    auto alone = tenant::make_tenant_stream(job, i);
    start = Clock::now();
    const memsim::SimStats alone_stats =
        s.engine->run(*alone, job.tenants[i].name);
    baselines_s += seconds_since(start);
    shared.tenants[i].alone_avg_latency_ns = alone_stats.avg_latency_ns();
    if (alone_stats.reads + alone_stats.writes != in.requests) {
      alone_check.ok = false;
      alone_check.detail += "tenant " + job.tenants[i].name + " served " +
                            std::to_string(alone_stats.reads +
                                           alone_stats.writes) + "; ";
    }
  }
  tenant::apply_fairness(shared);

  // The shared run again on one thread: LanePool's serial mode, and the
  // leg whose layer times add up (the sharded one overlaps them).
  Setup serial = set_up(w, in, 1);
  Span serial_pull;
  auto serial_multi = tenant::make_multi_stream(job);
  perfbench::TimedSource serial_timed(*serial_multi, serial_pull);
  start = Clock::now();
  const memsim::SimStats serial_stats = serial.engine->run(serial_timed, label);
  const double serial_s = seconds_since(start);

  // The engine alone on the pre-drawn stream, and the cache filter alone.
  auto demand_source = tenant::make_multi_stream(job);
  const std::vector<memsim::Request> demand = drain(*demand_source);
  memsim::VectorSource demand_replay(demand);
  start = Clock::now();
  (void)serial.engine->run(demand_replay, label);
  const double engine_s = seconds_since(start);
  const FilterLeg filter = filter_leg(s.spec.tiered->cache, demand);

  const std::string want = fingerprint(w, in, s.spec, bare);
  const bool filter_ok = filter.hits == bare.cache_hits &&
                         filter.misses == bare.cache_misses &&
                         filter.writebacks == bare.writebacks;
  checks.run({count_check(w, in, shared), alone_check,
              equal_check("wrappers_transparent",
                          fingerprint(w, in, s.spec, shared), want),
              equal_check("pool_threads_identical",
                          fingerprint(w, in, s.spec, serial_stats),
                          fingerprint(w, in, s.spec, shared_only)),
              {"filter_leg_matches", filter_ok,
               filter_ok ? "" : "filter-only cache counters differ"}});

  const double n = static_cast<double>(issued(w, in));
  m["source.pull_s"] = pull.busy_s;
  m["source.ns_per_request"] = pull.busy_s / n * 1e9;
  m["source.share"] = pull.busy_s / shared_s;
  m["rng.zipf_ns_per_draw"] = zipf_ns_per_draw(in.seed);
  // Tier replays, backend controller and lane routing: the engine's
  // time beyond the filter (derived, not timed on its own).
  m["replay.feed_s"] = engine_s - filter.filter_s;
  m["replay.ns_per_request"] = (engine_s - filter.filter_s) / n * 1e9;
  simulated_layers(s.spec, bare, m);
  m["hybrid.filter_s"] = filter.filter_s;
  m["hybrid.filter_ns_per_access"] =
      filter.filter_s / static_cast<double>(filter.accesses) * 1e9;
  m["hybrid.hit_rate"] = bare.hit_rate();
  m["hybrid.backend_requests"] = static_cast<double>(filter.backend_requests);
  m["pool.serial_s"] = serial_s;
  m["pool.sharded_s"] = shared_s;
  m["pool.speedup"] = serial_s / shared_s;
  m["tenant.shared_s"] = shared_s;
  m["tenant.baselines_s"] = baselines_s;
  m["tenant.baseline_share"] = baselines_s / (shared_s + baselines_s);
  m["traced.overhead_pct"] = (shared_s + baselines_s - bare_s) / bare_s * 100.0;
  m["traced.coverage"] = (serial_pull.busy_s + engine_s) / serial_s;
  return m;
}

// --- Metric tables -----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"requests_per_s", "1/s"},      {"wall_s", "s"},
    {"setup_s", "s"},               {"peak_rss_mib", "MiB"},
    {"sim_bandwidth_gbps", "GB/s"}, {"sim_epb_pj_per_bit", "pJ/bit"},
};

const std::vector<MetricDef> kPerLayer = {
    {"source.pull_s", "s"},
    {"source.ns_per_request", "ns"},
    {"source.share", "fraction"},
    {"rng.zipf_ns_per_draw", "ns"},
    {"trace.parse_mb_per_s", "MB/s"},
    {"replay.feed_s", "s"},
    {"replay.ns_per_request", "ns"},
    {"replay.bank_utilization", "fraction"},
    {"replay.window_wait_mean_ns", "ns"},
    {"sched.lane_s", "s"},
    {"sched.arbitrate_s", "s"},
    {"sched.ns_per_request", "ns"},
    {"sched.queue_delay_mean_ns", "ns"},
    {"sched.admit_stalls", "count"},
    {"sched.write_drains", "count"},
    {"hybrid.filter_s", "s"},
    {"hybrid.filter_ns_per_access", "ns"},
    {"hybrid.hit_rate", "fraction"},
    {"hybrid.backend_requests", "count"},
    {"pool.serial_s", "s"},
    {"pool.sharded_s", "s"},
    {"pool.speedup", "x"},
    {"tenant.shared_s", "s"},
    {"tenant.baselines_s", "s"},
    {"tenant.baseline_share", "fraction"},
    {"setup.device_spec_s", "s"},
    {"setup.engine_s", "s"},
    {"traced.overhead_pct", "%"},
    {"traced.coverage", "fraction"},
};

// --- JSON output -------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string array_json(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    out += (out.size() > 1 ? ", " : "") + json_number(v);
  }
  return out + "]";
}

std::string metrics_json(const std::vector<MetricDef>& defs,
                         const Metrics& values) {
  std::string out = "{";
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    out += (out.size() > 1 ? ", " : "") + json_string(d.name) +
           ": {\"value\": " + json_number(it == values.end() ? 0.0 : it->second) +
           ", \"unit\": " + json_string(d.unit) + "}";
  }
  return out + "}";
}

std::string checks_json(const Checks& checks) {
  std::string out = "[";
  for (const auto& [name, c] : checks.summary()) {
    out += (out.size() > 1 ? ", " : "") + std::string("{\"name\": ") +
           json_string(name) + ", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"detail\": " + json_string(c.detail) + "}";
  }
  return out + "]";
}

/// Simulated figures printed beside the metrics but kept out of them:
/// the percentiles read from log-bucketed histograms and come out the
/// same for every seed, and max_slowdown is 0 wherever the engine
/// reports no per-tenant breakdown.
std::string simulated_json(const memsim::SimStats& stats) {
  std::ostringstream os;
  os << "{\"read_samples\": " << stats.read_latency_ns.count()
     << ", \"read_mean_ns\": " << json_number(stats.read_latency_ns.mean())
     << ", \"read_p50_ns\": " << json_number(stats.read_latency_ns.p50())
     << ", \"read_p99_ns\": " << json_number(stats.read_latency_ns.p99())
     << ", \"max_slowdown\": " << json_number(stats.max_slowdown)
     << ", \"tenant_breakdown\": "
     << (stats.tenants.empty()         ? "null"
         : has_tenant_breakdown(stats) ? "true"
                                       : "false")
     << "}";
  return os.str();
}

std::string provenance_json(const Workload& w, const Inputs& in, int reps) {
  std::ostringstream os;
  os << "{\"seed\": " << in.seed
     << ", \"hw_threads\": " << std::thread::hardware_concurrency()
     << ", \"run_threads\": " << w.run_threads
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"requests\": " << issued(w, in) << ", \"reps\": " << reps
     << "}";
  return os.str();
}

// --- Modes -------------------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  std::size_t requests = 0;
  std::string data_dir = ".bench_build/data";
};

Inputs make_inputs(const Workload& w, const Args& args, std::size_t requests) {
  Inputs in;
  in.seed = args.seed;
  in.requests = requests;
  if (w.from_trace) in.trace_path = prepare_trace(w, in, args.data_dir);
  return in;
}

int run_mode(const Args& args) {
  const Workload& w = workload_by_name(args.workload);
  const Inputs in = make_inputs(w, args, w.requests);
  Checks checks;

  std::vector<double> setup_s;
  std::vector<double> device_spec_s;
  std::vector<double> engine_s;
  for (int i = 0; i < kSetupSamples; ++i) {
    const Setup s = set_up(w, in, w.run_threads);
    setup_s.push_back(s.total_s);
    device_spec_s.push_back(s.device_spec_s);
    engine_s.push_back(s.engine_s);
  }

  // Warm-up run: checked, not timed. Every later run must reproduce it.
  Setup warm = set_up(w, in, w.run_threads);
  const memsim::SimStats stats = run_once(w, in, warm);
  const std::string want = fingerprint(w, in, warm.spec, stats);
  checks.run({count_check(w, in, stats)});

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  std::vector<double> rps;
  std::vector<double> wall_s;
  std::vector<Metrics> layers;
  do {
    if (args.trace) {
      layers.push_back(w.multi_tenant() ? traced_multi(w, in, checks)
                                        : traced_single(w, in, checks));
      continue;
    }
    const Clock::time_point start = Clock::now();
    Setup s = set_up(w, in, w.run_threads);
    const Clock::time_point run_start = Clock::now();
    const memsim::SimStats rep = run_once(w, in, s);
    const double run_s = seconds_since(run_start);
    wall_s.push_back(seconds_since(start));
    setup_s.push_back(s.total_s);
    rps.push_back(static_cast<double>(issued(w, in)) / run_s);
    checks.run({count_check(w, in, rep),
                equal_check("runs_reproducible", fingerprint(w, in, s.spec, rep),
                            want)});
  } while (Clock::now() < deadline);

  Metrics m;
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) {
      std::vector<double> values;
      for (const Metrics& l : layers) {
        const auto it = l.find(d.name);
        values.push_back(it == l.end() ? 0.0 : it->second);
      }
      m[d.name] = median(values);
    }
    m["setup.device_spec_s"] = median(device_spec_s);
    m["setup.engine_s"] = median(engine_s);
  } else {
    // Read before the traced legs, which hold a pre-drawn stream.
    m["peak_rss_mib"] =
        static_cast<double>(prof::peak_rss_bytes()) / (1024.0 * 1024.0);
    // The traced path must compute the same statistics as the timed one.
    if (w.multi_tenant()) {
      traced_multi(w, in, checks);
    } else {
      traced_single(w, in, checks);
    }
    // The fast end of the runs: on a shared host, interference only
    // slows a run down, and it comes and goes within a run far more
    // than the program's own speed does.
    m["requests_per_s"] = quantile(rps, kFastQuantile);
    m["wall_s"] = quantile(wall_s, 1.0 - kFastQuantile);
    m["setup_s"] = median(setup_s);
    m["sim_bandwidth_gbps"] = stats.bandwidth_gbps();
    m["sim_epb_pj_per_bit"] = stats.epb_pj_per_bit();
  }
  const int reps = static_cast<int>(args.trace ? layers.size() : rps.size());

  std::cout << "{\"workload\": " << json_string(w.name)
            << ", \"provenance\": " << provenance_json(w, in, reps)
            << ", \"attempted\": " << checks.attempted()
            << ", \"failed\": " << checks.failed()
            << ", \"checks\": " << checks_json(checks)
            << ", \"simulated\": " << simulated_json(stats)
            << ", \"runs_requests_per_s\": " << array_json(rps)
            << ", \"metrics\": "
            << metrics_json(args.trace ? kPerLayer : kEndToEnd, m)
            << ", \"record\": " << json_record(w, in, warm.spec, stats) << "}"
            << std::endl;
  return 0;
}

/// comet_sim arguments that replay the same run as `stats` mode.
std::vector<std::string> comet_sim_args(const Workload& w, const Inputs& in) {
  std::vector<std::string> a = {"--device",     w.device,
                                "--requests",   std::to_string(in.requests),
                                "--seed",       std::to_string(in.seed),
                                "--line-bytes", std::to_string(kLineBytes),
                                "--run-threads", std::to_string(w.run_threads),
                                "--threads",    "1"};
  if (w.multi_tenant()) {
    std::string list;
    for (const auto& [name, profile] : w.tenants) {
      list += (list.empty() ? "" : ",") + name + "=" + profile;
    }
    a.insert(a.end(), {"--tenants", list, "--tenant-mapping", "partition"});
  } else if (w.from_trace) {
    a.insert(a.end(), {"--trace-file", in.trace_path, "--cpu-ghz", "2"});
  } else {
    a.insert(a.end(), {"--workload", w.profile});
  }
  if (w.policy) {
    a.insert(a.end(), {"--schedule", sched::policy_name(*w.policy), "--read-q",
                       std::to_string(kQueueDepth), "--write-q",
                       std::to_string(kQueueDepth)});
  }
  return a;
}

int stats_mode(const Args& args) {
  const Workload& w = workload_by_name(args.workload);
  const Inputs in = make_inputs(w, args, args.requests);
  Setup s = set_up(w, in, w.run_threads);
  const memsim::SimStats stats = run_once(w, in, s);
  std::string argv = "[";
  for (const std::string& a : comet_sim_args(w, in)) {
    argv += (argv.size() > 1 ? ", " : "") + json_string(a);
  }
  std::cout << "{\"comet_sim_args\": " << argv << "], \"record\": "
            << json_record(w, in, s.spec, stats) << "}" << std::endl;
  return 0;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench run|stats ...");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--requests") {
      args.requests = std::stoull(value);
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to time a build with assertions on\n";
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to time a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "run") return run_mode(args);
    if (args.mode == "stats") return stats_mode(args);
    throw std::invalid_argument("unknown mode " + args.mode);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
