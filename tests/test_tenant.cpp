// Multi-tenant front-end tests: MultiSource merge semantics (borrowed
// and owned), PacedSource determinism and contracts, address-mapping
// disjointness, the fairness arithmetic edge cases from the issue
// (single tenant, zero-request tenants, saturated baselines), the
// two-tenant end-to-end acceptance run, serial-vs-sharded
// bit-identity of tenant breakdowns for every controller policy —
// fairness variants included — and the run-alone baselines replayed
// beside the shared run: equal results at every thread count, and the
// failure rules (which error wins, no thread left running).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "config/tenant_spec.hpp"
#include "driver/registry.hpp"
#include "memsim/sharded.hpp"
#include "memsim/source.hpp"
#include "memsim/system.hpp"
#include "memsim/trace_gen.hpp"
#include "prof/profiler.hpp"
#include "sched/controller.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "tenant/fairness.hpp"
#include "tenant/multi_source.hpp"
#include "tenant/runner.hpp"

namespace cf = comet::config;
namespace dr = comet::driver;
namespace ms = comet::memsim;
namespace pf = comet::prof;
namespace sc = comet::sched;
namespace tn = comet::tenant;
namespace tl = comet::telemetry;

namespace {

std::vector<ms::Request> drain(ms::RequestSource& source) {
  std::vector<ms::Request> out;
  while (auto r = source.next()) out.push_back(*r);
  return out;
}

ms::Request at(std::uint64_t arrival_ps, std::uint64_t id = 0) {
  ms::Request r;
  r.id = id;
  r.arrival_ps = arrival_ps;
  return r;
}

tn::MultiTenantJob two_tenant_job() {
  tn::MultiTenantJob job;
  cf::TenantSpec a;
  a.name = "web";
  a.profile = ms::profile_by_name("gcc_like");
  cf::TenantSpec b;
  b.name = "batch";
  b.profile = ms::profile_by_name("mcf_like");
  b.burstiness = 0.5;
  job.tenants = {a, b};
  job.default_requests = 2000;
  job.seed = 7;
  job.line_bytes = 64;
  return job;
}

}  // namespace

// ----------------------------------------------------- MultiSource

TEST(MultiSourceTest, MergesByArrivalAndRestampsIds) {
  std::vector<std::unique_ptr<ms::RequestSource>> sources;
  sources.push_back(std::make_unique<ms::VectorSource>(
      std::vector<ms::Request>{at(10, 100), at(30, 101), at(50, 102)}));
  sources.push_back(std::make_unique<ms::VectorSource>(
      std::vector<ms::Request>{at(20, 200), at(30, 201), at(60, 202)}));
  tn::MultiSource merged(std::move(sources));
  const auto out = drain(merged);
  ASSERT_EQ(out.size(), 6u);
  const std::vector<std::uint64_t> arrivals = {10, 20, 30, 30, 50, 60};
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].arrival_ps, arrivals[i]) << i;
    // Ids are re-stamped globally sequential, not inherited.
    EXPECT_EQ(out[i].id, i) << i;
  }
  // The arrival tie at 30 breaks by source order: a's request first.
  EXPECT_EQ(out[2].arrival_ps, 30u);
}

TEST(MultiSourceTest, NextBatchMatchesRepeatedNext) {
  const auto make = [] {
    std::vector<std::unique_ptr<ms::RequestSource>> sources;
    sources.push_back(std::make_unique<ms::VectorSource>(
        std::vector<ms::Request>{at(1), at(4), at(9)}));
    sources.push_back(std::make_unique<ms::VectorSource>(
        std::vector<ms::Request>{at(2), at(3)}));
    return std::make_unique<tn::MultiSource>(std::move(sources));
  };
  auto one = make();
  const auto via_next = drain(*one);
  auto other = make();
  ms::Request block[4];
  std::vector<ms::Request> via_batch;
  for (;;) {
    const std::size_t n = other->next_batch(block, 4);
    if (n == 0) break;
    via_batch.insert(via_batch.end(), block, block + n);
  }
  ASSERT_EQ(via_next.size(), via_batch.size());
  for (std::size_t i = 0; i < via_next.size(); ++i) {
    EXPECT_EQ(via_next[i].arrival_ps, via_batch[i].arrival_ps) << i;
  }
}

TEST(MultiSourceTest, RejectsEmptySourceList) {
  EXPECT_THROW(
      tn::MultiSource(std::vector<std::unique_ptr<ms::RequestSource>>{}),
      std::invalid_argument);
}

// ----------------------------------------------------- PacedSource

TEST(PacedSourceTest, DeterministicSortedAndTagged) {
  const auto make = [] {
    return tn::PacedSource(
        std::make_unique<ms::GeneratorSource>(
            ms::TraceGenerator(ms::profile_by_name("gcc_like"), 3)
                .stream(500, 64)),
        /*tenant=*/2, /*tenant_count=*/3, cf::TenantMapping::kPartition,
        /*mean_interarrival_ns=*/8.0, /*burstiness=*/0.4, /*seed=*/11,
        /*line_bytes=*/64);
  };
  auto first = make();
  auto second = make();
  const auto a = drain(first);
  const auto b = drain(second);
  ASSERT_EQ(a.size(), 500u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_ps, b[i].arrival_ps) << i;
    EXPECT_EQ(a[i].address, b[i].address) << i;
    EXPECT_EQ(a[i].tenant, 2) << i;
    if (i > 0) {
      EXPECT_GE(a[i].arrival_ps, a[i - 1].arrival_ps) << i;
    }
    // Partition mapping: every address inside tenant 2's slab.
    EXPECT_EQ(a[i].address >> 40, 2u) << i;
  }
}

TEST(PacedSourceTest, ZeroMeanKeepsInnerArrivals) {
  const std::vector<ms::Request> trace = {at(100), at(200), at(350)};
  auto paced = tn::PacedSource(
      std::make_unique<ms::VectorSource>(std::vector<ms::Request>(trace)),
      /*tenant=*/1, /*tenant_count=*/1, cf::TenantMapping::kPartition,
      /*mean_interarrival_ns=*/0.0, /*burstiness=*/0.0, /*seed=*/1,
      /*line_bytes=*/64);
  const auto out = drain(paced);
  ASSERT_EQ(out.size(), trace.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].arrival_ps, trace[i].arrival_ps) << i;
    EXPECT_EQ(out[i].tenant, 1) << i;
  }
}

TEST(PacedSourceTest, RejectsZeroTenantIdAndBadCount) {
  const auto inner = [] {
    return std::make_unique<ms::VectorSource>(std::vector<ms::Request>{});
  };
  EXPECT_THROW(tn::PacedSource(inner(), 0, 1, cf::TenantMapping::kPartition,
                               0.0, 0.0, 1, 64),
               std::invalid_argument);
  EXPECT_THROW(tn::PacedSource(inner(), 3, 2, cf::TenantMapping::kPartition,
                               0.0, 0.0, 1, 64),
               std::invalid_argument);
}

// ------------------------------------------------- address mappings

TEST(AddressMappingTest, PartitionSlabsAreDisjoint) {
  EXPECT_EQ(tn::map_partition(1, 0), 1ull << 40);
  EXPECT_EQ(tn::map_partition(2, 0), 2ull << 40);
  // High garbage in the tenant-private address is masked off, so no
  // tenant can escape its slab.
  EXPECT_EQ(tn::map_partition(1, (1ull << 40) + 64), (1ull << 40) + 64);
  EXPECT_EQ(tn::map_partition(3, ~0ull) >> 40, 3u);
}

TEST(AddressMappingTest, InterleaveAlternatesLines) {
  // Two tenants, 64-byte lines: tenant 1 owns even shared lines,
  // tenant 2 odd ones, offsets preserved.
  EXPECT_EQ(tn::map_interleave(1, 2, 0, 64), 0u);
  EXPECT_EQ(tn::map_interleave(2, 2, 0, 64), 64u);
  EXPECT_EQ(tn::map_interleave(1, 2, 64, 64), 128u);
  EXPECT_EQ(tn::map_interleave(2, 2, 64, 64), 192u);
  EXPECT_EQ(tn::map_interleave(1, 2, 7, 64), 7u);
}

// ----------------------------------------------------- fairness math

TEST(FairnessTest, JainIndexEdgeCases) {
  // Empty and all-zero are vacuously fair; the issue's "one tenant"
  // case is exactly fair by construction.
  EXPECT_DOUBLE_EQ(tn::jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(tn::jain_index({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(tn::jain_index({3.7}), 1.0);
  EXPECT_DOUBLE_EQ(tn::jain_index({2.0, 2.0, 2.0}), 1.0);
  // One tenant hogging everything: 1/n.
  EXPECT_DOUBLE_EQ(tn::jain_index({1.0, 0.0, 0.0, 0.0}), 0.25);
}

TEST(FairnessTest, ZeroRequestTenantsAreExcluded) {
  ms::SimStats stats;
  stats.tenants.resize(3);
  stats.tenants[0].name = "active";
  stats.tenants[0].reads = 10;
  stats.tenants[0].latency_ns.add(200.0);
  stats.tenants[0].alone_avg_latency_ns = 100.0;
  stats.tenants[1].name = "idle";  // No requests at all.
  stats.tenants[2].name = "unbaselined";
  stats.tenants[2].reads = 5;
  stats.tenants[2].latency_ns.add(50.0);
  stats.tenants[2].alone_avg_latency_ns = 0.0;  // Baseline recorded none.
  tn::apply_fairness(stats);
  EXPECT_DOUBLE_EQ(stats.tenants[0].slowdown, 2.0);
  EXPECT_DOUBLE_EQ(stats.tenants[1].slowdown, 0.0);
  EXPECT_DOUBLE_EQ(stats.tenants[2].slowdown, 0.0);
  EXPECT_DOUBLE_EQ(stats.max_slowdown, 2.0);
  // Only the one baselined active tenant counts: vacuously fair.
  EXPECT_DOUBLE_EQ(stats.fairness_index, 1.0);
}

TEST(FairnessTest, SaturatedBaselineYieldsSubUnitySlowdown) {
  // A baseline that saturates (run-alone latency worse than shared —
  // e.g. a bursty tenant whose solo queue blows up while the shared
  // run smooths it) must produce slowdown < 1, not an error.
  ms::SimStats stats;
  stats.tenants.resize(2);
  stats.tenants[0].reads = 4;
  stats.tenants[0].latency_ns.add(100.0);
  stats.tenants[0].alone_avg_latency_ns = 400.0;
  stats.tenants[1].writes = 4;
  stats.tenants[1].latency_ns.add(300.0);
  stats.tenants[1].alone_avg_latency_ns = 100.0;
  tn::apply_fairness(stats);
  EXPECT_DOUBLE_EQ(stats.tenants[0].slowdown, 0.25);
  EXPECT_DOUBLE_EQ(stats.tenants[1].slowdown, 3.0);
  EXPECT_DOUBLE_EQ(stats.max_slowdown, 3.0);
  EXPECT_GT(stats.fairness_index, 0.0);
  EXPECT_LT(stats.fairness_index, 1.0);
}

// ------------------------------------------------------ spec checks

TEST(TenantSpecTest, ValidationRejectsBadSpecs) {
  cf::TenantSpec spec;
  spec.name = "a";
  spec.profile = ms::profile_by_name("gcc_like");
  spec.validate();  // Baseline: valid.

  cf::TenantSpec unnamed = spec;
  unnamed.name.clear();
  EXPECT_THROW(unnamed.validate(), std::invalid_argument);

  cf::TenantSpec sourceless = spec;
  sourceless.profile = {};
  EXPECT_THROW(sourceless.validate(), std::invalid_argument);

  cf::TenantSpec bursty = spec;
  bursty.burstiness = 1.0;
  EXPECT_THROW(bursty.validate(), std::invalid_argument);

  cf::TenantSpec negative = spec;
  negative.interarrival_ns = -1.0;
  EXPECT_THROW(negative.validate(), std::invalid_argument);

  cf::TenantSpec twin = spec;
  EXPECT_THROW(cf::validate_tenants({spec, twin}), std::invalid_argument);
}

TEST(TenantSpecTest, MappingNamesRoundTrip) {
  EXPECT_EQ(cf::tenant_mapping_from_name("partition"),
            cf::TenantMapping::kPartition);
  EXPECT_EQ(cf::tenant_mapping_from_name("interleave"),
            cf::TenantMapping::kInterleave);
  EXPECT_STREQ(cf::tenant_mapping_name(cf::TenantMapping::kInterleave),
               "interleave");
  EXPECT_THROW(cf::tenant_mapping_from_name("striped"),
               std::invalid_argument);
}

// ------------------------------------------------------- end to end

TEST(MultiTenantRunTest, TwoTenantRunReportsBreakdownsAndFairness) {
  const tn::MultiTenantJob job = two_tenant_job();
  auto engine = dr::make_device_spec("comet").make_engine(
      sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 16, 16), 1);
  const ms::SimStats stats = tn::run_multi_tenant(*engine, job);

  ASSERT_TRUE(stats.is_multi_tenant());
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].name, "web");
  EXPECT_EQ(stats.tenants[1].name, "batch");
  std::uint64_t total = 0;
  for (const auto& tenant : stats.tenants) {
    EXPECT_EQ(tenant.requests(), 2000u);
    total += tenant.requests();
    EXPECT_GT(tenant.latency_ns.p99(), 0.0);
    EXPECT_GT(tenant.alone_avg_latency_ns, 0.0);
    EXPECT_GT(tenant.slowdown, 0.0);
  }
  // The breakdown tiles the run: every request belongs to one tenant.
  EXPECT_EQ(total, stats.reads + stats.writes);
  EXPECT_GT(stats.max_slowdown, 0.0);
  EXPECT_GT(stats.fairness_index, 0.0);
  EXPECT_LE(stats.fairness_index, 1.0);
}

TEST(MultiTenantRunTest, InterleaveMappingContendForTheSameLines) {
  tn::MultiTenantJob job = two_tenant_job();
  job.mapping = cf::TenantMapping::kInterleave;
  auto engine = dr::make_device_spec("comet").make_engine(std::nullopt, 1);
  const ms::SimStats stats = tn::run_multi_tenant(*engine, job);
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].requests() + stats.tenants[1].requests(),
            stats.reads + stats.writes);
}

TEST(MultiTenantRunTest, SharedRunMatchesMergedSubStreams) {
  // The merged stream is exactly the tenants' sub-streams interleaved:
  // replaying it twice is deterministic.
  const tn::MultiTenantJob job = two_tenant_job();
  auto engine = dr::make_device_spec("comet").make_engine(std::nullopt, 1);
  const ms::SimStats first = tn::run_multi_tenant(*engine, job);
  const ms::SimStats second = tn::run_multi_tenant(*engine, job);
  EXPECT_EQ(first.reads, second.reads);
  EXPECT_EQ(first.writes, second.writes);
  EXPECT_EQ(first.span_ps, second.span_ps);
  EXPECT_EQ(first.tenants[0].latency_ns.sum(),
            second.tenants[0].latency_ns.sum());
  EXPECT_EQ(first.fairness_index, second.fairness_index);
}

TEST(MultiTenantRunTest, CollectorSeesTheSharedRunProfilerSeesBaselines) {
  // The collector records the shared run only: it must equal one
  // recorded by a bare run of the merged stream. The profiler sees the
  // baselines too: one baseline_replays stage, and progress ticks for
  // the shared run plus every tenant's run alone.
  const tn::MultiTenantJob job = two_tenant_job();
  auto engine = dr::make_device_spec("comet").make_engine(
      sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 16, 16), 1);
  tl::TelemetrySpec spec;
  spec.trace_path = "unused.json";  // Only tracing() matters in-process.
  spec.trace_limit = 0;             // Unlimited.
  spec.metrics_interval_ps = 5'000'000;
  pf::ProfSpec profiling;
  profiling.profile = true;
  tl::Collector collector(spec);
  pf::Profiler profiler(profiling);
  const ms::SimStats stats =
      tn::run_multi_tenant(*engine, job, &collector, &profiler);

  tl::Collector shared_only(spec);
  const ms::SimStats shared =
      engine->run(*tn::make_multi_stream(job),
                  tn::multi_workload_name(job.tenants), &shared_only);
  ASSERT_EQ(collector.stages().size(), shared_only.stages().size());
  EXPECT_GT(collector.recorded_events(), 0u);
  EXPECT_EQ(collector.recorded_events(), shared_only.recorded_events());
  const auto exported = [](const tl::Collector& c) {
    std::ostringstream os;
    tl::write_chrome_trace(os, {{"run", &c}});
    tl::write_timeline_csv(os, {{"run", &c}});
    return os.str();
  };
  EXPECT_EQ(exported(collector), exported(shared_only));

  EXPECT_EQ(profiler.stages().at("baseline_replays").calls, 1u);
  std::uint64_t alone_requests = 0;
  for (const auto& tenant : stats.tenants) alone_requests += tenant.requests();
  EXPECT_EQ(profiler.progress(),
            shared.reads + shared.writes + alone_requests);
}

// ------------------------------------- sharded bit-identity (tenants)

TEST(MultiTenantShardingTest, SerialAndShardedBreakdownsAreBitIdentical) {
  const tn::MultiTenantJob job = two_tenant_job();
  const dr::DeviceSpec spec = dr::make_device_spec("comet");
  for (const auto& info : sc::known_policies()) {
    const auto config = sc::ControllerConfig::with_depths(info.policy, 8, 8);
    auto serial_engine = spec.make_engine(config, 1);
    auto sharded_engine = spec.make_engine(config, 8);
    const ms::SimStats serial = tn::run_multi_tenant(*serial_engine, job);
    const ms::SimStats sharded = tn::run_multi_tenant(*sharded_engine, job);
    EXPECT_TRUE(serial == sharded) << info.name;
  }
}

// ------------------------------ baselines beside the shared run
//
// run_multi_tenant replays the run-alone baselines on one-thread twins
// of the engine: up to run_threads - 1 helpers, as many as the hardware
// threads left spare, start with the shared run, and the caller takes
// the tenants left after it. The ctest
// tenant_concurrent_baselines_repeat runs these cases 30 times under
// load.

namespace {

tn::MultiTenantJob three_tenant_job() {
  tn::MultiTenantJob job = two_tenant_job();
  cf::TenantSpec c;
  c.name = "stream";
  c.profile = ms::profile_by_name("lbm_like");
  job.tenants.push_back(c);
  job.default_requests = 1500;
  return job;
}

/// A file in the working directory, deleted on scope exit. Pid-qualified
/// so parallel ctest invocations of this binary never collide.
class TempFile {
 public:
  TempFile(const std::string& tag, const std::string& text)
      : path_("test_tenant_" + tag + "_" + std::to_string(::getpid()) +
              ".nvt") {
    std::ofstream(path_) << text;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Replays like `inner`, then throws for the workload names in
/// `failing`: the shared run is named after every tenant
/// ("web+batch+stream"), each baseline after its own tenant. Its twins
/// fail the same way.
class FailingEngine final : public ms::Engine {
 public:
  FailingEngine(std::unique_ptr<ms::Engine> inner,
                std::set<std::string> failing)
      : inner_(std::move(inner)), failing_(std::move(failing)) {}

  using Engine::run;

  ms::SimStats run(ms::RequestSource& source, const std::string& name,
                   tl::Collector* collector,
                   pf::Profiler* profiler) const override {
    ms::SimStats stats = inner_->run(source, name, collector, profiler);
    if (failing_.count(name) != 0) {
      throw std::runtime_error("failed: " + name);
    }
    return stats;
  }

  int run_threads() const override { return inner_->run_threads(); }

  std::unique_ptr<ms::Engine> serial_twin() const override {
    return std::make_unique<FailingEngine>(inner_->serial_twin(), failing_);
  }

 private:
  std::unique_ptr<ms::Engine> inner_;
  std::set<std::string> failing_;
};

/// What run_multi_tenant threw ("" if it returned), checking that it
/// left no replay thread running.
std::string failure_of(const ms::Engine& engine,
                       const tn::MultiTenantJob& job) {
  const int before = ms::running_replay_threads();
  std::string what;
  try {
    tn::run_multi_tenant(engine, job);
  } catch (const std::exception& e) {
    what = e.what();
  }
  EXPECT_EQ(ms::running_replay_threads(), before) << what;
  return what;
}

}  // namespace

TEST(ConcurrentBaselines, EveryThreadCountGivesEqualStats) {
  // Two run threads start at most one helper for three tenants, so the
  // caller replays the rest; four start up to one per tenant, as many as
  // the host has hardware threads spare.
  const int before = ms::running_replay_threads();
  const tn::MultiTenantJob job = three_tenant_job();
  for (const char* device : {"comet", "hybrid-comet"}) {
    const dr::DeviceSpec spec = dr::make_device_spec(device);
    for (const auto& info : sc::known_policies()) {
      const auto config = sc::ControllerConfig::with_depths(info.policy, 8, 8);
      const ms::SimStats serial =
          tn::run_multi_tenant(*spec.make_engine(config, 1), job);
      ASSERT_EQ(serial.tenants.size(), 3u);
      for (const auto& tenant : serial.tenants) {
        EXPECT_GT(tenant.alone_avg_latency_ns, 0.0) << device << info.name;
      }
      for (const int threads : {2, 4}) {
        auto engine = spec.make_engine(config, threads);
        EXPECT_EQ(engine->run_threads(), threads);
        EXPECT_EQ(engine->serial_twin()->run_threads(), 1);
        EXPECT_TRUE(tn::run_multi_tenant(*engine, job) == serial)
            << device << " " << info.name << " at " << threads;
        EXPECT_EQ(ms::running_replay_threads(), before);
      }
    }
  }
}

TEST(ConcurrentBaselines, MissingOrUnsortedTraceTenantThrowsItsError) {
  const TempFile unsorted("unsorted",
                          "10 R 0x1000\n30 W 0x2000\n20 R 0x3000\n");
  tn::MultiTenantJob job = three_tenant_job();
  job.tenants[1].trace_file = unsorted.path();
  tn::MultiTenantJob missing = job;
  missing.tenants[1].trace_file = unsorted.path() + ".missing";
  const dr::DeviceSpec spec = dr::make_device_spec("comet");
  for (const int threads : {1, 2, 4}) {
    auto engine = spec.make_engine(
        sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 8, 8),
        threads);
    const std::string what = failure_of(*engine, job);
    EXPECT_NE(what.find(unsorted.path() + ": non-monotonic cycle"),
              std::string::npos)
        << what;
    EXPECT_NE(failure_of(*engine, missing)
                  .find("cannot open trace file '" + unsorted.path() +
                        ".missing'"),
              std::string::npos);
  }
}

TEST(ConcurrentBaselines, HelpersClaimOnlyTheSpareHardwareThreads) {
  // An outer spare-only loop asks for more helpers than the host has; a
  // nested one on the caller's index 0 then finds none spare, since the
  // outer helpers hold their claims until the nested loop returns. All
  // helper threads together stay within the hardware threads left
  // beside the caller, the count never passes the hardware threads, and
  // the claims are released on return.
  const int hardware = ms::resolve_run_threads(0);
  const int before = ms::running_replay_threads();
  std::mutex mutex;
  std::set<std::thread::id> helpers;
  int peak = before;
  const auto record = [&](bool on_caller) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!on_caller) helpers.insert(std::this_thread::get_id());
    peak = std::max(peak, ms::running_replay_threads());
  };
  std::atomic<bool> nested_done{false};
  const std::size_t many = static_cast<std::size_t>(hardware) + 4;
  const int threads = static_cast<int>(many) + 1;
  ms::for_each_index(
      many + 1, threads,
      [&](std::size_t i, bool on_caller) {
        if (i == 0) {
          ms::for_each_index(
              many + 1, threads,
              [&](std::size_t j, bool nested_on_caller) {
                if (j != 0) record(nested_on_caller);
              },
              /*spare_only=*/true);
          nested_done = true;
          return;
        }
        record(on_caller);
        while (!nested_done) std::this_thread::yield();
      },
      /*spare_only=*/true);
  EXPECT_LE(static_cast<int>(helpers.size()),
            std::max(0, hardware - before - 1));
  EXPECT_LE(peak, std::max(hardware, before));
  EXPECT_EQ(ms::running_replay_threads(), before);
}

TEST(ConcurrentBaselines, LowestFailingTenantWinsAndTheSharedRunWinsOverAll) {
  const tn::MultiTenantJob job = three_tenant_job();
  const std::string shared = tn::multi_workload_name(job.tenants);
  const dr::DeviceSpec spec = dr::make_device_spec("comet");
  for (const int threads : {1, 2, 4}) {
    const auto engine = [&](std::set<std::string> failing) {
      return FailingEngine(
          spec.make_engine(
              sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 8, 8),
              threads),
          std::move(failing));
    };
    EXPECT_EQ(failure_of(engine({"stream"}), job), "failed: stream");
    EXPECT_EQ(failure_of(engine({"stream", "batch"}), job), "failed: batch");
    EXPECT_EQ(failure_of(engine({"stream", "batch", shared}), job),
              "failed: " + shared);
    EXPECT_EQ(failure_of(engine({shared}), job), "failed: " + shared);
    EXPECT_EQ(failure_of(engine({}), job), "");
  }
}

// -------------------------------------------- fairness policy effects

TEST(FairnessPolicyTest, UntaggedStreamsMatchFrFcfsExactly) {
  // With one implicit tenant the fairness machinery must change
  // nothing: token-budget and frfcfs-cap degenerate to frfcfs.
  const auto trace = ms::TraceGenerator(ms::profile_by_name("mcf_like"), 13)
                         .generate(3000, 64);
  const dr::DeviceSpec spec = dr::make_device_spec("comet");
  const auto run = [&](sc::Policy policy) {
    auto engine =
        spec.make_engine(sc::ControllerConfig::with_depths(policy, 8, 8), 1);
    return engine->run(trace, "mcf_like");
  };
  const ms::SimStats frfcfs = run(sc::Policy::kFrFcfs);
  for (const auto policy :
       {sc::Policy::kTokenBudget, sc::Policy::kFrFcfsCap}) {
    const ms::SimStats fair = run(policy);
    EXPECT_EQ(fair.reads, frfcfs.reads);
    EXPECT_EQ(fair.span_ps, frfcfs.span_ps);
    EXPECT_EQ(fair.read_latency_ns.sum(), frfcfs.read_latency_ns.sum());
    EXPECT_EQ(fair.write_latency_ns.sum(), frfcfs.write_latency_ns.sum());
    EXPECT_EQ(fair.sched_queue_delay_ns.sum(),
              frfcfs.sched_queue_delay_ns.sum());
  }
}

TEST(FairnessPolicyTest, FairnessKnobsValidate) {
  sc::ControllerConfig config;
  config.tenant_tokens = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.tenant_tokens = 1;
  config.starvation_cap = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.starvation_cap = 1;
  config.validate();
}

TEST(FairnessPolicyTest, PolicyNamesRoundTrip) {
  EXPECT_EQ(sc::policy_from_name("token-budget"), sc::Policy::kTokenBudget);
  EXPECT_EQ(sc::policy_from_name("frfcfs-cap"), sc::Policy::kFrFcfsCap);
  EXPECT_STREQ(sc::policy_name(sc::Policy::kTokenBudget), "token-budget");
  EXPECT_STREQ(sc::policy_name(sc::Policy::kFrFcfsCap), "frfcfs-cap");
}
