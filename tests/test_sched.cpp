// Memory-controller scheduling tests: policy/config plumbing, the
// bit-identity anchor (unbounded-queue fcfs == legacy arrival-order
// replay on every registry device), genuine reordering effects (FR-FCFS
// open-row batching, read-first write deferral), write-drain hysteresis
// edges, bounded-queue backpressure, hybrid backend routing, and the
// driver/CLI/sweep integration.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "config/experiment.hpp"
#include "driver/options.hpp"
#include "driver/registry.hpp"
#include "driver/report.hpp"
#include "driver/sweep.hpp"
#include "hybrid/tiered_system.hpp"
#include "memsim/system.hpp"
#include "memsim/trace_gen.hpp"
#include "sched/controller.hpp"
#include "util/units.hpp"

namespace ms = comet::memsim;
namespace sc = comet::sched;
namespace cu = comet::util;
namespace hy = comet::hybrid;

namespace {

/// Single-channel single-bank DRAM-style device with a strong row
/// buffer: 1000 ns accesses that drop to 100 ns on an open-row hit, so
/// FR-FCFS batching is clearly visible.
ms::DeviceModel row_device() {
  ms::DeviceModel d;
  d.name = "rowdev";
  d.capacity_bytes = 1ull << 30;
  d.timing.channels = 1;
  d.timing.banks_per_channel = 1;
  d.timing.line_bytes = 64;
  d.timing.read_occupancy_ps = cu::ns_to_ps(1000);
  d.timing.write_occupancy_ps = cu::ns_to_ps(1000);
  d.timing.burst_ps = cu::ns_to_ps(1);
  d.timing.interface_ps = cu::ns_to_ps(5);
  d.timing.has_row_buffer = true;
  d.timing.row_size_bytes = 8192;
  d.timing.row_hit_saving_ps = cu::ns_to_ps(900);
  d.timing.queue_depth = 64;
  d.energy.read_pj_per_bit = 1.0;
  d.energy.write_pj_per_bit = 2.0;
  return d;
}

/// Fast-read, very-slow-write OPCM-style device (no row buffer).
ms::DeviceModel asym_device() {
  ms::DeviceModel d;
  d.name = "asymdev";
  d.capacity_bytes = 1ull << 30;
  d.timing.channels = 1;
  d.timing.banks_per_channel = 1;
  d.timing.line_bytes = 64;
  d.timing.read_occupancy_ps = cu::ns_to_ps(50);
  d.timing.write_occupancy_ps = cu::ns_to_ps(2000);
  d.timing.burst_ps = cu::ns_to_ps(1);
  d.timing.interface_ps = cu::ns_to_ps(5);
  d.timing.queue_depth = 64;
  d.energy.read_pj_per_bit = 1.0;
  d.energy.write_pj_per_bit = 20.0;
  return d;
}

ms::Request make_req(std::uint64_t id, std::uint64_t arrival_ps, ms::Op op,
                     std::uint64_t addr) {
  ms::Request r;
  r.id = id;
  r.arrival_ps = arrival_ps;
  r.op = op;
  r.address = addr;
  r.size_bytes = 64;
  return r;
}

sc::ControllerConfig unbounded(sc::Policy policy) {
  return sc::ControllerConfig::with_depths(policy, 0, 0);
}

ms::SimStats run_with(const ms::DeviceModel& model,
                      const sc::ControllerConfig& config,
                      const std::vector<ms::Request>& requests) {
  const sc::FlatSystem system(model, config);
  return system.run(requests, "crafted");
}

/// `legacy` with the scheduler breakdown of `scheduled` copied in. The
/// bit-identity anchors compare an unscheduled run (which has no
/// breakdown) with a scheduled one; every other field must match
/// exactly.
ms::SimStats with_sched_breakdown(ms::SimStats legacy,
                                  const ms::SimStats& scheduled) {
  legacy.scheduled = scheduled.scheduled;
  legacy.sched_policy = scheduled.sched_policy;
  legacy.sched_queue_delay_ns = scheduled.sched_queue_delay_ns;
  legacy.service_latency_ns = scheduled.service_latency_ns;
  legacy.read_queue_occupancy = scheduled.read_queue_occupancy;
  legacy.write_queue_occupancy = scheduled.write_queue_occupancy;
  legacy.write_drains = scheduled.write_drains;
  legacy.drained_writes = scheduled.drained_writes;
  legacy.drain_stalls = scheduled.drain_stalls;
  legacy.admit_stalls = scheduled.admit_stalls;
  return legacy;
}

}  // namespace

// ----------------------------------------------------- policy / config

TEST(SchedPolicy, NamesRoundTrip) {
  for (const auto policy : {sc::Policy::kFcfs, sc::Policy::kFrFcfs,
                            sc::Policy::kReadFirst}) {
    EXPECT_EQ(sc::policy_from_name(sc::policy_name(policy)), policy);
  }
  EXPECT_THROW(sc::policy_from_name("lifo"), std::invalid_argument);
  EXPECT_THROW(sc::policy_from_name(""), std::invalid_argument);
}

TEST(SchedConfig, Validation) {
  EXPECT_NO_THROW(sc::ControllerConfig{}.validate());
  sc::ControllerConfig c;
  c.read_queue_depth = -1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {};
  c.drain_high_watermark = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {};
  c.drain_low_watermark = c.drain_high_watermark + 1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {};
  c.write_queue_depth = 8;  // high watermark (28) beyond the bound
  EXPECT_THROW(c.validate(), std::invalid_argument);
  // Watermark == queue depth is a legal edge (drain on a full queue).
  c = sc::ControllerConfig::with_depths(sc::Policy::kReadFirst, 8, 8);
  c.drain_high_watermark = 8;
  EXPECT_NO_THROW(c.validate());
}

TEST(SchedConfig, WithDepthsDerivesWatermarks) {
  const auto c = sc::ControllerConfig::with_depths(sc::Policy::kReadFirst,
                                                   16, 16);
  EXPECT_EQ(c.read_queue_depth, 16);
  EXPECT_EQ(c.write_queue_depth, 16);
  EXPECT_EQ(c.drain_high_watermark, 14);  // 7/8
  EXPECT_EQ(c.drain_low_watermark, 6);    // 3/8
  // Unbounded keeps the depth-32 defaults.
  const auto u = unbounded(sc::Policy::kFcfs);
  EXPECT_EQ(u.drain_high_watermark, 28);
  EXPECT_EQ(u.drain_low_watermark, 12);
  // Degenerate single-slot queue still validates.
  EXPECT_NO_THROW(
      sc::ControllerConfig::with_depths(sc::Policy::kReadFirst, 1, 1));
}

// ------------------------------------------- the bit-identity anchor

TEST(SchedFcfs, UnboundedIsBitIdenticalOnEveryRegistryDevice) {
  // The acceptance criterion: an unbounded-queue fcfs controller must
  // reproduce today's arrival-order replay bit for bit on every flat
  // and hybrid registry device, so every existing result stays a
  // regression gate.
  std::vector<std::string> tokens = comet::driver::known_devices();
  for (const auto& token : comet::driver::known_hybrid_devices()) {
    tokens.push_back(token);
  }
  for (const char* workload : {"gcc_like", "lbm_like"}) {
    const auto profile = ms::profile_by_name(workload);
    for (const auto& token : tokens) {
      const auto spec = comet::driver::make_device_spec(token);
      const auto legacy_engine = spec.make_engine();
      const auto sched_engine = spec.make_engine(unbounded(sc::Policy::kFcfs));
      auto legacy_source = ms::TraceGenerator(profile, 7).stream(2000, 128);
      auto sched_source = ms::TraceGenerator(profile, 7).stream(2000, 128);
      const auto legacy = legacy_engine->run(legacy_source, workload);
      const auto scheduled = sched_engine->run(sched_source, workload);
      EXPECT_FALSE(legacy.is_scheduled()) << token;
      EXPECT_TRUE(scheduled.is_scheduled()) << token;
      EXPECT_EQ(scheduled.sched_policy, "fcfs") << token;
      // fcfs hands off at arrival: zero controller-queue time, and the
      // device service interval is the whole end-to-end latency.
      EXPECT_EQ(scheduled.sched_queue_delay_ns.max(), 0.0) << token;
      EXPECT_TRUE(with_sched_breakdown(legacy, scheduled) == scheduled)
          << token << "/" << workload;
    }
  }
}

// ------------------------------------------------- reordering effects

TEST(SchedFrFcfs, BatchesOpenRowHits) {
  // Forty reads alternating between two rows of one bank, arriving in a
  // burst. fcfs replays them in order — every access is a row miss —
  // while frfcfs holds them in the read queue and issues all of row A
  // before row B, converting most accesses into row hits.
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 40; ++i) {
    reqs.push_back(make_req(std::uint64_t(i), std::uint64_t(i),
                            ms::Op::kRead,
                            (i % 2) ? 8192u : 0u));
  }
  const auto fcfs = run_with(row_device(), unbounded(sc::Policy::kFcfs), reqs);
  const auto frfcfs =
      run_with(row_device(), unbounded(sc::Policy::kFrFcfs), reqs);
  EXPECT_EQ(frfcfs.reads, 40u);
  // Reordering measurably improves both wall clock and mean latency.
  EXPECT_LT(frfcfs.span_ps, fcfs.span_ps);
  EXPECT_LT(frfcfs.read_latency_ns.mean(), fcfs.read_latency_ns.mean());
  // And the controller-queue wait is now visible in the breakdown.
  EXPECT_GT(frfcfs.sched_queue_delay_ns.mean(), 0.0);
  EXPECT_EQ(fcfs.sched_queue_delay_ns.max(), 0.0);
  // End-to-end latency == controller queue + device-relative service
  // cannot be asserted per-sample here, but the means must compose.
  EXPECT_GT(frfcfs.service_latency_ns.count(), 0u);
}

TEST(SchedReadFirst, ReadsOvertakeSlowWrites) {
  // A burst of slow writes followed by latency-critical reads: fcfs
  // serializes the reads behind every write; read-first lets the reads
  // jump the write queue.
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 10; ++i) {
    reqs.push_back(make_req(std::uint64_t(i), std::uint64_t(i),
                            ms::Op::kWrite, std::uint64_t(i) * 64));
  }
  for (int i = 10; i < 20; ++i) {
    reqs.push_back(make_req(std::uint64_t(i), std::uint64_t(i),
                            ms::Op::kRead, std::uint64_t(i) * 64));
  }
  const auto fcfs = run_with(asym_device(), unbounded(sc::Policy::kFcfs), reqs);
  const auto rf =
      run_with(asym_device(), unbounded(sc::Policy::kReadFirst), reqs);
  EXPECT_LT(rf.read_latency_ns.mean(), fcfs.read_latency_ns.mean());
  EXPECT_GE(rf.write_latency_ns.mean(), fcfs.write_latency_ns.mean());
  EXPECT_GT(rf.sched_queue_delay_ns.mean(), 0.0);
}

// --------------------------------------------- write-drain hysteresis

TEST(SchedReadFirst, DrainTriggersAtWatermarkEqualToDepth) {
  // Edge case: high watermark == write queue depth — drain mode can
  // only engage on a completely full queue, and late writes stall at
  // admission while it is full.
  auto config = sc::ControllerConfig::with_depths(sc::Policy::kReadFirst,
                                                  0, 4);
  config.drain_high_watermark = 4;
  config.drain_low_watermark = 0;
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(make_req(std::uint64_t(i), std::uint64_t(i),
                            ms::Op::kWrite, std::uint64_t(i) * 64));
  }
  const auto stats = run_with(asym_device(), config, reqs);
  EXPECT_EQ(stats.writes, 8u);
  EXPECT_GE(stats.write_drains, 1u);
  EXPECT_GE(stats.drained_writes, 4u);
  EXPECT_GE(stats.admit_stalls, 1u);
  // No reads existed to stall behind the drain.
  EXPECT_EQ(stats.drain_stalls, 0u);
}

TEST(SchedReadFirst, DrainStallsCountReadsWaitingBehindADrain) {
  // Enough writes to trip the watermark while reads are pending.
  auto config = sc::ControllerConfig::with_depths(sc::Policy::kReadFirst,
                                                  0, 8);
  config.drain_high_watermark = 4;
  config.drain_low_watermark = 1;
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 12; ++i) {
    reqs.push_back(make_req(std::uint64_t(i), std::uint64_t(i),
                            ms::Op::kWrite, std::uint64_t(i) * 64));
  }
  for (int i = 12; i < 20; ++i) {
    reqs.push_back(make_req(std::uint64_t(i), std::uint64_t(i),
                            ms::Op::kRead, std::uint64_t(i) * 64));
  }
  const auto stats = run_with(asym_device(), config, reqs);
  EXPECT_GE(stats.write_drains, 1u);
  EXPECT_GT(stats.drain_stalls, 0u);
}

TEST(SchedReadFirst, ZeroWriteStreamNeverDrains) {
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 50; ++i) {
    reqs.push_back(make_req(std::uint64_t(i), std::uint64_t(i),
                            ms::Op::kRead, std::uint64_t(i % 7) * 64));
  }
  const auto stats =
      run_with(asym_device(), unbounded(sc::Policy::kReadFirst), reqs);
  EXPECT_EQ(stats.reads, 50u);
  EXPECT_EQ(stats.writes, 0u);
  EXPECT_EQ(stats.write_drains, 0u);
  EXPECT_EQ(stats.drained_writes, 0u);
  EXPECT_EQ(stats.drain_stalls, 0u);
  EXPECT_EQ(stats.write_queue_occupancy.max(), 0.0);
}

TEST(SchedController, BoundedReadQueueBackpressures) {
  auto config = sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 2, 0);
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 12; ++i) {
    reqs.push_back(make_req(std::uint64_t(i), std::uint64_t(i),
                            ms::Op::kRead, std::uint64_t(i) * 64));
  }
  const auto bounded = run_with(row_device(), config, reqs);
  const auto open =
      run_with(row_device(), unbounded(sc::Policy::kFrFcfs), reqs);
  EXPECT_EQ(bounded.reads, 12u);
  EXPECT_GT(bounded.admit_stalls, 0u);
  EXPECT_EQ(open.admit_stalls, 0u);
  // The two-slot window sees at most two waiting reads.
  EXPECT_LE(bounded.read_queue_occupancy.max(), 2.0);
}

// ---------------------------------------------------- contract & misc

TEST(SchedController, RejectsUnsortedDemandWithContext) {
  const ms::MemorySystem system(asym_device());
  sc::Controller controller(system, unbounded(sc::Policy::kFrFcfs), "t");
  controller.feed(make_req(0, 1000, ms::Op::kRead, 0));
  try {
    controller.feed(make_req(1, 500, ms::Op::kRead, 64));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("index 1"), std::string::npos)
        << e.what();
  }
}

TEST(SchedController, RejectsASecondChannel) {
  const ms::MemorySystem system(comet::driver::make_device("comet"));
  const ms::Request first = make_req(0, 0, ms::Op::kRead, 0);
  ms::Request other = make_req(1, 1000, ms::Op::kRead, 64);
  while (system.address_map().channel(other) ==
         system.address_map().channel(first)) {
    other.address += 64;
  }
  sc::Controller controller(system, unbounded(sc::Policy::kFrFcfs), "t");
  controller.feed(first);
  EXPECT_THROW(controller.feed(other), std::logic_error);
}

TEST(SchedController, FeedAfterFinishAndDoubleFinishThrow) {
  const ms::MemorySystem system(asym_device());
  sc::Controller controller(system, unbounded(sc::Policy::kReadFirst), "t");
  controller.feed(make_req(0, 0, ms::Op::kRead, 0));
  (void)controller.finish();
  EXPECT_THROW(controller.feed(make_req(1, 1, ms::Op::kRead, 64)),
               std::logic_error);
  EXPECT_THROW(controller.finish(), std::logic_error);
}

TEST(SchedController, EmptyStreamFinishes) {
  const ms::MemorySystem system(asym_device());
  sc::Controller controller(system, unbounded(sc::Policy::kFrFcfs), "t");
  const auto stats = controller.finish();
  EXPECT_TRUE(stats.is_scheduled());
  EXPECT_EQ(stats.reads + stats.writes, 0u);
}

TEST(SchedEngine, FlatSystemIsStatelessAcrossRuns) {
  const sc::FlatSystem system(row_device(), unbounded(sc::Policy::kFrFcfs));
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 30; ++i) {
    reqs.push_back(make_req(std::uint64_t(i), std::uint64_t(i),
                            ms::Op::kRead, (i % 2) ? 8192u : 0u));
  }
  const auto first = system.run(reqs);
  const auto second = system.run(reqs);
  EXPECT_TRUE(first == second);
}

// -------------------------------------------------- hybrid integration

TEST(SchedHybrid, FcfsUnboundedBackendMatchesDirectTiering) {
  const auto spec = comet::driver::make_device_spec("hybrid-comet");
  const hy::TieredSystem direct(*spec.tiered);
  const hy::TieredSystem scheduled(*spec.tiered,
                                   unbounded(sc::Policy::kFcfs));
  const auto profile = ms::profile_by_name("mcf_like");
  auto direct_source = ms::TraceGenerator(profile, 3).stream(2500, 128);
  auto sched_source = ms::TraceGenerator(profile, 3).stream(2500, 128);
  const auto a = direct.run(direct_source, "mcf_like");
  const auto b = scheduled.run(sched_source, "mcf_like");
  EXPECT_FALSE(a.is_scheduled());
  EXPECT_TRUE(b.is_scheduled());
  EXPECT_TRUE(with_sched_breakdown(a, b) == b);
}

TEST(SchedHybrid, BackendControllerSurfacesOnCombinedStats) {
  const auto spec = comet::driver::make_device_spec("hybrid-epcm");
  const hy::TieredSystem system(
      *spec.tiered,
      sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 16, 16));
  const auto profile = ms::profile_by_name("lbm_like");
  auto source = ms::TraceGenerator(profile, 5).stream(3000, 128);
  const auto tiered = system.run_tiered(source, "lbm_like");
  EXPECT_TRUE(tiered.combined.is_scheduled());
  EXPECT_EQ(tiered.combined.sched_policy, "frfcfs");
  EXPECT_TRUE(tiered.backend.is_scheduled());
  // The DRAM tier stays direct.
  EXPECT_FALSE(tiered.dram.is_scheduled());
  // The backend served traffic through the controller queues.
  EXPECT_EQ(tiered.combined.sched_queue_delay_ns.count(),
            tiered.backend.reads + tiered.backend.writes);
  // Every scheduler field of the combined view is the backend's, exactly.
  const auto& c = tiered.combined;
  const auto& b = tiered.backend;
  EXPECT_TRUE(c.sched_queue_delay_ns == b.sched_queue_delay_ns);
  EXPECT_TRUE(c.service_latency_ns == b.service_latency_ns);
  EXPECT_TRUE(c.read_queue_occupancy == b.read_queue_occupancy);
  EXPECT_TRUE(c.write_queue_occupancy == b.write_queue_occupancy);
  EXPECT_EQ(c.write_drains, b.write_drains);
  EXPECT_EQ(c.drained_writes, b.drained_writes);
  EXPECT_EQ(c.drain_stalls, b.drain_stalls);
  EXPECT_EQ(c.admit_stalls, b.admit_stalls);
}

// ------------------------------------------------- driver integration

TEST(SchedOptions, FlagsParseAndValidate) {
  const auto opt = comet::driver::parse_args(
      {"--device", "comet", "--schedule", "frfcfs", "--read-q", "16",
       "--write-q", "8"});
  EXPECT_EQ(opt.spec.policies, std::vector<sc::Policy>{sc::Policy::kFrFcfs});
  const auto& config = opt.spec.controller;
  EXPECT_EQ(config.policy, sc::Policy::kFrFcfs);
  EXPECT_EQ(config.read_queue_depth, 16);
  EXPECT_EQ(config.write_queue_depth, 8);
  EXPECT_EQ(config.drain_high_watermark, 7);
  EXPECT_EQ(config.drain_low_watermark, 3);
  // Without --schedule the controller stage stays disengaged.
  EXPECT_TRUE(comet::driver::parse_args({"--device", "comet"})
                  .spec.policies.empty());

  EXPECT_THROW(comet::driver::parse_args({"--schedule", "rr"}),
               std::invalid_argument);
  EXPECT_THROW(comet::driver::parse_args({"--read-q", "4"}),
               std::invalid_argument);
  // Drain watermarks only mean something to read-first; anything else
  // would silently ignore them, so it exits 2 at parse time.
  EXPECT_THROW(comet::driver::parse_args(
                   {"--schedule", "frfcfs", "--drain-high", "12"}),
               std::invalid_argument);
  EXPECT_THROW(
      comet::driver::parse_args({"--schedule", "read-first", "--write-q",
                                 "8", "--drain-high", "50"}),
      std::invalid_argument);
}

TEST(SchedSweep, PolicyAxisExpandsTheMatrix) {
  comet::config::ExperimentSpec spec;
  spec.name = "axis";
  spec.device_tokens = {"comet", "hybrid-comet"};
  spec.workload_names = {"gcc_like"};
  spec.policies = {sc::Policy::kFcfs, sc::Policy::kFrFcfs,
                   sc::Policy::kReadFirst};
  spec.requests = {500};
  const auto jobs = comet::driver::build_matrix(spec);
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].controller->policy, sc::Policy::kFcfs);
  EXPECT_EQ(jobs[1].controller->policy, sc::Policy::kFrFcfs);
  EXPECT_EQ(jobs[2].controller->policy, sc::Policy::kReadFirst);
  // Without a schedule the controller stage stays disengaged.
  const auto legacy = comet::driver::build_matrix(
      comet::driver::parse_args({"--device", "comet", "--workload",
                                 "gcc_like"})
          .spec);
  ASSERT_EQ(legacy.size(), 1u);
  EXPECT_FALSE(legacy[0].controller.has_value());
}

TEST(SchedSweep, ThreadedMatchesSerialForEveryPolicy) {
  // Serial-vs-threaded bit-identity of every policy over hybrid-all
  // (plus flat COMET), the scheduler analogue of the hybrid sweep gate.
  comet::config::ExperimentSpec spec;
  spec.name = "policies";
  spec.device_tokens = {"comet", "hybrid-all"};
  spec.workload_names = {"gcc_like"};
  spec.policies = {sc::Policy::kFcfs, sc::Policy::kFrFcfs,
                   sc::Policy::kReadFirst};
  spec.controller =
      sc::ControllerConfig::with_depths(sc::Policy::kFcfs, 16, 16);
  spec.requests = {1200};
  const auto jobs = comet::driver::build_matrix(spec);
  ASSERT_EQ(jobs.size(), 18u);  // (1 flat + 5 hybrid) x 3 policies
  const auto serial = comet::driver::run_sweep(jobs, 1);
  const auto threaded = comet::driver::run_sweep(jobs, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == threaded[i])
        << jobs[i].device.name << "/" << serial[i].sched_policy;
  }
}

TEST(SchedReport, JsonCarriesSchedObjectAndPercentiles) {
  const auto opt = comet::driver::parse_args(
      {"--device", "comet", "--workload", "gcc_like", "--requests", "600",
       "--schedule", "frfcfs"});
  const auto jobs = comet::driver::build_matrix(opt.spec);
  const auto results = comet::driver::run_sweep(jobs, 1);
  std::ostringstream os;
  comet::driver::write_json(os, jobs, results);
  const std::string json = os.str();
  for (const char* field :
       {"\"sched\": {", "\"policy\": \"frfcfs\"", "\"read_queue_depth\": 32",
        "\"avg_queue_delay_ns\"", "\"avg_service_latency_ns\"",
        "\"p50_read_latency_ns\"", "\"p95_read_latency_ns\"",
        "\"p99_write_latency_ns\"", "\"write_drains\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }

  // Legacy runs serialize the scheduler group as null.
  const auto legacy_opt = comet::driver::parse_args(
      {"--device", "comet", "--workload", "gcc_like", "--requests", "600"});
  const auto legacy_jobs = comet::driver::build_matrix(legacy_opt.spec);
  const auto legacy_results = comet::driver::run_sweep(legacy_jobs, 1);
  std::ostringstream legacy_os;
  comet::driver::write_json(legacy_os, legacy_jobs, legacy_results);
  EXPECT_NE(legacy_os.str().find("\"sched\": null"), std::string::npos);
}

TEST(SchedReport, TableShowsSchedulerBreakdown) {
  const auto opt = comet::driver::parse_args(
      {"--device", "epcm", "--workload", "lbm_like", "--requests", "600",
       "--schedule", "read-first"});
  const auto jobs = comet::driver::build_matrix(opt.spec);
  const auto results = comet::driver::run_sweep(jobs, 1);
  std::ostringstream os;
  comet::driver::print_report(os, jobs, results, /*csv=*/false);
  EXPECT_NE(os.str().find("Scheduler breakdown"), std::string::npos);
  EXPECT_NE(os.str().find("read-first"), std::string::npos);
}
