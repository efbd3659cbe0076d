#include <gtest/gtest.h>

#include <sstream>

#include "memsim/device.hpp"
#include "memsim/trace.hpp"
#include "memsim/trace_gen.hpp"
#include "sched/controller.hpp"
#include "util/units.hpp"

namespace ms = comet::memsim;
namespace sc = comet::sched;
namespace cu = comet::util;

namespace {

/// Minimal single-channel, single-bank device: 10 ns reads, 20 ns writes,
/// 1 ns burst, 5 ns interface.
ms::DeviceModel simple_device(int channels = 1, int banks = 1,
                              int queue_depth = 8) {
  ms::DeviceModel d;
  d.name = "simple";
  d.capacity_bytes = 1ull << 30;
  d.timing.channels = channels;
  d.timing.banks_per_channel = banks;
  d.timing.line_bytes = 64;
  d.timing.read_occupancy_ps = cu::ns_to_ps(10);
  d.timing.write_occupancy_ps = cu::ns_to_ps(20);
  d.timing.burst_ps = cu::ns_to_ps(1);
  d.timing.interface_ps = cu::ns_to_ps(5);
  d.timing.queue_depth = queue_depth;
  d.energy.read_pj_per_bit = 1.0;
  d.energy.write_pj_per_bit = 2.0;
  d.energy.background_power_w = 0.0;
  return d;
}

ms::Request make_req(std::uint64_t id, std::uint64_t arrival_ns,
                     ms::Op op, std::uint64_t addr) {
  ms::Request r;
  r.id = id;
  r.arrival_ps = cu::ns_to_ps(double(arrival_ns));
  r.op = op;
  r.address = addr;
  r.size_bytes = 64;
  return r;
}

}  // namespace

// ------------------------------------------------------------- traces

TEST(Trace, ReadWellFormed) {
  std::istringstream in(
      "# comment line\n"
      "100 R 0x1000\n"
      "200 W 0x2040\n");
  const auto reqs = ms::read_trace(in, ms::TraceConfig{});
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].op, ms::Op::kRead);
  EXPECT_EQ(reqs[0].address, 0x1000u);
  // 100 cycles at 2 GHz = 50 ns = 50000 ps.
  EXPECT_EQ(reqs[0].arrival_ps, 50000u);
  EXPECT_EQ(reqs[1].op, ms::Op::kWrite);
}

TEST(Trace, RejectsMalformed) {
  std::istringstream bad_op("100 X 0x1000\n");
  EXPECT_THROW(ms::read_trace(bad_op, ms::TraceConfig{}), std::runtime_error);
  std::istringstream truncated("100\n");
  EXPECT_THROW(ms::read_trace(truncated, ms::TraceConfig{}),
               std::runtime_error);
  std::istringstream bad_addr("100 R 0x12zz\n");
  EXPECT_THROW(ms::read_trace(bad_addr, ms::TraceConfig{}),
               std::runtime_error);
}

TEST(Trace, MalformedErrorNamesLineNumberAndText) {
  std::istringstream in("100 R 0x1000\n# fine\n101 Q 0x2000\n");
  try {
    ms::read_trace(in, ms::TraceConfig{});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("101 Q 0x2000"), std::string::npos) << msg;
  }
}

TEST(Trace, RejectsNonMonotonicCyclesWithDiagnostic) {
  std::istringstream in("100 R 0x0\n250 W 0x40\n120 R 0x80\n");
  try {
    ms::read_trace(in, ms::TraceConfig{});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    // Same diagnostic style as check_arrival_order: the offending
    // position and both out-of-order values.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("non-monotonic"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("120"), std::string::npos) << msg;
    EXPECT_NE(msg.find("250"), std::string::npos) << msg;
  }
}

TEST(Trace, EqualCyclesAreAllowed) {
  std::istringstream in("100 R 0x0\n100 W 0x40\n");
  EXPECT_EQ(ms::read_trace(in, ms::TraceConfig{}).size(), 2u);
}

TEST(Trace, IgnoresTrailingNvmainFields) {
  std::istringstream in("100 R 0x1000 0123456789abcdef 2\n");
  const auto reqs = ms::read_trace(in, ms::TraceConfig{});
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].address, 0x1000u);
}

TEST(Trace, RoundTrip) {
  std::istringstream in("100 R 0x1000\n250 W 0xffc0\n");
  const ms::TraceConfig config{};
  const auto reqs = ms::read_trace(in, config);
  std::ostringstream out;
  ms::write_trace(out, reqs, config);
  std::istringstream in2(out.str());
  const auto reqs2 = ms::read_trace(in2, config);
  ASSERT_EQ(reqs2.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs2[i].address, reqs[i].address);
    EXPECT_EQ(reqs2[i].op, reqs[i].op);
    EXPECT_EQ(reqs2[i].arrival_ps, reqs[i].arrival_ps);
  }
}

// --------------------------------------------------------- trace gen

TEST(TraceGen, Deterministic) {
  const auto profile = ms::profile_by_name("mcf_like");
  const ms::TraceGenerator a(profile, 7), b(profile, 7);
  const auto ta = a.generate(500, 128);
  const auto tb = b.generate(500, 128);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].address, tb[i].address);
    EXPECT_EQ(ta[i].arrival_ps, tb[i].arrival_ps);
  }
}

TEST(TraceGen, ReadFractionRespected) {
  const auto profile = ms::profile_by_name("mcf_like");  // 92 % reads
  const ms::TraceGenerator gen(profile, 1);
  const auto trace = gen.generate(20000, 128);
  std::size_t reads = 0;
  for (const auto& r : trace) reads += (r.op == ms::Op::kRead);
  EXPECT_NEAR(double(reads) / trace.size(), 0.92, 0.02);
}

TEST(TraceGen, ArrivalsSortedAndLineAligned) {
  for (const auto& profile : ms::spec_like_profiles()) {
    const ms::TraceGenerator gen(profile, 3);
    const auto trace = gen.generate(2000, 128);
    std::uint64_t prev = 0;
    for (const auto& r : trace) {
      EXPECT_GE(r.arrival_ps, prev) << profile.name;
      EXPECT_EQ(r.address % 128, 0u) << profile.name;
      prev = r.arrival_ps;
    }
  }
}

TEST(TraceGen, StreamingIsSequential) {
  auto profile = ms::profile_by_name("lbm_like");
  profile.locality = 1.0;  // pure stream
  const ms::TraceGenerator gen(profile, 5);
  const auto trace = gen.generate(1000, 128);
  std::size_t sequential = 0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    sequential += (trace[i].address == trace[i - 1].address + 128);
  }
  EXPECT_GT(sequential, 990u);
}

TEST(TraceGen, WorkingSetBounded) {
  auto profile = ms::profile_by_name("mcf_like");
  profile.working_set_bytes = 1 << 20;
  const ms::TraceGenerator gen(profile, 9);
  for (const auto& r : gen.generate(5000, 128)) {
    EXPECT_LT(r.address, 1u << 20);
  }
}

TEST(TraceGen, EightProfiles) {
  EXPECT_EQ(ms::spec_like_profiles().size(), 8u);
  EXPECT_THROW(ms::profile_by_name("nope"), std::invalid_argument);
}

TEST(TraceGen, RejectsBadLineSize) {
  const ms::TraceGenerator gen(ms::profile_by_name("gcc_like"), 1);
  EXPECT_THROW(gen.generate(10, 0), std::invalid_argument);
  EXPECT_THROW(gen.generate(10, 100), std::invalid_argument);
}

// ------------------------------------------------------------- device

TEST(DeviceModel, ValidateCatchesBadness) {
  auto d = simple_device();
  EXPECT_NO_THROW(d.validate());
  auto bad = d;
  bad.name.clear();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = d;
  bad.timing.line_bytes = 100;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = d;
  bad.timing.queue_depth = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = d;
  bad.timing.refresh_interval_ps = 100;
  bad.timing.refresh_duration_ps = 100;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = d;
  bad.capacity_bytes = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  // Placement divides by the row size on every device, so a device
  // without a row buffer must still carry a non-zero one.
  bad = d;
  bad.timing.has_row_buffer = false;
  bad.timing.row_size_bytes = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// ------------------------------------------------------------- system

TEST(System, SingleReadLatency) {
  const sc::FlatSystem sys(simple_device());
  const auto stats = sys.run({make_req(0, 0, ms::Op::kRead, 0)});
  // 10 ns occupancy + 1 ns burst + 5 ns interface = 16 ns.
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_DOUBLE_EQ(stats.read_latency_ns.mean(), 16.0);
}

TEST(System, WriteSlowerThanRead) {
  const sc::FlatSystem sys(simple_device());
  const auto stats = sys.run({make_req(0, 0, ms::Op::kWrite, 0)});
  EXPECT_DOUBLE_EQ(stats.write_latency_ns.mean(), 26.0);
}

TEST(System, BankConflictSerializes) {
  const sc::FlatSystem sys(simple_device());
  // Same line twice: second read waits for the first's occupancy.
  const auto stats = sys.run({make_req(0, 0, ms::Op::kRead, 0),
                              make_req(1, 0, ms::Op::kRead, 0)});
  // The bank is held through the data beat: the second read waits the
  // full 11 ns (occupancy + burst) before its own 16 ns service.
  EXPECT_DOUBLE_EQ(stats.read_latency_ns.max(), 27.0);
  EXPECT_DOUBLE_EQ(stats.queue_delay_ns.max(), 11.0);
}

TEST(System, MultipleBanksOverlap) {
  // Two banks: two different lines can be served concurrently.
  const sc::FlatSystem sys(simple_device(1, 2));
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 16; ++i) {
    reqs.push_back(make_req(i, 0, ms::Op::kRead, std::uint64_t(i) * 64));
  }
  const auto stats = sys.run(reqs);
  // With hashing over 2 banks, span must be well below fully-serial
  // (16 x 10 ns) and at least the serial time of the busier bank.
  const double span_ns = double(stats.span_ps) * 1e-3;
  EXPECT_LT(span_ns, 160.0);
  EXPECT_GT(stats.bandwidth_gbps(),
            sc::FlatSystem(simple_device(1, 1)).run(reqs).bandwidth_gbps());
}

TEST(System, QueueDepthLimitsOverlap) {
  // Depth 1 forces full serialization even across banks.
  const sc::FlatSystem sys(simple_device(1, 4, /*queue_depth=*/1));
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(make_req(i, 0, ms::Op::kRead, std::uint64_t(i) * 64));
  }
  const auto stats = sys.run(reqs);
  const double span_ns = double(stats.span_ps) * 1e-3;
  // Each request completes (16 ns) before the next starts.
  EXPECT_GE(span_ns, 8 * 16.0 - 1.0);
}

TEST(System, RowBufferHitFaster) {
  auto d = simple_device();
  d.timing.has_row_buffer = true;
  d.timing.row_size_bytes = 8192;
  d.timing.row_hit_saving_ps = cu::ns_to_ps(6);
  const sc::FlatSystem sys(d);
  // Both lines in the same 8 KB row; second is a row hit.
  const auto stats = sys.run({make_req(0, 0, ms::Op::kRead, 0),
                              make_req(1, 1000, ms::Op::kRead, 64)});
  EXPECT_DOUBLE_EQ(stats.read_latency_ns.min(), 10.0);  // 4+1+5 hit
}

TEST(System, RefreshBlocksBank) {
  auto d = simple_device();
  d.timing.refresh_interval_ps = cu::ns_to_ps(1000);
  d.timing.refresh_duration_ps = cu::ns_to_ps(100);
  const sc::FlatSystem sys(d);
  // Arrival at t = 1010 ns falls inside the second refresh window
  // [1000, 1100): service is pushed to 1100.
  const auto stats = sys.run({make_req(0, 1010, ms::Op::kRead, 0)});
  EXPECT_DOUBLE_EQ(stats.read_latency_ns.mean(), 90.0 + 16.0);
}

TEST(System, RegionSwitchCharged) {
  auto d = simple_device();
  d.timing.region_size_bytes = 4096;
  d.timing.region_switch_ps = cu::ns_to_ps(100);
  const sc::FlatSystem sys(d);
  // First access pays the switch (cold region), second stays within it.
  const auto stats = sys.run({make_req(0, 0, ms::Op::kRead, 0),
                              make_req(1, 500, ms::Op::kRead, 64)});
  EXPECT_DOUBLE_EQ(stats.read_latency_ns.max(), 116.0);
  EXPECT_DOUBLE_EQ(stats.read_latency_ns.min(), 16.0);
}

TEST(System, ReadTailOccupiesBankOffLatencyPath) {
  auto d = simple_device();
  d.timing.read_tail_ps = cu::ns_to_ps(50);
  const sc::FlatSystem sys(d);
  const auto stats = sys.run({make_req(0, 0, ms::Op::kRead, 0),
                              make_req(1, 0, ms::Op::kRead, 0)});
  // First read completes at 16 ns (tail hidden), but the second waits
  // for the 60 ns bank occupancy.
  EXPECT_DOUBLE_EQ(stats.read_latency_ns.min(), 16.0);
  EXPECT_DOUBLE_EQ(stats.read_latency_ns.max(), 60.0 + 16.0);
}

TEST(System, AccessesPerLineMultiplies) {
  auto d = simple_device();
  d.timing.accesses_per_line = 4;
  const sc::FlatSystem sys(d);
  const auto stats = sys.run({make_req(0, 0, ms::Op::kRead, 0)});
  // 4 x 10 ns occupancy + 4 x 1 ns burst + 5 ns interface.
  EXPECT_DOUBLE_EQ(stats.read_latency_ns.mean(), 49.0);
}

TEST(System, EnergyAccounting) {
  auto d = simple_device();
  d.energy.background_power_w = 1.0;
  const sc::FlatSystem sys(d);
  const auto stats = sys.run({make_req(0, 0, ms::Op::kRead, 0),
                              make_req(1, 0, ms::Op::kWrite, 64)});
  // Dynamic: 512 bits x 1 pJ/bit + 512 x 2 pJ/bit = 1536 pJ.
  EXPECT_DOUBLE_EQ(stats.dynamic_energy_pj, 1536.0);
  // Background: 1 W over the span (pJ = W x ps x 1e-12... 1 pJ per ps).
  EXPECT_DOUBLE_EQ(stats.background_energy_pj, double(stats.span_ps));
  EXPECT_GT(stats.epb_pj_per_bit(), 0.0);
}

TEST(System, RejectsUnsortedTrace) {
  const sc::FlatSystem sys(simple_device());
  EXPECT_THROW(sys.run({make_req(0, 100, ms::Op::kRead, 0),
                        make_req(1, 50, ms::Op::kRead, 64)}),
               std::invalid_argument);
}

TEST(System, UnsortedTraceErrorNamesIndexAndTimestamps) {
  const sc::FlatSystem sys(simple_device());
  try {
    sys.run({make_req(0, 10, ms::Op::kRead, 0),
             make_req(1, 100, ms::Op::kRead, 64),
             make_req(2, 50, ms::Op::kRead, 128)});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    // The offending index and both out-of-order arrival times (in ps).
    EXPECT_NE(msg.find("index 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("50000"), std::string::npos) << msg;
    EXPECT_NE(msg.find("100000"), std::string::npos) << msg;
  }
}

TEST(System, EmptyTraceIsSafe) {
  const sc::FlatSystem sys(simple_device());
  const auto stats = sys.run({});
  EXPECT_EQ(stats.reads, 0u);
  EXPECT_DOUBLE_EQ(stats.bandwidth_gbps(), 0.0);
  EXPECT_DOUBLE_EQ(stats.epb_pj_per_bit(), 0.0);
}

TEST(System, BandwidthMatchesHandComputation) {
  // Saturating single-bank reads: one line per 11 ns (occupancy+burst).
  const sc::FlatSystem sys(simple_device());
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 1000; ++i) {
    reqs.push_back(make_req(i, 0, ms::Op::kRead, std::uint64_t(i) * 64));
  }
  const auto stats = sys.run(reqs);
  EXPECT_NEAR(stats.bandwidth_gbps(), 64.0 / 11.0, 0.3);
}

TEST(System, UtilizationBounded) {
  const sc::FlatSystem sys(simple_device(2, 4));
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 2000; ++i) {
    reqs.push_back(make_req(i, i / 4, ms::Op::kRead, std::uint64_t(i) * 64));
  }
  const auto stats = sys.run(reqs);
  const double util = stats.bank_utilization(8);
  EXPECT_GT(util, 0.0);
  EXPECT_LE(util, 1.0);
}

// --------------------------------------------------------- stats maths

TEST(Stats, BwPerEpbDerived) {
  ms::SimStats s;
  s.bytes_transferred = 1000;
  s.span_ps = 1000000;  // 1 us -> 1 GB/s
  s.dynamic_energy_pj = 8000;  // 1 pJ/bit
  EXPECT_NEAR(s.bandwidth_gbps(), 1.0, 1e-9);
  EXPECT_NEAR(s.epb_pj_per_bit(), 1.0, 1e-9);
  EXPECT_NEAR(s.bw_per_epb(), 1.0, 1e-9);
}

TEST(System, GateablePowerScalesWithUtilization) {
  // Two devices identical except the split of background power: the
  // gated one must never consume more background energy, and must match
  // exactly at 100 % utilization.
  auto fixed = simple_device();
  fixed.energy.background_power_w = 2.0;
  auto gated = fixed;
  gated.energy.background_power_w = 1.0;
  gated.energy.gateable_background_power_w = 1.0;

  std::vector<ms::Request> reqs;
  for (int i = 0; i < 200; ++i) {
    reqs.push_back(make_req(i, i * 100, ms::Op::kRead, std::uint64_t(i) * 64));
  }
  const auto f = sc::FlatSystem(fixed).run(reqs);
  const auto g = sc::FlatSystem(gated).run(reqs);
  EXPECT_LT(g.background_energy_pj, f.background_energy_pj);
  // Sparse arrivals (100 ns apart, 11 ns busy): roughly 11 % utilization,
  // so the gated half of the power shrinks accordingly.
  const double util = f.bank_utilization(1);
  EXPECT_NEAR(g.background_energy_pj,
              f.background_energy_pj * (0.5 + 0.5 * util),
              f.background_energy_pj * 0.01);
}

TEST(System, GatedEpbNeverWorse) {
  auto fixed = simple_device();
  fixed.energy.background_power_w = 2.0;
  auto gated = fixed;
  gated.energy.background_power_w = 0.5;
  gated.energy.gateable_background_power_w = 1.5;
  const auto profile = ms::profile_by_name("gcc_like");
  const ms::TraceGenerator gen(profile, 19);
  const auto trace = gen.generate(5000, 64);
  EXPECT_LE(sc::FlatSystem(gated).run(trace).epb_pj_per_bit(),
            sc::FlatSystem(fixed).run(trace).epb_pj_per_bit());
}
