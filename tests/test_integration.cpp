// Cross-module integration tests: invariants that only hold if the
// material, photonic, architecture and simulator layers agree with each
// other end to end.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/comet_memory.hpp"
#include "core/power_model.hpp"
#include "cosmos/cosmos_memory.hpp"
#include "dram/dram_device.hpp"
#include "memsim/trace.hpp"
#include "memsim/trace_gen.hpp"
#include "photonics/gst_cell.hpp"
#include "sched/controller.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cc = comet::core;
namespace cm = comet::materials;
namespace cp = comet::photonics;
namespace ms = comet::memsim;
namespace sc = comet::sched;

namespace {

cc::CometConfig small_config() {
  auto c = cc::CometConfig::comet_4b();
  c.subarrays = 16;
  c.rows_per_subarray = 64;
  c.channels = 2;
  return c;
}

}  // namespace

// The device model's background power must be exactly the Fig. 7 power
// stack — the simulator and the power bench cannot disagree.
TEST(Integration, DeviceModelPowerEqualsPowerModel) {
  const auto losses = cp::LossParameters::paper();
  for (const auto& config : {cc::CometConfig::comet_1b(),
                             cc::CometConfig::comet_2b(),
                             cc::CometConfig::comet_4b()}) {
    const auto device = cc::CometMemory::device_model(config, losses);
    const double stack_w =
        cc::CometPowerModel(config, losses).breakdown().total_w();
    EXPECT_DOUBLE_EQ(device.energy.background_power_w, stack_w);
  }
}

// The functional memory's measured read latency must agree with the
// timing descriptor handed to the trace simulator.
TEST(Integration, FunctionalReadLatencyMatchesDeviceModel) {
  const auto config = cc::CometConfig::comet_4b();
  cc::CometMemory memory(small_config());
  const auto device = cc::CometMemory::device_model(
      config, cp::LossParameters::paper());

  std::vector<std::uint8_t> line(config.line_bytes(), 0x3C);
  std::vector<std::uint8_t> out(config.line_bytes());
  memory.write_line(0, line);
  const auto read = memory.read_line(0, out);

  const double model_read_ns =
      comet::util::ps_to_ns(device.timing.read_occupancy_ps) +
      comet::util::ps_to_ns(device.timing.burst_ps) +
      comet::util::ps_to_ns(device.timing.interface_ps);
  EXPECT_NEAR(read.latency_ns, model_read_ns, 1.0);
}

// The functional write latency is bounded by the architecture's write
// path: reset + slowest write + tuning + interface (+ cold steering).
TEST(Integration, FunctionalWriteLatencyWithinArchitectureBudget) {
  cc::CometMemory memory(small_config());
  const auto& table = memory.level_table();
  const auto& config = memory.config();
  std::vector<std::uint8_t> line(config.line_bytes(), 0xFF);
  const auto write = memory.write_line(0, line);
  const double budget = config.gst_switch_ns + config.mr_tuning_ns +
                        table.reset().latency_ns +
                        table.max_write_latency_ns() + config.interface_ns +
                        config.burst_ns * config.burst_length;
  EXPECT_LE(write.latency_ns, budget + 1.0);
  EXPECT_GE(write.latency_ns, table.reset().latency_ns);
}

// Worst-row readout through the *real* cell optics, LUT and classifier:
// every row of a subarray must classify exactly for every level. This is
// the paper's central reliability claim wired through all four layers.
TEST(Integration, AllLevelsSurviveWorstRowLossChain) {
  const auto config = small_config();
  cc::CometMemory memory(config);
  const auto& lut = memory.gain_lut();
  const auto& table = memory.level_table();
  const cp::GstCell cell(cm::PcmMaterial::get(cm::Pcm::kGst),
                         cp::GstCellGeometry::paper());
  for (int row = 0; row < config.rows_per_subarray; ++row) {
    const double net_db = lut.gain_db_for_row(row) - lut.row_loss_db(row);
    for (const auto& level : table.levels()) {
      const double seen = cell.transmission(level.crystalline_fraction) *
                          comet::util::db_to_ratio(net_db);
      EXPECT_EQ(table.classify(seen), level.index)
          << "row " << row << " level " << level.index;
    }
  }
}

// End-to-end determinism: generating a trace, writing it to the NVMain
// text format, reading it back and simulating must give bit-identical
// statistics to simulating the original.
TEST(Integration, TraceFileRoundTripPreservesSimulation) {
  const auto profile = ms::profile_by_name("xalancbmk_like");
  const ms::TraceGenerator gen(profile, 77);
  const auto original = gen.generate(5000, 64);

  const ms::TraceConfig tc{.cpu_clock_ghz = 2.0, .line_bytes = 64};
  std::stringstream buffer;
  ms::write_trace(buffer, original, tc);
  const auto reloaded = ms::read_trace(buffer, tc);
  ASSERT_EQ(reloaded.size(), original.size());

  const sc::FlatSystem system(comet::dram::ddr4_2d());
  const auto a = system.run(original);
  const auto b = system.run(reloaded);
  // The text format quantizes arrivals to CPU cycles (0.5 ns), so spans
  // may differ by sub-cycle amounts; everything else must be identical.
  EXPECT_NEAR(double(a.span_ps), double(b.span_ps), 1000.0);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  EXPECT_DOUBLE_EQ(a.dynamic_energy_pj, b.dynamic_energy_pj);
}

// Same seed, same device -> identical stats across FlatSystem
// instances (no hidden global state anywhere in the stack).
TEST(Integration, SimulationIsDeterministic) {
  const auto losses = cp::LossParameters::paper();
  const auto device = cc::CometMemory::device_model(
      cc::CometConfig::comet_4b(), losses);
  const ms::TraceGenerator gen(ms::profile_by_name("milc_like"), 123);
  const auto trace = gen.generate(8000, 128);
  const auto a = sc::FlatSystem(device).run(trace);
  const auto b = sc::FlatSystem(device).run(trace);
  EXPECT_TRUE(a == b);
}

// Capacity bookkeeping: the simulator device, the config arithmetic and
// the paper's (B x S_r x M_r x M_c x b) formula must agree.
TEST(Integration, CapacityConsistentAcrossLayers) {
  const auto config = cc::CometConfig::comet_4b();
  const auto device = cc::CometMemory::device_model(
      config, cp::LossParameters::paper());
  EXPECT_EQ(device.capacity_bytes, config.capacity_bytes());
  // 8.59 Gbit/chip x 8 channels = 8.59 GB system (paper calls it 8 GB).
  EXPECT_NEAR(double(device.capacity_bytes) / double(1ull << 30), 8.0, 0.9);
}

// Fault injection through the whole stack: drift below half a level
// spacing must be absorbed; drift beyond a full spacing must be caught
// as a read error by the integrity flag.
class DriftSweep : public ::testing::TestWithParam<double> {};

TEST_P(DriftSweep, IntegrityFlagTracksDriftMagnitude) {
  const double drift = GetParam();
  cc::CometMemory memory(small_config());
  const auto line_bytes = memory.config().line_bytes();
  std::vector<std::uint8_t> data(line_bytes, 0x77), out(line_bytes);
  memory.write_line(0, data);

  // Inject fraction drift into every cell of the written row.
  auto& bank = memory.bank(0, 0);
  auto& subarray = bank.subarray(0);
  for (int col = 0; col < memory.config().cols_per_subarray; ++col) {
    subarray.cell(0, col).drift(drift);
  }
  const auto read = memory.read_line(0, out);
  // Half the level spacing in fraction terms is ~1/32 for 16 levels over
  // fraction range ~0..0.95; stay well inside/outside.
  if (drift < 0.005) {
    EXPECT_TRUE(read.correct) << "drift " << drift;
    EXPECT_EQ(out, data);
  } else if (drift > 0.08) {
    EXPECT_FALSE(read.correct) << "drift " << drift;
  }
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, DriftSweep,
                         ::testing::Values(0.0, 0.002, 0.004, 0.09, 0.15,
                                           0.3));

// The three photonic/electronic families must keep their Fig. 9 BW
// ordering on every workload class, not just on average.
TEST(Integration, OrderingHoldsPerWorkloadClass) {
  const auto losses = cp::LossParameters::paper();
  const auto comet = cc::CometMemory::device_model(
      cc::CometConfig::comet_4b(), losses);
  const auto cosmos = comet::cosmos::cosmos_device_model(
      comet::cosmos::CosmosConfig::paper(), losses);
  const auto ddr3 = comet::dram::ddr3_2d();
  for (const char* name : {"mcf_like", "lbm_like", "libquantum_like"}) {
    auto profile = ms::profile_by_name(name);
    profile.avg_interarrival_ns = 0.5;
    const ms::TraceGenerator gen(profile, 31);
    const auto trace = gen.generate(15000, 128);
    const double bw_comet = sc::FlatSystem(comet).run(trace).bandwidth_gbps();
    const double bw_cosmos =
        sc::FlatSystem(cosmos).run(trace).bandwidth_gbps();
    const double bw_ddr3 = sc::FlatSystem(ddr3).run(trace).bandwidth_gbps();
    EXPECT_GT(bw_comet, 3.0 * bw_cosmos) << name;
    // COSMOS beats DRAM on streaming classes; random pointer-chase is its
    // worst case (region switches + destructive-read restores), where it
    // sinks to DRAM levels — COMET's margin there comes from isolation.
    if (std::string(name) != "mcf_like") {
      EXPECT_GT(bw_cosmos, bw_ddr3) << name;
    }
    EXPECT_GT(bw_comet, 10.0 * bw_ddr3) << name;
  }
}

// COSMOS and COMET share the photonic substrate: their device models
// must both be internally consistent with their configs' line sizes.
TEST(Integration, PhotonicLineSizesMatchBusShapes) {
  const auto losses = cp::LossParameters::paper();
  const auto comet = cc::CometMemory::device_model(
      cc::CometConfig::comet_4b(), losses);
  const auto cosmos = comet::cosmos::cosmos_device_model(
      comet::cosmos::CosmosConfig::paper(), losses);
  EXPECT_EQ(comet.timing.line_bytes, 128u);   // 256 bit x 4
  EXPECT_EQ(cosmos.timing.line_bytes, 128u);  // 128 bit x 8
}
