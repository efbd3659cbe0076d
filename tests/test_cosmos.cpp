#include <gtest/gtest.h>

#include <vector>

#include "core/comet_config.hpp"
#include "core/comet_memory.hpp"
#include "core/power_model.hpp"
#include "cosmos/cosmos_config.hpp"
#include "cosmos/cosmos_memory.hpp"
#include "cosmos/crossbar.hpp"
#include "memsim/trace_gen.hpp"
#include "photonics/losses.hpp"
#include "sched/controller.hpp"

namespace cx = comet::cosmos;
namespace cc = comet::core;
namespace cp = comet::photonics;
namespace ms = comet::memsim;
namespace sc = comet::sched;

// ------------------------------------------------------------- config

TEST(CosmosConfig, CorrectedGeometry) {
  const auto c = cx::CosmosConfig::paper();
  EXPECT_NO_THROW(c.validate());
  EXPECT_EQ(c.banks, 16);
  EXPECT_EQ(c.bits_per_cell, 2);  // corrected from 4
  EXPECT_EQ(c.rows, 16384u);
  EXPECT_EQ(c.cols, 16384u);
  EXPECT_EQ(c.subarray_rows, 32);
  EXPECT_EQ(c.subarray_cols, 32);
}

TEST(CosmosConfig, CorrectedLevelsAsymmetric) {
  const auto c = cx::CosmosConfig::paper();
  // Section IV.B: (0.99, 0.90, 0.81, 0.72) at 9 % spacing.
  ASSERT_EQ(c.levels.size(), 4u);
  for (std::size_t i = 1; i < c.levels.size(); ++i) {
    EXPECT_NEAR(c.levels[i - 1] - c.levels[i], 0.09, 1e-9);
  }
}

TEST(CosmosConfig, LineBytes) {
  EXPECT_EQ(cx::CosmosConfig::paper().line_bytes(), 128u);  // 128 b x 8
}

TEST(CosmosConfig, RejectsUncorrectedBitDensity) {
  auto c = cx::CosmosConfig::paper();
  c.bits_per_cell = 4;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

// ------------------------------------------------------------- power

TEST(CosmosPower, LaserDominates) {
  const cx::CosmosPowerModel model(cx::CosmosConfig::paper(),
                                   cp::LossParameters::paper());
  const auto stack = model.breakdown();
  EXPECT_GT(stack.component_w("laser"), 0.8 * stack.total_w());
}

TEST(CosmosPower, CometIsAboutAQuarter) {
  // Conclusions: "COMET consumes only 26 % of the power ... of the
  // best-known prior work".
  const auto losses = cp::LossParameters::paper();
  const double cosmos_w =
      cx::CosmosPowerModel(cx::CosmosConfig::paper(), losses)
          .breakdown()
          .total_w();
  const double comet_w =
      cc::CometPowerModel(cc::CometConfig::comet_4b(), losses)
          .breakdown()
          .total_w();
  EXPECT_NEAR(comet_w / cosmos_w, 0.26, 0.04);
}

TEST(CosmosPower, LaunchLossFarAboveComet) {
  const auto losses = cp::LossParameters::paper();
  const double cosmos_db =
      cx::CosmosPowerModel(cx::CosmosConfig::paper(), losses)
          .launch_path_budget()
          .total_db();
  const double comet_db = cc::CometPowerModel(cc::CometConfig::comet_4b(),
                                              losses)
                              .launch_path_budget()
                              .total_db();
  EXPECT_GT(cosmos_db, comet_db + 10.0);
}

// ----------------------------------------------------------- crossbar

TEST(Crossbar, CleanDepositReadsBack) {
  cx::Crossbar xbar(8, 8, 4);
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      xbar.set_state(r, c, (r * 8 + c) % 16);
    }
  }
  EXPECT_DOUBLE_EQ(xbar.corrupted_fraction(), 0.0);
  EXPECT_EQ(xbar.read(3, 5), (3 * 8 + 5) % 16);
}

TEST(Crossbar, WriteDriftsRowNeighbours) {
  cx::Crossbar xbar(3, 1, 4);
  xbar.set_state(0, 0, 0);
  xbar.set_state(2, 0, 0);
  xbar.write(1, 0, 15, 750.0);
  // Neighbours picked up ~8 % crystalline fraction each.
  EXPECT_NEAR(xbar.fraction(0, 0), 0.08, 0.005);
  EXPECT_NEAR(xbar.fraction(2, 0), 0.08, 0.005);
  // In a 16-level cell that is already more than half a level.
  EXPECT_NE(xbar.read(0, 0), 0);
}

TEST(Crossbar, TwoBitCellsTolerateOneWrite) {
  // The corrected COSMOS drops to 4 levels exactly so a single 8 % shift
  // stays within half a level (1/6 fraction spacing per half level).
  cx::Crossbar xbar(3, 1, 2);
  xbar.set_state(0, 0, 0);
  xbar.write(1, 0, 3, 750.0);
  EXPECT_EQ(xbar.read(0, 0), 0);
  // But repeated writes still walk the neighbour off its level.
  xbar.write(1, 0, 2, 750.0);
  xbar.write(1, 0, 3, 750.0);
  EXPECT_NE(xbar.read(0, 0), 0);
}

TEST(Crossbar, EdgeRowsHaveOneNeighbour) {
  cx::Crossbar xbar(2, 1, 4);
  xbar.set_state(0, 0, 0);
  EXPECT_NO_THROW(xbar.write(1, 0, 7, 750.0));  // bottom edge
  EXPECT_NO_THROW(xbar.write(0, 0, 7, 750.0));  // top edge
}

TEST(Crossbar, CorruptionMonotoneUnderHammering) {
  cx::Crossbar xbar(16, 16, 4);
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 16; ++c) xbar.set_state(r, c, 8);
  }
  double prev_err = xbar.mean_level_error();
  std::vector<int> levels(16, 12);
  for (int pass = 0; pass < 3; ++pass) {
    for (int r = 0; r < 16; r += 2) xbar.write_row(r, levels);
    const double err = xbar.mean_level_error();
    EXPECT_GE(err, prev_err);
    prev_err = err;
  }
  EXPECT_GT(xbar.corrupted_fraction(), 0.3);
}

TEST(Crossbar, RejectsBadAccess) {
  cx::Crossbar xbar(4, 4, 2);
  EXPECT_THROW(xbar.read(4, 0), std::out_of_range);
  EXPECT_THROW(xbar.write(0, 0, 4, 750.0), std::out_of_range);
  std::vector<int> wrong(3, 0);
  EXPECT_THROW(xbar.write_row(0, wrong), std::invalid_argument);
}

// -------------------------------------------------------- device model

TEST(CosmosDevice, TableIITimings) {
  const auto d = cx::cosmos_device_model(cx::CosmosConfig::paper(),
                                         cp::LossParameters::paper());
  EXPECT_EQ(d.name, "COSMOS");
  // Subtractive read: 25 + 250 + 25 ns on the latency path.
  EXPECT_EQ(d.timing.read_occupancy_ps, 300000u);
  // Destructive-read restore occupies the bank for the full write.
  EXPECT_EQ(d.timing.read_tail_ps, 1600000u);
  EXPECT_EQ(d.timing.write_occupancy_ps, 1600000u);
  EXPECT_EQ(d.timing.interface_ps, 105000u);
  EXPECT_EQ(d.timing.burst_ps, 8000u);
  EXPECT_NO_THROW(d.validate());
}

TEST(CosmosDevice, CometOutperformsOnSaturatedTrace) {
  const auto losses = cp::LossParameters::paper();
  auto profile = ms::profile_by_name("gcc_like");
  profile.avg_interarrival_ns = 0.5;
  const ms::TraceGenerator gen(profile, 13);
  const auto trace = gen.generate(20000, 128);

  const auto cosmos_stats =
      sc::FlatSystem(cx::cosmos_device_model(cx::CosmosConfig::paper(),
                                             losses))
          .run(trace);
  const auto comet_stats =
      sc::FlatSystem(cc::CometMemory::device_model(
                         cc::CometConfig::comet_4b(), losses))
          .run(trace);
  // Paper: ~5.1x bandwidth, ~13x EPB, ~3x latency. Accept broad bands
  // (the single-workload factor varies around the 8-workload average).
  const double bw_gain =
      comet_stats.bandwidth_gbps() / cosmos_stats.bandwidth_gbps();
  EXPECT_GT(bw_gain, 3.0);
  EXPECT_LT(bw_gain, 14.0);
  EXPECT_GT(cosmos_stats.epb_pj_per_bit(), 5.0 * comet_stats.epb_pj_per_bit());
}
