#include <gtest/gtest.h>

#include "dram/dram_device.hpp"
#include "dram/epcm.hpp"
#include "memsim/trace_gen.hpp"
#include "sched/controller.hpp"

namespace cd = comet::dram;
namespace ms = comet::memsim;
namespace sc = comet::sched;

namespace {

double saturated_bw(const ms::DeviceModel& device) {
  auto profile = ms::profile_by_name("gcc_like");
  profile.avg_interarrival_ns = 0.5;
  const ms::TraceGenerator gen(profile, 11);
  const auto trace = gen.generate(20000, 128);
  return sc::FlatSystem(device).run(trace).bandwidth_gbps();
}

}  // namespace

TEST(Dram, AllModelsValidate) {
  for (const auto& model : {cd::ddr3_2d(), cd::ddr3_3d(), cd::ddr4_2d(),
                            cd::ddr4_3d(), cd::epcm_mm()}) {
    EXPECT_NO_THROW(model.validate()) << model.name;
    EXPECT_EQ(model.capacity_bytes, 8ull << 30) << model.name;
  }
}

TEST(Dram, NamesMatchPaper) {
  EXPECT_EQ(cd::ddr3_2d().name, "2D_DDR3");
  EXPECT_EQ(cd::ddr3_3d().name, "3D_DDR3");
  EXPECT_EQ(cd::ddr4_2d().name, "2D_DDR4");
  EXPECT_EQ(cd::ddr4_3d().name, "3D_DDR4");
  EXPECT_EQ(cd::epcm_mm().name, "EPCM-MM");
}

TEST(Dram, DramRefreshesButPcmDoesNot) {
  EXPECT_GT(cd::ddr3_2d().timing.refresh_interval_ps, 0u);
  EXPECT_GT(cd::ddr4_3d().timing.refresh_interval_ps, 0u);
  EXPECT_EQ(cd::epcm_mm().timing.refresh_interval_ps, 0u);
}

TEST(Dram, Ddr4FasterThanDdr3) {
  EXPECT_LT(cd::ddr4_2d().timing.read_occupancy_ps,
            cd::ddr3_2d().timing.read_occupancy_ps);
  EXPECT_LT(cd::ddr4_2d().timing.burst_ps, cd::ddr3_2d().timing.burst_ps);
}

TEST(Dram, StackingAddsChannelsAndCutsEnergy) {
  EXPECT_GT(cd::ddr3_3d().timing.channels, cd::ddr3_2d().timing.channels);
  EXPECT_LT(cd::ddr3_3d().energy.read_pj_per_bit,
            cd::ddr3_2d().energy.read_pj_per_bit);
  EXPECT_LT(cd::ddr4_3d().energy.background_power_w,
            cd::ddr4_2d().energy.background_power_w);
}

TEST(Dram, EpcmWritesSlowerThanReads) {
  const auto epcm = cd::epcm_mm();
  EXPECT_GT(epcm.timing.write_occupancy_ps,
            2 * epcm.timing.read_occupancy_ps);
  EXPECT_GT(epcm.energy.write_pj_per_bit, 5 * epcm.energy.read_pj_per_bit);
}

TEST(Dram, BandwidthOrderingMatchesPaper) {
  // Paper Fig. 9a ordering (ascending BW):
  //   2D_DDR3 < 2D_DDR4 < 3D_DDR3 < 3D_DDR4, with EPCM-MM close to the
  //   3D parts.
  const double ddr3_2d = saturated_bw(cd::ddr3_2d());
  const double ddr4_2d = saturated_bw(cd::ddr4_2d());
  const double ddr3_3d = saturated_bw(cd::ddr3_3d());
  const double ddr4_3d = saturated_bw(cd::ddr4_3d());
  const double epcm = saturated_bw(cd::epcm_mm());
  EXPECT_LT(ddr3_2d, ddr4_2d);
  EXPECT_LT(ddr4_2d, ddr3_3d);
  EXPECT_LT(ddr3_3d, ddr4_3d);
  EXPECT_GT(epcm, ddr4_2d);
  EXPECT_LT(epcm, 1.3 * ddr4_3d);
}

TEST(Dram, StackingImprovesBandwidth) {
  EXPECT_GT(saturated_bw(cd::ddr3_3d()), 1.5 * saturated_bw(cd::ddr3_2d()));
}

TEST(Dram, ThreeDEpbBeatsTwoD) {
  auto run = [](const ms::DeviceModel& d) {
    auto profile = ms::profile_by_name("gcc_like");
    profile.avg_interarrival_ns = 0.5;
    const ms::TraceGenerator gen(profile, 11);
    return sc::FlatSystem(d).run(gen.generate(20000, 128)).epb_pj_per_bit();
  };
  EXPECT_LT(run(cd::ddr3_3d()), run(cd::ddr3_2d()) / 3.0);
  EXPECT_LT(run(cd::ddr4_3d()), run(cd::ddr4_2d()) / 3.0);
}

TEST(Dram, CustomConfigPassesThrough) {
  auto config = cd::ddr3_2d_config();
  config.channels = 4;
  config.banks_per_channel = 32;
  const auto model = cd::make_dram(config, "custom");
  EXPECT_EQ(model.timing.channels, 4);
  EXPECT_EQ(model.timing.banks_per_channel, 32);
  EXPECT_EQ(model.name, "custom");
}
