#include "dram/dram_device.hpp"

#include "util/units.hpp"

namespace comet::dram {
namespace {

constexpr std::uint64_t kCapacityBytes = 8ull << 30;  // 8 GB system.

memsim::DeviceModel from_config(const DramConfig& c, const std::string& name) {
  memsim::DeviceModel model;
  model.name = name;
  model.capacity_bytes = kCapacityBytes;

  auto& t = model.timing;
  t.channels = c.channels;
  t.banks_per_channel = c.banks_per_channel;
  t.line_bytes = 64;  // 64-bit bus x BL8.
  t.accesses_per_line = 1;
  t.read_occupancy_ps = util::ns_to_ps(double(c.row_cycle_ns));
  t.write_occupancy_ps = util::ns_to_ps(double(c.row_cycle_ns));
  t.burst_ps = util::ns_to_ps(c.burst_ns);
  t.interface_ps = util::ns_to_ps(double(c.interface_ns));
  t.has_row_buffer = true;
  t.row_size_bytes = 8192;
  t.row_hit_saving_ps = util::ns_to_ps(double(c.row_hit_saving_ns));
  // JEDEC refresh: tREFI = 7.8 us, tRFC for 8 Gb class devices.
  t.refresh_interval_ps = util::ns_to_ps(7800.0);
  t.refresh_duration_ps = util::ns_to_ps(350.0);
  t.queue_depth = c.queue_depth;

  auto& e = model.energy;
  e.read_pj_per_bit = c.read_pj_per_bit;
  e.write_pj_per_bit = c.write_pj_per_bit;
  e.background_power_w = c.background_power_w;
  return model;
}

}  // namespace

DramConfig ddr3_2d_config() {
  return DramConfig{
      .channels = 1,
      .banks_per_channel = 8,
      .row_cycle_ns = 49,        // tRC(DDR3-1600) ~ 48.75 ns
      .row_hit_saving_ns = 30,   // skip ACT+PRE on an open row
      .burst_ns = 5.0,           // 64 B at 12.8 GB/s
      .interface_ns = 15,
      .queue_depth = 1,          // in-order baseline controller
      .read_pj_per_bit = 18.0,
      .write_pj_per_bit = 22.0,
      .background_power_w = 4.0, // 8 GB of active-idle DIMM ranks + refresh
  };
}

DramConfig ddr3_3d_config() {
  auto c = ddr3_2d_config();
  c.channels = 2;               // stacked dies expose a second channel
  c.row_cycle_ns = 44;          // shorter global wires in-stack
  c.burst_ns = 2.5;             // wide TSV bus
  c.interface_ns = 8;
  c.read_pj_per_bit = 6.0;      // no off-chip I/O
  c.write_pj_per_bit = 8.0;
  c.background_power_w = 0.4;
  return c;
}

DramConfig ddr4_2d_config() {
  return DramConfig{
      .channels = 1,
      .banks_per_channel = 16,
      .row_cycle_ns = 46,        // tRC(DDR4-2400)
      .row_hit_saving_ns = 30,
      .burst_ns = 3.3,           // 64 B at 19.2 GB/s
      .interface_ns = 12,
      .queue_depth = 2,          // bank groups: one extra in-flight access
      .read_pj_per_bit = 12.0,
      .write_pj_per_bit = 15.0,
      .background_power_w = 3.0, // lower-voltage DDR4 DIMMs
  };
}

DramConfig ddr4_3d_config() {
  auto c = ddr4_2d_config();
  c.channels = 2;
  c.row_cycle_ns = 42;
  c.burst_ns = 1.7;
  c.interface_ns = 6;
  // The latency-optimized TSV interface of the stack runs a plain
  // in-order scheduler (as the paper's 3D configurations do).
  c.queue_depth = 1;
  c.read_pj_per_bit = 4.0;
  c.write_pj_per_bit = 5.0;
  c.background_power_w = 0.35;
  return c;
}

memsim::DeviceModel make_dram(const DramConfig& config,
                              const std::string& name) {
  return from_config(config, name);
}

memsim::DeviceModel ddr3_2d() {
  return from_config(ddr3_2d_config(), "2D_DDR3");
}
memsim::DeviceModel ddr3_3d() {
  return from_config(ddr3_3d_config(), "3D_DDR3");
}
memsim::DeviceModel ddr4_2d() {
  return from_config(ddr4_2d_config(), "2D_DDR4");
}
memsim::DeviceModel ddr4_3d() {
  return from_config(ddr4_3d_config(), "3D_DDR4");
}

}  // namespace comet::dram
