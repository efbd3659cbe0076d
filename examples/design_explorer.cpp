// Design-space exploration with the COMET models: sweep bit density,
// subarray shape and SOA spacing, and print the resulting capacity,
// power, loss-budget feasibility and achieved bandwidth — the kind of
// cross-layer what-if analysis the paper's Section IV.A performs to pick
// (B x S_r x M_r x M_c x b) = (4 x 4096 x 512 x 256 x 4).
//
//   build/examples/design_explorer

#include <iostream>

#include "config/device_spec.hpp"
#include "core/comet_memory.hpp"
#include "core/gain_lut.hpp"
#include "core/power_model.hpp"
#include "memsim/trace_gen.hpp"
#include "photonics/waveguide.hpp"
#include "util/table.hpp"

namespace {

double measure_bw(const comet::core::CometConfig& config) {
  const auto device = comet::core::CometMemory::device_model(
      config, comet::photonics::LossParameters::paper());
  auto profile = comet::memsim::profile_by_name("gcc_like");
  profile.avg_interarrival_ns = 0.5;
  const comet::memsim::TraceGenerator gen(profile, 3);
  return comet::config::DeviceSpec(device)
      .make_engine()
      ->run(gen.generate(20000, 128))
      .bandwidth_gbps();
}

}  // namespace

int main() {
  using comet::util::Table;
  const auto losses = comet::photonics::LossParameters::paper();

  std::cout << "=== Sweep 1: bit density (the paper's Fig. 7 decision) ===\n";
  Table density({"config", "wavelengths", "LUT entries", "power (W)",
                 "BW (GB/s)", "capacity/chip (Gbit)"});
  for (const auto& config : {comet::core::CometConfig::comet_1b(),
                             comet::core::CometConfig::comet_2b(),
                             comet::core::CometConfig::comet_4b()}) {
    const comet::core::CometPowerModel power(config, losses);
    const comet::core::GainLut lut(config, losses);
    density.add_row(
        {"COMET-" + std::to_string(config.bits_per_cell) + "b",
         std::to_string(config.wavelengths()), std::to_string(lut.entries()),
         Table::num(power.breakdown().total_w(), 1),
         Table::num(measure_bw(config), 1),
         Table::num(double(config.bits_per_chip()) / 1e9, 2)});
  }
  density.print(std::cout);

  std::cout << "\n=== Sweep 2: subarray rows M_r (SOA chain feasibility) "
               "===\n";
  Table rows({"M_r", "S_r", "SOA stages/column", "active SOAs", "power (W)"});
  for (const int mr : {128, 256, 512, 1024}) {
    auto config = comet::core::CometConfig::comet_4b();
    // Keep N_r = S_r x M_r constant at the paper's 2M rows per bank.
    config.rows_per_subarray = mr;
    config.subarrays = static_cast<int>((4096LL * 512) / mr);
    // S_r must stay a perfect square for the grid layout.
    int grid = 1;
    while (grid * grid < config.subarrays) ++grid;
    config.subarrays = grid * grid;
    const comet::core::CometPowerModel power(config, losses);
    rows.add_row({std::to_string(mr), std::to_string(config.subarrays),
                  std::to_string(mr / config.rows_per_soa),
                  std::to_string(config.active_soas()),
                  Table::num(power.breakdown().total_w(), 1)});
  }
  rows.print(std::cout);

  std::cout << "\n=== Sweep 3: MDM degree (bank parallelism) ===\n";
  Table mdm({"B (banks = modes)", "worst-mode excess (dB)", "BW (GB/s)",
             "power (W)"});
  for (const int banks : {2, 4, 8}) {
    auto config = comet::core::CometConfig::comet_4b();
    config.banks = banks;
    const comet::photonics::MdmLink link(banks);
    const comet::core::CometPowerModel power(config, losses);
    mdm.add_row({std::to_string(banks),
                 Table::num(link.worst_mode_excess_loss_db(), 2),
                 Table::num(measure_bw(config), 1),
                 Table::num(power.breakdown().total_w(), 1)});
  }
  mdm.print(std::cout);
  std::cout << "\n(the paper caps the MDM degree at 4: higher orders leak "
               "and need wider waveguides — Section III.C)\n";
  return 0;
}
