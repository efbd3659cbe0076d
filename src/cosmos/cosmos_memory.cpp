#include "cosmos/cosmos_memory.hpp"

#include "photonics/laser.hpp"
#include "photonics/waveguide.hpp"
#include "util/units.hpp"

namespace comet::cosmos {

CosmosPowerModel::CosmosPowerModel(const CosmosConfig& config,
                                   const photonics::LossParameters& losses)
    : config_(config), losses_(losses) {
  config_.validate();
}

photonics::LossBudget CosmosPowerModel::launch_path_budget() const {
  photonics::LossBudget budget;
  budget.add("fiber coupler", losses_.coupling_loss_db);
  // Worst-case traversal of the 32-cell subarray row: each crossing
  // contributes scattering + amorphous-cell insertion loss.
  budget.add("crossbar crossings", 0.3, config_.subarray_cols);
  // 16-degree MDM: the paper calls lossless 16-mode links "extremely
  // challenging"; the highest-order mode pays accordingly.
  const photonics::MdmLink link(config_.banks, 0.15);
  budget.add("MDM worst mode", link.worst_mode_excess_loss_db());
  // PCM subarray switch (granted to COSMOS by the paper's correction).
  budget.add("PCM subarray switch", losses_.gst_switch_loss_db);
  // Residual splitter stages that the PCM switches do not remove.
  budget.add("residual splitters", 3.0);
  budget.add("margin", 1.0);
  return budget;
}

double CosmosPowerModel::laser_power_w() const {
  const photonics::Laser laser(losses_.laser_wall_plug_efficiency,
                               config_.wavelengths());
  return laser.electrical_power_w(config_.cell_power_mw,
                                  launch_path_budget().total_db());
}

double CosmosPowerModel::soa_power_w() const {
  return config_.active_soas() * losses_.intra_subarray_soa_power_mw * 1e-3;
}

double CosmosPowerModel::interface_power_w() const {
  // Same per-wavelength interface electronics as COMET, plus the
  // subtract-and-correct readout logic.
  constexpr double kPerWavelengthMw = 10.0;
  constexpr double kControllerW = 0.5;
  constexpr double kSubtractLogicW = 1.5;
  return config_.wavelengths() * kPerWavelengthMw * 1e-3 + kControllerW +
         kSubtractLogicW;
}

core::PowerBreakdown CosmosPowerModel::breakdown() const {
  core::PowerBreakdown stack;
  stack.label = "COSMOS";
  stack.components = {
      {"laser", laser_power_w()},
      {"soa", soa_power_w()},
      {"eo_tuning", 0.0},  // COSMOS has no MR access control
      {"interface", interface_power_w()},
  };
  return stack;
}

memsim::DeviceModel cosmos_device_model(
    const CosmosConfig& config, const photonics::LossParameters& losses) {
  config.validate();
  memsim::DeviceModel model;
  model.name = "COSMOS";
  model.capacity_bytes = config.capacity_bytes();

  auto& t = model.timing;
  t.channels = config.channels;
  t.banks_per_channel = config.banks;
  t.line_bytes = static_cast<std::uint32_t>(config.line_bytes());
  t.accesses_per_line = 1;
  // Subtractive read on the latency path: read + row reset + read.
  t.read_occupancy_ps =
      util::ns_to_ps(config.read_ns + config.erase_ns + config.read_ns);
  // Posted destructive-read restore: the subtractive read erases the row,
  // so the full 1.6 us rewrite occupies the bank behind the returned data.
  t.read_tail_ps = util::ns_to_ps(config.write_ns);
  t.write_occupancy_ps = util::ns_to_ps(config.write_ns);
  t.write_tail_ps = 0;
  t.burst_ps = util::ns_to_ps(config.burst_ns * config.burst_length);
  t.interface_ps = util::ns_to_ps(config.interface_ns);
  t.has_row_buffer = false;
  t.refresh_interval_ps = 0;
  // The granted PCM subarray-row switches cost 100 ns on every region
  // change (COSMOS has no spare interface stage to hide them behind).
  t.region_size_bytes = static_cast<std::uint64_t>(config.subarray_rows) *
                        config.line_bytes() * config.channels * config.banks;
  t.region_switch_ps = util::ns_to_ps(config.pcm_switch_ns);
  t.queue_depth = 128;

  auto& e = model.energy;
  // Two read passes at read power across the wavelength comb, plus the
  // destructive-read restore write at the corrected 5 mW cell power.
  const double line_bits = static_cast<double>(config.line_bytes()) * 8.0;
  const double read_passes_pj =
      2.0 * config.read_ns * 1.0 /*mW*/ * config.wavelengths();
  const double restore_pj = config.write_ns * config.cell_power_mw *
                            config.subarray_cols;
  e.read_pj_per_bit = (read_passes_pj + restore_pj) / line_bits;
  const double write_pj = config.write_ns * config.cell_power_mw *
                          config.subarray_cols;
  e.write_pj_per_bit = write_pj / line_bits;
  e.background_power_w =
      CosmosPowerModel(config, losses).breakdown().total_w();
  return model;
}

}  // namespace comet::cosmos
