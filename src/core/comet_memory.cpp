#include "core/comet_memory.hpp"

#include <stdexcept>

#include "materials/pcm_material.hpp"
#include "util/units.hpp"

namespace comet::core {
namespace {

materials::MlcLevelTable build_table(const CometConfig& config,
                                     const photonics::GstCell& optics,
                                     const materials::PcmThermalModel& thermal,
                                     materials::ProgrammingMode mode) {
  return materials::MlcLevelTable::build(config.bits_per_cell, mode, thermal,
                                         optics.transmission_curve());
}

}  // namespace

CometMemory::CometMemory(const CometConfig& config,
                         materials::ProgrammingMode mode)
    : config_(config),
      cell_optics_(materials::PcmMaterial::get(materials::Pcm::kGst),
                   photonics::GstCellGeometry::paper()),
      thermal_(materials::GstThermalCalibration::calibrated()),
      table_(build_table(config, cell_optics_, thermal_, mode)),
      lut_(config, photonics::LossParameters::paper()),
      mapper_(config) {
  config_.validate();
  const int total_banks = config_.channels * config_.banks;
  banks_.reserve(static_cast<std::size_t>(total_banks));
  for (int i = 0; i < total_banks; ++i) {
    banks_.push_back(std::make_unique<Bank>(
        config_, &table_, &lut_, photonics::LossParameters::paper()));
  }
}

Bank& CometMemory::bank(int channel, int bank_index) {
  if (channel < 0 || channel >= config_.channels || bank_index < 0 ||
      bank_index >= config_.banks) {
    throw std::out_of_range("CometMemory::bank: out of range");
  }
  return *banks_[static_cast<std::size_t>(channel) * config_.banks +
                 static_cast<std::size_t>(bank_index)];
}

std::vector<int> CometMemory::pack_levels(std::span<const std::uint8_t> bytes,
                                          int bits_per_cell) {
  if (bits_per_cell != 1 && bits_per_cell != 2 && bits_per_cell != 4) {
    throw std::invalid_argument("pack_levels: bits must divide 8");
  }
  const int cells_per_byte = 8 / bits_per_cell;
  const int mask = (1 << bits_per_cell) - 1;
  std::vector<int> levels;
  levels.reserve(bytes.size() * static_cast<std::size_t>(cells_per_byte));
  for (const std::uint8_t byte : bytes) {
    for (int c = 0; c < cells_per_byte; ++c) {
      levels.push_back((byte >> (c * bits_per_cell)) & mask);
    }
  }
  return levels;
}

void CometMemory::unpack_levels(std::span<const int> levels,
                                int bits_per_cell,
                                std::span<std::uint8_t> out) {
  if (bits_per_cell != 1 && bits_per_cell != 2 && bits_per_cell != 4) {
    throw std::invalid_argument("unpack_levels: bits must divide 8");
  }
  const int cells_per_byte = 8 / bits_per_cell;
  if (levels.size() != out.size() * static_cast<std::size_t>(cells_per_byte)) {
    throw std::invalid_argument("unpack_levels: size mismatch");
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    int byte = 0;
    for (int c = 0; c < cells_per_byte; ++c) {
      byte |= levels[i * cells_per_byte + static_cast<std::size_t>(c)]
              << (c * bits_per_cell);
    }
    out[i] = static_cast<std::uint8_t>(byte);
  }
}

LineAccessResult CometMemory::write_line(std::uint64_t address,
                                         std::span<const std::uint8_t> data) {
  if (data.size() != config_.line_bytes()) {
    throw std::invalid_argument("write_line: data must be one line");
  }
  if (address % config_.line_bytes() != 0) {
    throw std::invalid_argument("write_line: unaligned address");
  }
  const FlatAddress flat = mapper_.decode(address);
  const MappedAddress mapped = mapper_.map(flat);
  const auto levels = pack_levels(data, config_.bits_per_cell);
  auto& target = bank(flat.channel, flat.bank);
  const auto row = target.write_row(mapped.subarray_id,
                                    static_cast<int>(mapped.subarray_row),
                                    levels);
  return LineAccessResult{
      .latency_ns = row.latency_ns + config_.interface_ns +
                    config_.burst_ns * config_.burst_length,
      .energy_pj = row.energy_pj,
      .correct = true};
}

LineAccessResult CometMemory::read_line(std::uint64_t address,
                                        std::span<std::uint8_t> out) {
  if (out.size() != config_.line_bytes()) {
    throw std::invalid_argument("read_line: out must be one line");
  }
  if (address % config_.line_bytes() != 0) {
    throw std::invalid_argument("read_line: unaligned address");
  }
  const FlatAddress flat = mapper_.decode(address);
  const MappedAddress mapped = mapper_.map(flat);
  auto& target = bank(flat.channel, flat.bank);
  const auto row = target.read_row(mapped.subarray_id,
                                   static_cast<int>(mapped.subarray_row));
  unpack_levels(row.levels, config_.bits_per_cell, out);
  return LineAccessResult{
      .latency_ns = row.latency_ns + config_.interface_ns +
                    config_.burst_ns * config_.burst_length,
      .energy_pj = row.energy_pj,
      .correct = row.correct};
}

memsim::DeviceModel CometMemory::device_model(
    const CometConfig& config, const photonics::LossParameters& losses,
    bool serialize_subarray_switch, bool serialize_erase) {
  config.validate();
  memsim::DeviceModel model;
  model.name = "COMET-" + std::to_string(config.bits_per_cell) + "b";
  model.capacity_bytes = config.capacity_bytes();

  auto& t = model.timing;
  t.channels = config.channels;
  t.banks_per_channel = config.banks;
  t.line_bytes = static_cast<std::uint32_t>(config.line_bytes());
  // Every bank owns an MDM mode of the link: banks serve whole lines
  // independently (Section III.C's MDM-parallel bank access).
  t.accesses_per_line = 1;
  t.read_occupancy_ps =
      util::ns_to_ps(config.mr_tuning_ns + config.read_ns);
  t.write_occupancy_ps =
      util::ns_to_ps(config.mr_tuning_ns + config.max_write_ns);
  // Erase-before-write is hidden by DyPhase-style background pre-resets
  // of invalidated rows ([19], cited by the paper): the controller keeps
  // a pool of erased rows, so the 210 ns erase stays off both the
  // latency path and the steady-state bank occupancy. The ablation bench
  // re-serializes it to quantify the assumption.
  t.write_tail_ps = serialize_erase ? util::ns_to_ps(config.erase_ns) : 0;
  t.burst_ps = util::ns_to_ps(config.burst_ns * config.burst_length);
  t.interface_ps = util::ns_to_ps(config.interface_ns);
  t.has_row_buffer = false;
  t.refresh_interval_ps = 0;  // non-volatile: the headline DRAM win
  // One subarray spans M_r rows; with line-per-row filling and
  // channel/bank interleave the subarray region covers:
  t.region_size_bytes = static_cast<std::uint64_t>(config.rows_per_subarray) *
                        config.line_bytes() * config.channels * config.banks;
  t.region_switch_ps = serialize_subarray_switch
                           ? util::ns_to_ps(config.gst_switch_ns)
                           : 0;
  t.queue_depth = 128;

  // Dynamic energy from the device physics (calibrated level table).
  const CometMemory reference(config);
  const auto& levels = reference.level_table().levels();
  double mean_write_pj = 0.0;
  for (const auto& level : levels) mean_write_pj += level.write_energy_pj;
  mean_write_pj /= static_cast<double>(levels.size());
  const double reset_pj = reference.level_table().reset().energy_pj;
  const double line_bits = static_cast<double>(config.line_bytes()) * 8.0;
  const double cells_per_line = line_bits / config.bits_per_cell;

  auto& e = model.energy;
  // Read pulse: 1 mW per wavelength for the read duration.
  e.read_pj_per_bit =
      cells_per_line * losses.max_power_at_cell_mw * config.read_ns /
      line_bits;
  e.write_pj_per_bit = cells_per_line * (reset_pj + mean_write_pj) / line_bits;
  e.background_power_w = CometPowerModel(config, losses).breakdown().total_w();
  return model;
}

}  // namespace comet::core
