#pragma once

#include <cstdint>
#include <string>

/// Device timing/energy descriptors consumed by the generic controller.
///
/// Every memory architecture in the study — the DDR3/DDR4 DRAMs (2D and
/// 3D), EPCM-MM, COSMOS and COMET — is expressed as one DeviceModel:
/// channel/bank topology, per-operation occupancies and latencies, a
/// row-buffer model for DRAMs, refresh blocking, photonic-specific
/// region-switch penalties (GST subarray switches), and an energy model
/// split into per-bit dynamic energy and always-on background power
/// (laser + SOA + interface for photonic parts, PHY + refresh for DRAM).
namespace comet::memsim {

struct DeviceTiming {
  /// Independent channels (address-interleaved).
  int channels = 1;
  int banks_per_channel = 8;     ///< Concurrent banks within a channel.
  std::uint32_t line_bytes = 64; ///< Data returned per line access.

  /// How many sequential device accesses one line requires. Every
  /// built-in device uses 1; a device file may set more for an
  /// architecture whose subarrays deliver only part of a line per access
  /// (whether COSMOS's 32-column subarrays should is an open question).
  int accesses_per_line = 1;

  std::uint64_t read_occupancy_ps = 0;   ///< Bank busy time per read access.
  std::uint64_t write_occupancy_ps = 0;  ///< Bank busy time per write access.
  std::uint64_t burst_ps = 0;            ///< Channel bus busy per access.
  /// Fixed pipeline latency (no occupancy).
  std::uint64_t interface_ps = 0;

  /// Extra bank occupancy *after* the data beat, not on the latency path:
  /// COSMOS's destructive subtractive read must restore the erased row
  /// (read tail), and COMET's erase-before-write resets the next target
  /// cells behind the returned acknowledgement (write tail).
  std::uint64_t read_tail_ps = 0;
  std::uint64_t write_tail_ps = 0;

  // --- DRAM row-buffer model (ignored when has_row_buffer is false).
  bool has_row_buffer = false;
  std::uint64_t row_size_bytes = 8192;
  std::uint64_t row_hit_saving_ps = 0;   ///< Occupancy saved on a row hit.

  // --- Refresh blocking (DRAM): every interval, each bank stalls for
  // --- the given duration. Zero interval disables refresh.
  std::uint64_t refresh_interval_ps = 0;
  std::uint64_t refresh_duration_ps = 0;

  // --- Photonic region switching: crossing from one region (subarray
  // --- group behind a GST switch) to another costs a switch transition.
  std::uint64_t region_size_bytes = 0;   ///< 0 disables the model.
  std::uint64_t region_switch_ps = 0;

  /// Maximum outstanding requests the controller overlaps per channel
  /// (memory-level parallelism it can exploit).
  int queue_depth = 8;
};

struct DeviceEnergy {
  double read_pj_per_bit = 0.0;
  double write_pj_per_bit = 0.0;
  double background_power_w = 0.0;  ///< Always-on while the app runs.

  /// Activity-gated background power [W]: burned only while banks are
  /// busy. This models the paper's future-work dynamic laser power
  /// management ([43] in §IV.C): a run-time policy that idles the laser
  /// and SOAs between accesses. Zero for conventional devices.
  double gateable_background_power_w = 0.0;
};

/// A complete architecture model handed to MemorySystem.
struct DeviceModel {
  std::string name;
  DeviceTiming timing;
  DeviceEnergy energy;
  std::uint64_t capacity_bytes = 0;

  /// Total system capacity sanity bound; throws std::invalid_argument on
  /// inconsistent topology values.
  void validate() const;
};

}  // namespace comet::memsim
