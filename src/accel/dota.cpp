#include "accel/dota.hpp"

#include <algorithm>

#include "memsim/sharded.hpp"
#include "memsim/trace_gen.hpp"

namespace comet::accel {

DotaConfig DotaConfig::paper() { return DotaConfig{}; }

namespace {

/// Weight streaming is long sequential reads with periodic activation
/// read/write bursts: a high-locality, read-heavy stream.
double measure_streaming_bw(const memsim::MemorySystem& memory) {
  memsim::WorkloadProfile profile;
  profile.name = "dota_weight_stream";
  profile.pattern = memsim::Pattern::kStreaming;
  profile.read_fraction = 0.9;
  profile.locality = 0.98;
  profile.working_set_bytes = 256ull << 20;
  profile.avg_interarrival_ns = 0.5;  // saturating
  const memsim::TraceGenerator gen(profile, /*seed=*/0xD07A);
  const auto trace = gen.generate(60000, 128);
  memsim::VectorSource source(trace);
  return memsim::run_sessions(memory, source, profile.name).bandwidth_gbps();
}

}  // namespace

DotaSystem::DotaSystem(const DotaConfig& config, memsim::DeviceModel memory,
                       bool memory_is_photonic)
    : config_(config),
      memory_(std::move(memory)),
      photonic_(memory_is_photonic),
      streaming_bw_gbps_(measure_streaming_bw(memory_)) {}

DotaResult DotaSystem::evaluate(const TransformerModel& model) const {
  DotaResult result;
  result.memory_name = memory_.model().name;
  result.model_name = model.name;

  const bool is_base = model.hidden >= 512;
  const double utilization =
      is_base ? config_.utilization_base : config_.utilization_tiny;
  const double macs_per_s = config_.peak_tops * 1e12 / 2.0 * utilization;
  result.demanded_bw_gbps =
      macs_per_s / model.arithmetic_intensity() / 1e9;
  result.achieved_bw_gbps = streaming_bw_gbps_;
  result.effective_bw_gbps =
      std::min(result.demanded_bw_gbps, result.achieved_bw_gbps);

  // Memory energy per bit: background power over the effective stream
  // rate, plus the read-dominated dynamic energy.
  const auto& energy = memory_.model().energy;
  const double bits_per_s = result.effective_bw_gbps * 8e9;
  result.memory_epb =
      energy.background_power_w / bits_per_s * 1e12 +
      0.9 * energy.read_pj_per_bit + 0.1 * energy.write_pj_per_bit;

  // Photonic memories feed the photonic tensor core directly; an
  // electronic memory pays the DAC + modulator-driver conversion.
  result.conversion_epb =
      photonic_ ? 0.0 : config_.eo_conversion_pj_per_bit;
  result.overhead_epb = config_.accel_overhead_pj_per_bit;
  return result;
}

}  // namespace comet::accel
