#include "hybrid/tiered_system.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "memsim/sharded.hpp"
#include "memsim/system.hpp"
#include "prof/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "util/units.hpp"

namespace comet::hybrid {

void TieredConfig::validate() const {
  if (name.empty()) throw std::invalid_argument("TieredConfig: empty name");
  cache.validate();
  dram.validate();
  backend.validate();
  if (cache.capacity_bytes >= backend.capacity_bytes) {
    throw std::invalid_argument(
        "TieredConfig: cache capacity must be smaller than the backend");
  }
}

void TieredConfig::set_cache(const DramCacheConfig& next) {
  if (next.capacity_bytes != cache.capacity_bytes) {
    dram = dram_cache_tier_model(next.capacity_bytes);
  }
  cache = next;
}

memsim::DeviceModel dram_cache_tier_model(std::uint64_t capacity_bytes) {
  // HBM-class stacked DRAM with a streaming cache controller: 256 B
  // burst granularity (a 2 KB fill is eight back-to-back beats in one
  // row, not 32 closed-page row cycles) and a deeper MSHR window than
  // the conservative main-memory controllers the paper evaluates.
  memsim::DeviceModel model;
  model.name = "DRAM-cache";
  model.capacity_bytes = capacity_bytes;

  auto& t = model.timing;
  t.channels = 4;
  t.banks_per_channel = 16;
  t.line_bytes = 256;
  t.read_occupancy_ps = util::ns_to_ps(15.0);
  t.write_occupancy_ps = util::ns_to_ps(15.0);
  t.burst_ps = util::ns_to_ps(4.0);  // 256 B at ~64 GB/s per channel
  t.interface_ps = util::ns_to_ps(6.0);
  t.has_row_buffer = true;
  t.row_size_bytes = 8192;
  t.row_hit_saving_ps = util::ns_to_ps(10.0);
  t.refresh_interval_ps = util::ns_to_ps(7800.0);
  t.refresh_duration_ps = util::ns_to_ps(350.0);
  t.queue_depth = 16;

  auto& e = model.energy;
  e.read_pj_per_bit = 4.0;
  e.write_pj_per_bit = 5.0;
  // Refresh/peripheral background power scales with the retained array
  // size (0.35 W for a full 8 GB HBM-class stack); the tag-match and
  // controller logic is a fixed floor.
  constexpr double kControllerFloorW = 0.05;
  constexpr double kFullStackPowerW = 0.35;
  constexpr double kFullStackBytes = 8ull << 30;
  e.background_power_w =
      kControllerFloorW +
      kFullStackPowerW * static_cast<double>(capacity_bytes) / kFullStackBytes;
  return model;
}

TieredSystem::TieredSystem(
    TieredConfig config,
    std::optional<sched::ControllerConfig> backend_controller,
    int run_threads)
    : config_(std::move(config)),
      backend_controller_(std::move(backend_controller)),
      run_threads_(memsim::resolve_run_threads(run_threads)) {
  config_.validate();
  if (backend_controller_) backend_controller_->validate();
}

namespace {

/// The hybrid replay stage: the DRAM-cache filter splits each demand
/// request into derived per-tier traffic, fed straight into one LanePool
/// holding both tier replays — DRAM-tier channel lanes first ([0, D)),
/// backend channel lanes after ([D, D+B)); the backend lanes carry the
/// controller front-end when one is configured. Derived requests reuse
/// the demand arrival time and are fed in demand order, so both
/// sub-streams inherit the sorted-stream contract. The tag state is
/// global across channels, so the filter runs on the caller's thread
/// whatever run_threads says; with run_threads <= 1 the lanes (and the
/// source) run there too.
class TierStage final : public memsim::ReplayStage {
 public:
  TierStage(const DramCacheConfig& cache, const memsim::MemorySystem& dram,
            const memsim::MemorySystem& backend,
            const std::optional<sched::ControllerConfig>& controller,
            const std::string& workload_name, int threads,
            telemetry::Recorder* dram_telemetry,
            telemetry::Recorder* backend_telemetry, prof::Profiler* profiler,
            memsim::SimStats& combined)
      : cache_(cache),
        line_bytes_(cache.line_bytes),
        dram_map_(dram.address_map()),
        backend_map_(backend.address_map()),
        dram_lanes_(static_cast<std::size_t>(dram.model().timing.channels)),
        pool_(make_lanes(dram, backend, controller, workload_name,
                         dram_telemetry, backend_telemetry),
              threads, profiler ? profiler->add_pool("tiers") : nullptr),
        combined_(combined) {}

  std::uint64_t demand_start() const { return demand_start_; }

  void feed(const memsim::Request* block, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) filter(block[i]);
  }

  SourceMode source_mode() const override {
    return pool_.threaded() ? SourceMode::kProducer : SourceMode::kInline;
  }

  std::vector<memsim::ReplaySlice> drain() override { return pool_.finish(); }

 private:
  void feed_dram(const memsim::Request& req) {
    pool_.feed(static_cast<std::size_t>(dram_map_.channel(req)), req);
  }

  void feed_backend(const memsim::Request& req) {
    pool_.feed(
        dram_lanes_ + static_cast<std::size_t>(backend_map_.channel(req)), req);
  }

  void filter(const memsim::Request& req) {
    using memsim::Op;
    if (combined_.reads + combined_.writes == 0) demand_start_ = req.arrival_ps;
    const bool is_write = req.op == Op::kWrite;
    if (is_write) {
      ++combined_.writes;
    } else {
      ++combined_.reads;
    }
    combined_.bytes_transferred += req.size_bytes;
    const auto derived = [&req](Op op, std::uint64_t address,
                                std::uint32_t size, std::uint64_t id) {
      return memsim::Request{.id = id,
                             .arrival_ps = req.arrival_ps,
                             .op = op,
                             .address = address,
                             .size_bytes = size};
    };

    // One demand request may straddle several (coarse) cache lines.
    const std::uint64_t demand_end =
        req.address + std::max<std::uint64_t>(req.size_bytes, 1);
    const std::uint64_t first_line = req.address / line_bytes_;
    const std::uint64_t last_line = (demand_end - 1) / line_bytes_;
    for (std::uint64_t line = first_line; line <= last_line; ++line) {
      const std::uint64_t line_address = line * line_bytes_;
      const auto outcome = cache_.access(line_address, is_write);
      // The demand bytes falling inside this cache line; fills, fetches
      // and writebacks always move the whole (coarse) line.
      const std::uint32_t portion = static_cast<std::uint32_t>(
          std::min(demand_end, line_address + line_bytes_) -
          std::max(req.address, line_address));

      if (outcome.hit) {
        ++combined_.cache_hits;
        feed_dram(derived(req.op, std::max(req.address, line_address),
                          portion, req.id));
        continue;
      }
      ++combined_.cache_misses;
      if (outcome.fill) {
        ++combined_.cache_fills;
        // The backend supplies the line (the latency path of a read
        // miss; the fetch-on-write of a write-allocate miss) and the
        // DRAM tier absorbs the fill. Installing the fetched line is an
        // array *write* whatever the demand op was. A demand write that
        // covers the whole line needs no fetch — every fetched byte
        // would be overwritten.
        if (!(is_write && portion == line_bytes_)) {
          feed_backend(derived(Op::kRead, line_address, line_bytes_, req.id));
        }
        feed_dram(derived(Op::kWrite, line_address, line_bytes_, next_id_++));
      } else {
        // Write-no-allocate miss: the demand write goes straight down.
        feed_backend(derived(Op::kWrite, std::max(req.address, line_address),
                             portion, req.id));
      }
      if (outcome.writeback) {
        ++combined_.writebacks;
        feed_backend(derived(Op::kWrite, outcome.writeback_address,
                             line_bytes_, next_id_++));
      }
    }
  }

  /// The DRAM tier's session lanes, then the backend's lanes.
  static std::vector<std::unique_ptr<memsim::ShardLane>> make_lanes(
      const memsim::MemorySystem& dram, const memsim::MemorySystem& backend,
      const std::optional<sched::ControllerConfig>& controller,
      const std::string& workload_name, telemetry::Recorder* dram_telemetry,
      telemetry::Recorder* backend_telemetry) {
    std::vector<std::unique_ptr<memsim::ShardLane>> lanes = sched::make_lanes(
        dram, std::nullopt, workload_name, dram_telemetry);
    for (auto& lane : sched::make_lanes(backend, controller, workload_name,
                                        backend_telemetry)) {
      lanes.push_back(std::move(lane));
    }
    return lanes;
  }

  DramCache cache_;
  const std::uint32_t line_bytes_;
  const memsim::AddressMap& dram_map_;
  const memsim::AddressMap& backend_map_;
  const std::size_t dram_lanes_;
  memsim::LanePool pool_;
  memsim::SimStats& combined_;  ///< Demand counters, cache breakdown.
  std::uint64_t demand_start_ = 0;
  // Derived-request ids live in their own (top-bit) namespace, above any
  // realistic demand id space, for traceability.
  std::uint64_t next_id_ = 1ull << 63;
};

}  // namespace

TieredStats TieredSystem::run_tiered(memsim::RequestSource& source,
                                     const std::string& workload_name,
                                     telemetry::Collector* collector,
                                     prof::Profiler* profiler) const {
  TieredStats stats;
  stats.combined.device_name = config_.name;
  stats.combined.workload_name = workload_name;
  stats.combined.hybrid = true;

  const memsim::MemorySystem dram_system(config_.dram);
  const memsim::MemorySystem backend_system(config_.backend);
  // Per-tier telemetry stages: the event budget splits evenly between
  // the tiers (0 = unlimited splits to unlimited on both).
  telemetry::Recorder* dram_recorder = nullptr;
  telemetry::Recorder* backend_recorder = nullptr;
  if (collector != nullptr) {
    const std::uint64_t limit = collector->spec().trace_limit;
    dram_recorder = collector->add_stage(
        "dram", config_.dram.timing.channels,
        config_.dram.timing.banks_per_channel, limit / 2);
    backend_recorder = collector->add_stage(
        "backend", config_.backend.timing.channels,
        config_.backend.timing.banks_per_channel, limit - limit / 2);
  }
  TierStage stage(config_.cache, dram_system, backend_system,
                  backend_controller_, workload_name, run_threads_,
                  dram_recorder, backend_recorder, profiler, stats.combined);
  std::vector<memsim::ReplaySlice> tiers = memsim::run_replay(
      source, stage, {&config_.dram, &config_.backend}, profiler);
  // Fold the tier replays into the combined demand-level view with the
  // one slice reduction. Latency distributions, energies, busy time and
  // a scheduled backend's controller breakdown (the DRAM tier is always
  // direct, so there is only one) include the carry traffic each tier
  // served: fills, fetches and writebacks. The combined view keeps its
  // own demand counters, so the tier copies' request, byte and tenant
  // counts are zeroed first: bandwidth and EPB are per *demand*
  // byte/bit while energy honestly includes the tier-maintenance
  // traffic.
  memsim::ReplaySlice combined;
  combined.stats = std::move(stats.combined);
  for (const memsim::ReplaySlice& tier : tiers) {
    memsim::ReplaySlice carry = tier;
    carry.stats.reads = 0;
    carry.stats.writes = 0;
    carry.stats.bytes_transferred = 0;
    carry.stats.tenants.clear();
    memsim::merge_slice(combined, carry);
  }
  stats.combined = std::move(combined.stats);
  stats.dram = std::move(tiers[0].stats);
  stats.backend = std::move(tiers[1].stats);

  // The demand wall-clock: first demand arrival to the last completion
  // of either tier. Both tiers are powered for the whole run, but each
  // replay charged its always-on background power over its own
  // (possibly much shorter, possibly empty) sub-stream span only — top
  // it up over the idle remainder. Activity-gated power stays off while
  // idle by definition.
  const std::uint64_t demand_start = stage.demand_start();
  const std::uint64_t combined_span =
      std::max(demand_start, combined.last_completion_ps) - demand_start;
  const auto top_up = [combined_span](memsim::SimStats& tier,
                                      const memsim::DeviceModel& model) {
    tier.background_energy_pj +=
        model.energy.background_power_w *
        static_cast<double>(combined_span - tier.span_ps);
  };
  top_up(stats.dram, config_.dram);
  top_up(stats.backend, config_.backend);

  // What merge_slice does not derive: the demand span and the
  // span-dependent energies.
  auto& c = stats.combined;
  c.span_ps = combined_span;
  c.background_energy_pj =
      stats.dram.background_energy_pj + stats.backend.background_energy_pj;
  c.dram_tier_energy_pj =
      stats.dram.dynamic_energy_pj + stats.dram.background_energy_pj;
  c.backend_tier_energy_pj =
      stats.backend.dynamic_energy_pj + stats.backend.background_energy_pj;
  return stats;
}

memsim::SimStats TieredSystem::run(memsim::RequestSource& source,
                                   const std::string& workload_name,
                                   telemetry::Collector* collector,
                                   prof::Profiler* profiler) const {
  return run_tiered(source, workload_name, collector, profiler).combined;
}

std::unique_ptr<memsim::Engine> TieredSystem::serial_twin() const {
  auto twin = std::make_unique<TieredSystem>(*this);
  twin->run_threads_ = 1;
  return twin;
}

}  // namespace comet::hybrid
