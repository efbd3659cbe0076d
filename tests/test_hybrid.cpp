// Hybrid tiered-memory subsystem tests: the set-associative DRAM cache
// model (LRU, write-back, allocation policy, degenerate geometries), the
// TieredSystem stream split (hit/miss routing, writebacks, sorted-stream
// contract, stats merging) and the driver integration (hybrid registry
// tokens, cache CLI overrides, threaded-sweep determinism).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/experiment.hpp"
#include "config/toml.hpp"
#include "driver/options.hpp"
#include "driver/registry.hpp"
#include "driver/sweep.hpp"
#include "hybrid/dram_cache.hpp"
#include "hybrid/tiered_system.hpp"
#include "memsim/system.hpp"
#include "memsim/trace_gen.hpp"
#include "sched/controller.hpp"
#include "util/units.hpp"

namespace hy = comet::hybrid;
namespace ms = comet::memsim;
namespace sc = comet::sched;
namespace cu = comet::util;

namespace {

hy::DramCacheConfig small_cache(std::uint64_t capacity = 16 << 10,
                                int ways = 4,
                                std::uint32_t line_bytes = 1024) {
  hy::DramCacheConfig config;
  config.capacity_bytes = capacity;
  config.ways = ways;
  config.line_bytes = line_bytes;
  return config;
}

/// A fast-read, slow-write backend so tier routing shows up in latency.
ms::DeviceModel simple_backend() {
  ms::DeviceModel d;
  d.name = "backend";
  d.capacity_bytes = 1ull << 30;
  d.timing.channels = 1;
  d.timing.banks_per_channel = 4;
  d.timing.line_bytes = 128;
  d.timing.read_occupancy_ps = cu::ns_to_ps(50);
  d.timing.write_occupancy_ps = cu::ns_to_ps(150);
  d.timing.burst_ps = cu::ns_to_ps(1);
  d.timing.interface_ps = cu::ns_to_ps(10);
  d.timing.queue_depth = 8;
  d.energy.read_pj_per_bit = 2.0;
  d.energy.write_pj_per_bit = 30.0;
  return d;
}

hy::TieredConfig tiered_config(hy::DramCacheConfig cache = small_cache()) {
  hy::TieredConfig config;
  config.name = "hybrid-test";
  config.cache = cache;
  config.dram = hy::dram_cache_tier_model(cache.capacity_bytes);
  config.backend = simple_backend();
  return config;
}

ms::Request make_req(std::uint64_t id, std::uint64_t arrival_ns, ms::Op op,
                     std::uint64_t addr, std::uint32_t size = 128) {
  ms::Request r;
  r.id = id;
  r.arrival_ps = cu::ns_to_ps(double(arrival_ns));
  r.op = op;
  r.address = addr;
  r.size_bytes = size;
  return r;
}

hy::TieredStats run_tiered(const hy::TieredSystem& sys,
                           const std::vector<ms::Request>& reqs) {
  ms::VectorSource source(reqs);
  return sys.run_tiered(source);
}

/// Yields the wrapped vector one request per next_batch() call, so the
/// replay loop sees the stream in blocks of one.
class TrickleSource final : public ms::RequestSource {
 public:
  explicit TrickleSource(const std::vector<ms::Request>& reqs) : reqs_(reqs) {}
  std::size_t next_batch(ms::Request* out, std::size_t max) override {
    if (max == 0 || next_ == reqs_.size()) return 0;
    out[0] = reqs_[next_++];
    return 1;
  }

 private:
  const std::vector<ms::Request>& reqs_;
  std::size_t next_ = 0;
};

}  // namespace

// ------------------------------------------------------- cache config

TEST(DramCacheConfig, ValidatesGeometry) {
  EXPECT_NO_THROW(small_cache().validate());
  // Non-power-of-two line.
  auto bad = small_cache();
  bad.line_bytes = 1000;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  // Non-positive associativity.
  bad = small_cache();
  bad.ways = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  // Capacity not a multiple of line_bytes * ways.
  bad = small_cache();
  bad.capacity_bytes = 3 * 1024;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(DramCacheConfig, CapacitySmallerThanOneLineThrows) {
  auto bad = small_cache();
  bad.capacity_bytes = bad.line_bytes / 2;
  bad.ways = 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(DramCacheConfig, SingleSetFullyAssociative) {
  // ways == capacity / line: exactly one set.
  auto config = small_cache(8 << 10, 8, 1024);
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.sets(), 1u);

  // Any 8 distinct lines coexist regardless of address spread; the 9th
  // evicts the least recently used one.
  hy::DramCache cache(config);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(cache.access(i * 1024 * 7919, false).hit);
  }
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(cache.access(i * 1024 * 7919, false).hit) << i;
  }
}

// -------------------------------------------------------- cache model

TEST(DramCache, LruEvictsLeastRecentlyUsed) {
  // Direct-mapped-free setup: 1 set, 2 ways, 1 KB lines.
  hy::DramCache cache(small_cache(2 << 10, 2, 1024));
  EXPECT_FALSE(cache.access(0, false).hit);       // A
  EXPECT_FALSE(cache.access(1024, false).hit);    // B
  EXPECT_TRUE(cache.access(0, false).hit);        // touch A: B is LRU
  const auto fill = cache.access(2048, false);    // C evicts B
  EXPECT_FALSE(fill.hit);
  EXPECT_TRUE(fill.fill);
  EXPECT_TRUE(cache.access(0, false).hit);        // A survived
  EXPECT_FALSE(cache.access(1024, false).hit);    // B is gone
}

TEST(DramCache, DirtyEvictionReportsWritebackAddress) {
  hy::DramCache cache(small_cache(2 << 10, 1, 1024));  // 2 direct sets
  EXPECT_FALSE(cache.access(0, true).hit);   // set 0, dirty
  // Same set (stride = sets * line = 2048), clean fill evicts dirty line.
  const auto evict = cache.access(2048, false);
  EXPECT_TRUE(evict.fill);
  EXPECT_TRUE(evict.writeback);
  EXPECT_EQ(evict.writeback_address, 0u);
  // Clean line eviction produces no writeback.
  const auto clean = cache.access(4096, false);
  EXPECT_TRUE(clean.fill);
  EXPECT_FALSE(clean.writeback);
}

TEST(DramCache, WriteNoAllocateBypassesOnMiss) {
  auto config = small_cache(2 << 10, 2, 1024);
  config.write_allocate = false;
  hy::DramCache cache(config);
  const auto miss = cache.access(0, true);
  EXPECT_FALSE(miss.hit);
  EXPECT_FALSE(miss.fill);  // not installed
  // The next read still misses (the write left no trace) and fills.
  const auto read = cache.access(0, false);
  EXPECT_FALSE(read.hit);
  EXPECT_TRUE(read.fill);
  // A write to the now-resident line hits and dirties it in place.
  EXPECT_TRUE(cache.access(0, true).hit);
}

TEST(DramCache, ReadOnlyStreamNeverWritesBack) {
  // Thrash a tiny cache with far more clean lines than it can hold.
  hy::DramCache cache(small_cache(4 << 10, 4, 1024));
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const auto access = cache.access(i * 1024, false);
    EXPECT_FALSE(access.writeback) << i;
  }
}

// ----------------------------------------------------- tiered system

TEST(TieredSystem, ValidatesConfig) {
  EXPECT_NO_THROW(tiered_config().validate());
  // Cache at least as large as the backend is rejected.
  auto bad = tiered_config();
  bad.cache.capacity_bytes = bad.backend.capacity_bytes;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  auto unnamed = tiered_config();
  unnamed.name.clear();
  EXPECT_THROW(unnamed.validate(), std::invalid_argument);
}

TEST(TieredSystem, AllHitsAfterWarmupServeFromDramTier) {
  const hy::TieredSystem sys(tiered_config());
  std::vector<ms::Request> reqs;
  // Hammer one line: first access misses (fill), the rest hit.
  for (int i = 0; i < 10; ++i) {
    reqs.push_back(make_req(i, i * 1000, ms::Op::kRead, 0));
  }
  const auto stats = run_tiered(sys, reqs);
  EXPECT_EQ(stats.combined.cache_hits, 9u);
  EXPECT_EQ(stats.combined.cache_misses, 1u);
  EXPECT_EQ(stats.combined.cache_fills, 1u);
  EXPECT_EQ(stats.combined.writebacks, 0u);
  EXPECT_NEAR(stats.combined.hit_rate(), 0.9, 1e-12);
  // DRAM tier served the 9 hit reads plus the fill — installing the
  // fetched line is an array write even on a read miss.
  EXPECT_EQ(stats.dram.reads, 9u);
  EXPECT_EQ(stats.dram.writes, 1u);
  EXPECT_EQ(stats.backend.reads, 1u);
  EXPECT_EQ(stats.backend.writes, 0u);
  // Demand-level counts reflect the original stream.
  EXPECT_EQ(stats.combined.reads, 10u);
  EXPECT_EQ(stats.combined.writes, 0u);
}

TEST(TieredSystem, DirtyEvictionsReachTheBackendAsWrites) {
  // One-set, one-way cache: every new line evicts the previous one.
  const hy::TieredSystem sys(tiered_config(small_cache(1 << 10, 1, 1024)));
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(
        make_req(i, i * 1000, ms::Op::kWrite, std::uint64_t(i) * 1024));
  }
  const auto stats = run_tiered(sys, reqs);
  // Every write allocates dirty; each subsequent fill evicts dirty: 7
  // writebacks (the 8th line is still resident at the end).
  EXPECT_EQ(stats.combined.cache_misses, 8u);
  EXPECT_EQ(stats.combined.writebacks, 7u);
  EXPECT_EQ(stats.backend.writes, 7u);
  // Write-allocate fetches accompany every miss.
  EXPECT_EQ(stats.backend.reads, 8u);
}

TEST(TieredSystem, WriteNoAllocateSendsMissesStraightDown) {
  auto cache = small_cache(1 << 10, 1, 1024);
  cache.write_allocate = false;
  const hy::TieredSystem sys(tiered_config(cache));
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(
        make_req(i, i * 1000, ms::Op::kWrite, std::uint64_t(i) * 1024));
  }
  const auto stats = run_tiered(sys, reqs);
  EXPECT_EQ(stats.combined.cache_fills, 0u);
  EXPECT_EQ(stats.combined.writebacks, 0u);
  EXPECT_EQ(stats.backend.writes, 8u);   // all demand writes
  EXPECT_EQ(stats.backend.reads, 0u);    // no fetches
  EXPECT_EQ(stats.dram.reads + stats.dram.writes, 0u);
  // The idle DRAM tier still burns its always-on background power over
  // the whole demand span, not over its (empty) sub-stream span.
  EXPECT_GT(stats.combined.dram_tier_energy_pj, 0.0);
  EXPECT_NEAR(stats.dram.background_energy_pj,
              sys.config().dram.energy.background_power_w *
                  double(stats.combined.span_ps),
              1e-9);
}

TEST(TieredSystem, FullLineWriteMissSkipsTheFetch) {
  // A demand write covering the whole 1 KB cache line allocates dirty
  // without fetching from the backend — every byte would be overwritten.
  const hy::TieredSystem sys(tiered_config());
  const auto stats =
      run_tiered(sys, {make_req(0, 0, ms::Op::kWrite, 0, /*size=*/1024)});
  EXPECT_EQ(stats.combined.cache_fills, 1u);
  EXPECT_EQ(stats.backend.reads, 0u);
  EXPECT_EQ(stats.dram.writes, 1u);
  // A partial write miss still fetches the rest of the line.
  const auto partial =
      run_tiered(sys, {make_req(0, 0, ms::Op::kWrite, 0, /*size=*/128)});
  EXPECT_EQ(partial.backend.reads, 1u);
}

TEST(TieredSystem, EmptyStreamStillReportsHybrid) {
  const hy::TieredSystem sys(tiered_config());
  const auto stats = sys.run({});
  EXPECT_TRUE(stats.is_hybrid());
  EXPECT_EQ(stats.span_ps, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.0);
}

TEST(TieredSystem, RejectsUnsortedStreamWithContext) {
  const hy::TieredSystem sys(tiered_config());
  try {
    sys.run({make_req(0, 100, ms::Op::kRead, 0),
             make_req(1, 50, ms::Op::kRead, 4096)});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("index 1"), std::string::npos) << msg;
  }
}

TEST(TieredSystem, CombinedStatsMergeBothTiers) {
  const hy::TieredSystem sys(tiered_config(small_cache(1 << 10, 1, 1024)));
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 64; ++i) {
    // Alternate two conflicting lines: every access misses.
    reqs.push_back(make_req(i, i * 2000, i % 2 ? ms::Op::kWrite : ms::Op::kRead,
                            (i % 2) * 2048));
  }
  const auto stats = run_tiered(sys, reqs);
  const auto& c = stats.combined;
  EXPECT_EQ(c.read_latency_ns.count(),
            stats.dram.read_latency_ns.count() +
                stats.backend.read_latency_ns.count());
  EXPECT_EQ(c.write_latency_ns.count(),
            stats.dram.write_latency_ns.count() +
                stats.backend.write_latency_ns.count());
  EXPECT_EQ(c.queue_delay_ns.count(),
            stats.dram.queue_delay_ns.count() +
                stats.backend.queue_delay_ns.count());
  EXPECT_DOUBLE_EQ(
      c.dynamic_energy_pj,
      stats.dram.dynamic_energy_pj + stats.backend.dynamic_energy_pj);
  EXPECT_DOUBLE_EQ(
      c.total_bank_busy_ns,
      stats.dram.total_bank_busy_ns + stats.backend.total_bank_busy_ns);
  // Request and byte counts stay demand-level although the tiers also
  // served fills, fetches and writebacks.
  std::uint64_t demand_bytes = 0;
  for (const auto& r : reqs) demand_bytes += r.size_bytes;
  EXPECT_EQ(c.reads + c.writes, 64u);
  EXPECT_EQ(c.bytes_transferred, demand_bytes);
  EXPECT_GT(stats.dram.reads + stats.dram.writes + stats.backend.reads +
                stats.backend.writes,
            64u);
  EXPECT_DOUBLE_EQ(c.dram_tier_energy_pj, stats.dram.dynamic_energy_pj +
                                              stats.dram.background_energy_pj);
  EXPECT_DOUBLE_EQ(
      c.backend_tier_energy_pj,
      stats.backend.dynamic_energy_pj + stats.backend.background_energy_pj);
  // Demand wall-clock covers both tiers' completions.
  EXPECT_GE(c.span_ps, std::max(stats.dram.span_ps, stats.backend.span_ps));
  EXPECT_TRUE(c.is_hybrid());
}

TEST(TieredSystem, StreamedTieredReplayMatchesMaterialized) {
  // The streaming split (demand pulled one request per block, derived
  // traffic fed into the incremental tier replays) must be bit-identical
  // to whole-block replay of the materialized vector, tier by tier.
  const hy::TieredSystem sys(tiered_config(small_cache(1 << 12, 2, 1024)));
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 300; ++i) {
    reqs.push_back(make_req(i, i * 700,
                            i % 3 ? ms::Op::kRead : ms::Op::kWrite,
                            std::uint64_t(i % 11) * 1024));
  }
  const auto materialized = run_tiered(sys, reqs);
  TrickleSource source(reqs);
  const auto streamed = sys.run_tiered(source);
  EXPECT_TRUE(streamed.combined == materialized.combined);
  EXPECT_TRUE(streamed.dram == materialized.dram);
  EXPECT_TRUE(streamed.backend == materialized.backend);
}

TEST(TieredSystem, HitsAreFasterThanFlatBackend) {
  // Hot-set workload almost entirely inside the cache: hybrid average
  // read latency must beat the slow flat backend's.
  const auto config = tiered_config();
  const hy::TieredSystem hybrid(config);
  const sc::FlatSystem flat(simple_backend());
  std::vector<ms::Request> reqs;
  for (int i = 0; i < 500; ++i) {
    reqs.push_back(
        make_req(i, i * 500, ms::Op::kRead, std::uint64_t(i % 4) * 4096));
  }
  const auto h = hybrid.run(reqs);
  const auto f = flat.run(reqs);
  EXPECT_GT(h.hit_rate(), 0.9);
  EXPECT_LT(h.read_latency_ns.mean(), f.read_latency_ns.mean());
}

// ------------------------------------------------- driver integration

TEST(HybridRegistry, TokensResolveAndAllExpands) {
  for (const auto& token : comet::driver::known_hybrid_devices()) {
    const auto spec = comet::driver::make_device_spec(token);
    EXPECT_TRUE(spec.is_hybrid()) << token;
    EXPECT_EQ(spec.name, token);
    EXPECT_NO_THROW(spec.tiered->validate()) << token;
  }
  const auto specs = comet::driver::resolve_device_specs("hybrid-all");
  EXPECT_EQ(specs.size(), comet::driver::known_hybrid_devices().size());
}

TEST(HybridRegistry, FlatAllIsUnchanged) {
  const auto specs = comet::driver::resolve_device_specs("all");
  EXPECT_EQ(specs.size(), 7u);
  for (const auto& spec : specs) EXPECT_FALSE(spec.is_hybrid());
}

TEST(HybridRegistry, OverridesApply) {
  // The --cache-* knobs in their document spelling, [experiment] cache_*.
  const std::string document =
      "[experiment]\ndevices = [\"hybrid-comet\"]\n"
      "workloads = [\"gcc_like\"]\ncache_mb = 32\ncache_ways = 16\n";
  const auto read = [&](const std::string& policy) {
    return comet::config::parse_experiment(
        comet::config::toml::parse_string(
            document + "cache_policy = \"" + policy + "\"\n", "o.toml"),
        comet::driver::resolve_device_specs);
  };
  const auto experiment = read("write-no-allocate");
  ASSERT_EQ(experiment.devices.size(), 1u);
  const auto& spec = experiment.devices[0];
  EXPECT_EQ(spec.tiered->cache.capacity_bytes, 32ull << 20);
  EXPECT_EQ(spec.tiered->cache.ways, 16);
  EXPECT_FALSE(spec.tiered->cache.write_allocate);
  EXPECT_EQ(spec.tiered->dram.capacity_bytes, 32ull << 20);

  EXPECT_THROW(read("write-through"), comet::config::toml::ParseError);
}

TEST(HybridConfig, SetCacheRederivesTheDramTierOnlyOnANewCapacity) {
  hy::TieredConfig config = tiered_config();
  config.dram.timing.read_occupancy_ps = 99000;  // A custom tier.
  hy::DramCacheConfig cache = config.cache;
  cache.ways *= 2;
  cache.write_allocate = !cache.write_allocate;
  config.set_cache(cache);
  EXPECT_EQ(config.cache.ways, cache.ways);
  EXPECT_EQ(config.cache.write_allocate, cache.write_allocate);
  EXPECT_EQ(config.dram.timing.read_occupancy_ps, 99000u);

  cache.capacity_bytes *= 2;
  config.set_cache(cache);
  EXPECT_EQ(config.cache.capacity_bytes, cache.capacity_bytes);
  EXPECT_EQ(config.dram.capacity_bytes, cache.capacity_bytes);
  EXPECT_EQ(config.dram.timing.read_occupancy_ps,
            hy::dram_cache_tier_model(cache.capacity_bytes)
                .timing.read_occupancy_ps);
}

TEST(HybridOptions, CacheFlagsParseAndValidate) {
  const auto opt = comet::driver::parse_args(
      {"--device", "hybrid-comet", "--cache-mb", "32", "--cache-ways", "4",
       "--cache-policy", "write-no-allocate"});
  ASSERT_EQ(opt.spec.devices.size(), 1u);
  const auto& cache = opt.spec.devices[0].tiered->cache;
  EXPECT_EQ(cache.capacity_bytes, 32ull << 20);
  EXPECT_EQ(cache.ways, 4);
  EXPECT_FALSE(cache.write_allocate);
  EXPECT_THROW(comet::driver::parse_args({"--cache-policy", "lru"}),
               std::invalid_argument);
  EXPECT_THROW(comet::driver::parse_args({"--cache-mb", "0"}),
               std::invalid_argument);
}

TEST(HybridSweep, EveryWorkloadHitsTheCache) {
  // Acceptance criterion: hybrid-comet reports a positive hit rate and a
  // per-tier energy split on each of the eight workloads.
  const auto opt = comet::driver::parse_args(
      {"--device", "hybrid-comet", "--requests", "4000"});
  const auto jobs = comet::driver::build_matrix(opt.spec);
  EXPECT_EQ(jobs.size(), 8u);
  const auto results = comet::driver::run_sweep(jobs, 0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_GT(results[i].hit_rate(), 0.0) << jobs[i].profile.name;
    EXPECT_GT(results[i].dram_tier_energy_pj, 0.0) << jobs[i].profile.name;
    EXPECT_GT(results[i].backend_tier_energy_pj, 0.0) << jobs[i].profile.name;
  }
}

TEST(HybridSweep, ThreadedMatchesSerialBitExactly) {
  const auto opt = comet::driver::parse_args(
      {"--device", "hybrid-all", "--requests", "1500"});
  const auto jobs = comet::driver::build_matrix(opt.spec);
  const auto serial = comet::driver::run_sweep(jobs, 1);
  const auto threaded = comet::driver::run_sweep(jobs, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == threaded[i]) << i;
  }
}

TEST(HybridSweep, ChannelOverrideTargetsTheBackend) {
  const auto opt = comet::driver::parse_args(
      {"--device", "hybrid-comet", "--channels", "4"});
  const auto jobs = comet::driver::build_matrix(opt.spec);
  ASSERT_FALSE(jobs.empty());
  for (const auto& job : jobs) {
    EXPECT_EQ(job.device.tiered->backend.timing.channels, 4);
    EXPECT_EQ(job.device.channels(), 4);
  }
}
