#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hpp"

/// Aggregate results of one trace replay against one architecture.
namespace comet::memsim {

/// Per-tenant slice of a multi-stream run, indexed tenant-1 in
/// SimStats::tenants. Latency percentiles come from the same
/// RunningStats machinery as the run-wide stats, so tenant breakdowns
/// merge exactly across sharded lanes.
struct TenantBreakdown {
  std::string name;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_transferred = 0;
  util::RunningStats latency_ns;  ///< End-to-end, reads and writes.

  /// Mean end-to-end latency of the same tenant stream replayed alone
  /// on a fresh engine (0 until the baseline pass fills it in).
  double alone_avg_latency_ns = 0.0;
  /// Shared-run mean latency / run-alone mean latency; >= 1 when
  /// contention hurts, 0 for a tenant that issued no requests.
  double slowdown = 0.0;

  std::uint64_t requests() const { return reads + writes; }
  double avg_latency_ns() const {
    return latency_ns.count() == 0
               ? 0.0
               : latency_ns.sum() / static_cast<double>(latency_ns.count());
  }

  bool operator==(const TenantBreakdown&) const = default;
};

struct SimStats {
  std::string device_name;
  std::string workload_name;

  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t span_ps = 0;  ///< First arrival to last completion.

  util::RunningStats read_latency_ns;
  util::RunningStats write_latency_ns;
  util::RunningStats queue_delay_ns;

  double dynamic_energy_pj = 0.0;
  double background_energy_pj = 0.0;

  /// Total bank-busy time accumulated across all banks [ns]; divide by
  /// span x bank count for average bank utilization.
  double total_bank_busy_ns = 0.0;

  // --- Hybrid-tier breakdown, populated only by hybrid::TieredSystem
  // --- (all zero for flat devices). Counts are per cache-line access;
  // --- tier energies are dynamic + background of each tier's replay.
  bool hybrid = false;  ///< A DRAM cache tier filtered this stream.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_fills = 0;
  std::uint64_t writebacks = 0;
  double dram_tier_energy_pj = 0.0;
  double backend_tier_energy_pj = 0.0;

  // --- Scheduler breakdown, populated only when a sched::Controller
  // --- front-end drove the replay (the backend replay, for hybrid
  // --- runs; all zero/empty otherwise). The end-to-end latency stats
  // --- above always include this queueing time; these fields split it
  // --- out: queue wait (arrival -> issue) vs device service
  // --- (issue -> completion), plus the transaction-queue occupancies
  // --- each arriving request observed and the write-drain /
  // --- backpressure event counts.
  bool scheduled = false;
  std::string sched_policy;  ///< "fcfs" | "frfcfs" | "read-first".
  util::RunningStats sched_queue_delay_ns;  ///< Controller-queue wait.
  util::RunningStats service_latency_ns;    ///< Issue to completion.
  util::RunningStats read_queue_occupancy;  ///< Waiting reads at admit.
  util::RunningStats write_queue_occupancy;
  std::uint64_t write_drains = 0;    ///< Drain episodes entered.
  std::uint64_t drained_writes = 0;  ///< Writes issued while draining.
  std::uint64_t drain_stalls = 0;    ///< Drained writes with reads waiting.
  std::uint64_t admit_stalls = 0;    ///< Admissions delayed by a full queue.

  // --- Multi-tenant breakdown, populated only when the stream carried
  // --- tenant-tagged requests (tenant::MultiSource runs; empty
  // --- otherwise). Indexed tenant-1; the fairness summary fields are
  // --- derived by tenant::run_multi_tenant once the run-alone
  // --- baselines exist.
  std::vector<TenantBreakdown> tenants;
  double max_slowdown = 0.0;     ///< Worst per-tenant slowdown.
  double fairness_index = 0.0;   ///< Jain's index over tenant slowdowns.

  /// True once a multi-tenant front-end tagged this run's stream.
  bool is_multi_tenant() const { return !tenants.empty(); }

  /// True once a scheduler front-end queued this run's stream.
  bool is_scheduled() const { return scheduled; }

  /// True once a DRAM cache tier has filtered this run's stream (even
  /// an empty one).
  bool is_hybrid() const { return hybrid; }

  /// DRAM-tier hit fraction in [0, 1]; 0 when no cache tier was involved.
  double hit_rate() const;

  /// Average bank utilization in [0, 1] given the total bank count.
  double bank_utilization(int total_banks) const;

  /// Achieved bandwidth [GB/s].
  double bandwidth_gbps() const;

  /// Total energy per transferred bit [pJ/bit].
  double epb_pj_per_bit() const;

  /// Mean latency across reads and writes [ns].
  double avg_latency_ns() const;

  /// Fig. 9c metric: bandwidth per unit energy-per-bit
  /// [(GB/s) / (pJ/bit)].
  double bw_per_epb() const;

  /// Exact, field-for-field equality — the comparison every
  /// bit-identity gate uses.
  bool operator==(const SimStats&) const = default;
};

}  // namespace comet::memsim
