#include "memsim/system.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/ring.hpp"

namespace comet::memsim {
namespace {

/// Pushes `t` past any refresh window it falls into.
std::uint64_t avoid_refresh(std::uint64_t t, const DeviceTiming& timing) {
  if (timing.refresh_interval_ps == 0) return t;
  const std::uint64_t phase = t % timing.refresh_interval_ps;
  if (phase < timing.refresh_duration_ps) {
    return t - phase + timing.refresh_duration_ps;
  }
  return t;
}

}  // namespace

void check_arrival_order(std::uint64_t index, std::uint64_t prev_ps,
                         std::uint64_t arrival_ps) {
  if (arrival_ps >= prev_ps) return;
  std::ostringstream msg;
  msg << "unsorted trace: request at index " << index << " arrives at "
      << arrival_ps << " ps, before the previous request's " << prev_ps
      << " ps";
  throw std::invalid_argument(msg.str());
}

AddressMap::AddressMap(const DeviceTiming& timing)
    : line_(timing.line_bytes),
      channels_(static_cast<std::uint64_t>(timing.channels)),
      banks_(static_cast<std::uint64_t>(timing.banks_per_channel)),
      row_(timing.row_size_bytes),
      region_(timing.region_size_bytes) {}

void merge_slice(ReplaySlice& into, const ReplaySlice& from) {
  SimStats& a = into.stats;
  const SimStats& b = from.stats;
  if (a.device_name.empty()) a.device_name = b.device_name;
  if (a.workload_name.empty()) a.workload_name = b.workload_name;

  if (from.fed > 0) {
    into.first_arrival_ps =
        into.fed > 0 ? std::min(into.first_arrival_ps, from.first_arrival_ps)
                     : from.first_arrival_ps;
    into.last_completion_ps =
        std::max(into.last_completion_ps, from.last_completion_ps);
  }
  into.fed += from.fed;

  a.reads += b.reads;
  a.writes += b.writes;
  a.bytes_transferred += b.bytes_transferred;
  a.read_latency_ns.merge(b.read_latency_ns);
  a.write_latency_ns.merge(b.write_latency_ns);
  a.queue_delay_ns.merge(b.queue_delay_ns);
  a.dynamic_energy_pj += b.dynamic_energy_pj;
  a.total_bank_busy_ns += b.total_bank_busy_ns;
  // span_ps / background_energy_pj stay untouched: they are derived
  // from the merged window by finalize_slice, never merged.

  a.hybrid = a.hybrid || b.hybrid;
  a.cache_hits += b.cache_hits;
  a.cache_misses += b.cache_misses;
  a.cache_fills += b.cache_fills;
  a.writebacks += b.writebacks;
  a.dram_tier_energy_pj += b.dram_tier_energy_pj;
  a.backend_tier_energy_pj += b.backend_tier_energy_pj;

  a.scheduled = a.scheduled || b.scheduled;
  if (a.sched_policy.empty()) a.sched_policy = b.sched_policy;
  a.sched_queue_delay_ns.merge(b.sched_queue_delay_ns);
  a.service_latency_ns.merge(b.service_latency_ns);
  a.read_queue_occupancy.merge(b.read_queue_occupancy);
  a.write_queue_occupancy.merge(b.write_queue_occupancy);
  a.write_drains += b.write_drains;
  a.drained_writes += b.drained_writes;
  a.drain_stalls += b.drain_stalls;
  a.admit_stalls += b.admit_stalls;

  // Element-wise tenant merge. A lane that never saw tenant k carries
  // an empty breakdown at k-1 (or a shorter vector), and empty-side
  // RunningStats merges are exact — the same argument as the channel
  // lanes themselves.
  if (a.tenants.size() < b.tenants.size()) a.tenants.resize(b.tenants.size());
  for (std::size_t i = 0; i < b.tenants.size(); ++i) {
    TenantBreakdown& ta = a.tenants[i];
    const TenantBreakdown& tb = b.tenants[i];
    ta.reads += tb.reads;
    ta.writes += tb.writes;
    ta.bytes_transferred += tb.bytes_transferred;
    ta.latency_ns.merge(tb.latency_ns);
  }
  // Tenant names, solo baselines, slowdowns, max_slowdown and
  // fairness_index stay untouched: the multi-tenant runner sets them on
  // the final result, after every merge.
}

SimStats finalize_slice(ReplaySlice slice, const DeviceModel& model) {
  SimStats stats = std::move(slice.stats);
  if (slice.fed == 0) return stats;
  stats.span_ps = slice.last_completion_ps - slice.first_arrival_ps;
  // W * ps = 1e-12 J = 1 pJ per (W * ps): power[W] x time[ps] -> pJ.
  stats.background_energy_pj =
      model.energy.background_power_w * static_cast<double>(stats.span_ps);
  // Activity-gated power (dynamic laser management, [43]): charged only
  // for the fraction of time banks are actually busy.
  const int total_banks =
      model.timing.channels * model.timing.banks_per_channel;
  stats.background_energy_pj += model.energy.gateable_background_power_w *
                                static_cast<double>(stats.span_ps) *
                                stats.bank_utilization(total_banks);
  return stats;
}

struct ReplaySession::Impl {
  const MemorySystem& system;
  telemetry::Recorder* const telemetry;  ///< Null on untraced runs.
  int channel = 0;  ///< The one channel served: the first request's.
  std::vector<BankState> banks;
  util::RingQueue<std::uint64_t> inflight_completions;
  std::uint64_t prev_arrival = 0;
  std::uint64_t prev_issue = 0;
  /// Every per-request statistic, and the names from the start: what
  /// finish_slice() returns. Per-tenant breakdowns are indexed tenant-1,
  /// grown on demand and touched only for tagged requests, so untagged
  /// runs never allocate.
  ReplaySlice totals;
  bool finished = false;

  Impl(const MemorySystem& sys, std::string workload_name,
       telemetry::Recorder* recorder)
      : system(sys), telemetry(recorder) {
    const DeviceTiming& t = sys.model().timing;
    totals.stats.device_name = sys.model().name;
    totals.stats.workload_name = std::move(workload_name);
    banks.resize(static_cast<std::size_t>(t.banks_per_channel));
    inflight_completions.reserve(static_cast<std::size_t>(t.queue_depth));
  }

  /// Schedules one placed request; returns its completion time.
  std::uint64_t feed(const Request& req, const RequestPlacement& placement,
                     std::uint64_t issue_ps) {
    const DeviceModel& model = system.model();
    const DeviceTiming& t = model.timing;

    if (totals.fed == 0) channel = placement.channel;
    if (placement.channel != channel) {
      throw std::logic_error("ReplaySession: request for another channel");
    }
    if (issue_ps < prev_issue) {
      throw std::logic_error("ReplaySession: requests issued out of order");
    }
    prev_arrival = req.arrival_ps;
    prev_issue = issue_ps;

    // One request may need several device accesses: large requests span
    // lines, and a device may need several accesses per line (no
    // built-in device does).
    const std::uint64_t accesses =
        system.address_map().lines_needed(req.size_bytes) *
        static_cast<std::uint64_t>(t.accesses_per_line);

    std::uint64_t earliest = issue_ps;
    // Bounded outstanding window: with queue_depth requests in flight,
    // service waits for the oldest to complete.
    if (inflight_completions.size() >=
        static_cast<std::size_t>(t.queue_depth)) {
      earliest = std::max(earliest, inflight_completions.front());
      inflight_completions.pop_front();
    }

    BankState& bank = banks[static_cast<std::size_t>(placement.bank)];
    std::uint64_t start = std::max(earliest, bank.free_ps);
    start = avoid_refresh(start, t);

    // Per-access occupancy, adjusted by the row buffer / region switch.
    std::uint64_t per_access = req.op == Op::kRead ? t.read_occupancy_ps
                                                   : t.write_occupancy_ps;
    if (t.has_row_buffer && bank.open_row == placement.row &&
        per_access > t.row_hit_saving_ps) {
      per_access -= t.row_hit_saving_ps;
    }
    std::uint64_t occupancy = per_access * accesses;
    if (t.region_size_bytes && bank.open_region != placement.region) {
      occupancy += t.region_switch_ps;
    }

    const std::uint64_t busy_until = start + occupancy;
    // Data beats pipeline on the channel link (WDM/MDM links and DDR
    // buses are provisioned to match the banks' burst bandwidth), so the
    // burst contributes latency but never blocks another bank's access.
    const std::uint64_t transfer_end = busy_until + t.burst_ps * accesses;
    const std::uint64_t completion = transfer_end + t.interface_ps;
    // Off-latency-path restore/erase work keeps the bank busy longer.
    const std::uint64_t tail =
        (req.op == Op::kRead ? t.read_tail_ps : t.write_tail_ps) * accesses;
    const std::uint64_t bank_busy_until =
        std::max(transfer_end, busy_until + tail);

    // Commit state.
    bank.free_ps = bank_busy_until;
    bank.open_row = placement.row;
    bank.open_region = placement.region;
    inflight_completions.push_back(completion);

    // Statistics.
    SimStats& stats = totals.stats;
    const double latency_ns =
        static_cast<double>(completion - req.arrival_ps) * 1e-3;
    const double queue_ns =
        static_cast<double>(start - req.arrival_ps) * 1e-3;
    const double bits = static_cast<double>(req.size_bytes) * 8.0;
    totals.first_arrival_ps = totals.fed == 0
                                  ? req.arrival_ps
                                  : std::min(totals.first_arrival_ps,
                                             req.arrival_ps);
    ++totals.fed;
    totals.last_completion_ps =
        std::max(totals.last_completion_ps, completion);
    stats.queue_delay_ns.add(queue_ns);
    stats.total_bank_busy_ns +=
        static_cast<double>(bank_busy_until - start) * 1e-3;
    if (req.op == Op::kRead) {
      ++stats.reads;
      stats.read_latency_ns.add(latency_ns);
      stats.dynamic_energy_pj += bits * model.energy.read_pj_per_bit;
    } else {
      ++stats.writes;
      stats.write_latency_ns.add(latency_ns);
      stats.dynamic_energy_pj += bits * model.energy.write_pj_per_bit;
    }
    stats.bytes_transferred += req.size_bytes;
    if (req.tenant != 0) {
      std::vector<TenantBreakdown>& tenants = stats.tenants;
      if (tenants.size() < req.tenant) tenants.resize(req.tenant);
      TenantBreakdown& tenant = tenants[req.tenant - 1u];
      if (req.op == Op::kRead) {
        ++tenant.reads;
      } else {
        ++tenant.writes;
      }
      tenant.bytes_transferred += req.size_bytes;
      tenant.latency_ns.add(latency_ns);
    }
    if (telemetry) {
      telemetry->record_request(
          channel,
          telemetry::RequestEvent{.id = req.id,
                                  .arrival_ps = req.arrival_ps,
                                  .issue_ps = issue_ps,
                                  .start_ps = start,
                                  .completion_ps = completion,
                                  .bank_busy_until_ps = bank_busy_until,
                                  .size_bytes = req.size_bytes,
                                  .bank = static_cast<std::uint16_t>(
                                      placement.bank),
                                  .tenant = req.tenant,
                                  .op = req.op});
    }
    return completion;
  }

  ReplaySlice finish_slice() {
    finished = true;
    return std::move(totals);
  }
};

ReplaySession::ReplaySession(const MemorySystem& system,
                             std::string workload_name,
                             telemetry::Recorder* telemetry)
    : impl_(std::make_unique<Impl>(system, std::move(workload_name),
                                   telemetry)) {}

ReplaySession::ReplaySession(ReplaySession&&) noexcept = default;
ReplaySession& ReplaySession::operator=(ReplaySession&&) noexcept = default;
ReplaySession::~ReplaySession() = default;

void ReplaySession::feed(const Request& request) {
  if (impl_->finished) {
    throw std::logic_error("ReplaySession: feed() after finish_slice()");
  }
  if (impl_->totals.fed > 0) {
    check_arrival_order(impl_->totals.fed, impl_->prev_arrival,
                        request.arrival_ps);
  }
  impl_->feed(request, impl_->system.address_map().place(request),
              request.arrival_ps);
}

std::uint64_t ReplaySession::feed_issued(const Request& request,
                                         const RequestPlacement& placement,
                                         std::uint64_t issue_ps) {
  if (impl_->finished) {
    throw std::logic_error(
        "ReplaySession: feed_issued() after finish_slice()");
  }
  // Violations here are scheduler bugs, not malformed input traces.
  if (issue_ps < request.arrival_ps) {
    throw std::logic_error(
        "ReplaySession: request issued before its arrival");
  }
#ifndef NDEBUG
  if (placement != impl_->system.address_map().place(request)) {
    throw std::logic_error(
        "ReplaySession: request issued with a stale placement");
  }
#endif
  return impl_->feed(request, placement, issue_ps);
}

std::span<const BankState> ReplaySession::banks() const { return impl_->banks; }

ReplaySlice ReplaySession::finish_slice() {
  if (impl_->finished) {
    throw std::logic_error("ReplaySession: finish_slice() called twice");
  }
  return impl_->finish_slice();
}

MemorySystem::MemorySystem(DeviceModel model)
    : model_(std::move(model)), map_(model_.timing) {
  model_.validate();
}

}  // namespace comet::memsim
