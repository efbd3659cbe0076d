#include "tenant/multi_source.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace comet::tenant {
namespace {

/// Partition slab width: 1 TiB per tenant, far above any working set
/// the generators address, so slabs never overlap.
constexpr unsigned kPartitionShift = 40;

/// Mean burst length (requests) of the on/off arrival modulation.
/// Lengths are drawn uniformly in [1, 2 * kMeanBurstRequests - 1], so
/// this is the expectation.
constexpr std::uint64_t kMeanBurstRequests = 16;

}  // namespace

std::uint64_t map_partition(std::uint16_t tenant, std::uint64_t address) {
  const std::uint64_t slab_mask = (1ull << kPartitionShift) - 1;
  return (static_cast<std::uint64_t>(tenant) << kPartitionShift) |
         (address & slab_mask);
}

std::uint64_t map_interleave(std::uint16_t tenant, std::uint16_t count,
                             std::uint64_t address,
                             std::uint32_t line_bytes) {
  const std::uint64_t line = address / line_bytes;
  const std::uint64_t offset = address % line_bytes;
  const std::uint64_t shared_line =
      line * count + (static_cast<std::uint64_t>(tenant) - 1);
  return shared_line * line_bytes + offset;
}

PacedSource::PacedSource(std::unique_ptr<memsim::RequestSource> inner,
                         std::uint16_t tenant, std::uint16_t tenant_count,
                         config::TenantMapping mapping,
                         double mean_interarrival_ns, double burstiness,
                         std::uint64_t seed, std::uint32_t line_bytes)
    : inner_(std::move(inner)),
      tenant_(tenant),
      tenant_count_(tenant_count),
      mapping_(mapping),
      mean_ps_(mean_interarrival_ns * 1e3),
      burstiness_(burstiness),
      line_bytes_(line_bytes),
      rng_(seed) {
  if (tenant_ == 0) {
    throw std::invalid_argument("PacedSource: tenant ids are 1-based");
  }
  if (tenant_count_ < tenant_) {
    throw std::invalid_argument(
        "PacedSource: tenant id exceeds the tenant count");
  }
}

std::size_t PacedSource::next_batch(memsim::Request* out, std::size_t max) {
  const std::size_t pulled = inner_->next_batch(out, max);
  for (std::size_t i = 0; i < pulled; ++i) pace(out[i]);
  return pulled;
}

void PacedSource::pace(memsim::Request& req) {
  if (mean_ps_ > 0.0) {
    double gap_ps;
    if (burstiness_ <= 0.0) {
      gap_ps = rng_.next_exponential(mean_ps_);
    } else if (burst_left_ > 0) {
      --burst_left_;
      gap_ps = rng_.next_exponential(mean_ps_ * (1.0 - burstiness_));
    } else {
      // Between bursts: draw the next burst's length, charge the idle
      // gap that keeps the long-run rate at 1/mean despite the
      // compressed in-burst spacing, and emit the burst's first
      // request.
      const std::uint64_t burst =
          1 + rng_.next_below(2 * kMeanBurstRequests - 1);
      gap_ps = rng_.next_exponential(mean_ps_ * burstiness_ *
                                     static_cast<double>(burst));
      burst_left_ = static_cast<int>(burst) - 1;
      gap_ps += rng_.next_exponential(mean_ps_ * (1.0 - burstiness_));
    }
    clock_ps_ += gap_ps;
    req.arrival_ps = static_cast<std::uint64_t>(clock_ps_);
  }
  req.tenant = tenant_;
  req.address = mapping_ == config::TenantMapping::kPartition
                    ? map_partition(tenant_, req.address)
                    : map_interleave(tenant_, tenant_count_, req.address,
                                     line_bytes_);
}

MultiSource::MultiSource(
    std::vector<std::unique_ptr<memsim::RequestSource>> sources) {
  if (sources.empty()) {
    throw std::invalid_argument("MultiSource: need at least one source");
  }
  inputs_.resize(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    inputs_[i].source = std::move(sources[i]);
    inputs_[i].block.resize(memsim::kFeedBlockRequests);
  }
}

bool MultiSource::refill(Input& input) {
  if (input.pos < input.count) return true;
  if (input.exhausted) return false;
  input.pos = 0;
  input.count = input.source->next_batch(input.block.data(),
                                         input.block.size());
  input.exhausted = input.count == 0;
  return !input.exhausted;
}

std::size_t MultiSource::next_batch(memsim::Request* out, std::size_t max) {
  const std::size_t none = inputs_.size();
  std::size_t filled = 0;
  while (filled < max) {
    // The earliest head (ties to the lower index) and the head it must
    // precede: the earliest of the others, again ties to the lower
    // index.
    std::size_t best = none;
    std::size_t rival = none;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      if (!refill(inputs_[i])) continue;
      const std::uint64_t arrival = inputs_[i].head_arrival();
      if (best == none || arrival < inputs_[best].head_arrival()) {
        rival = best;
        best = i;
      } else if (rival == none || arrival < inputs_[rival].head_arrival()) {
        rival = i;
      }
    }
    if (best == none) break;
    // Copy best's requests while each would still win the per-request
    // merge: other heads stay put while best's run is taken.
    Input& input = inputs_[best];
    const std::size_t end =
        input.pos + std::min(input.count - input.pos, max - filled);
    std::size_t pos = input.pos;
    if (rival == none) {
      pos = end;
    } else {
      const std::uint64_t limit = inputs_[rival].head_arrival();
      const bool wins_ties = best < rival;
      for (; pos < end; ++pos) {
        const std::uint64_t arrival = input.block[pos].arrival_ps;
        if (arrival > limit || (arrival == limit && !wins_ties)) break;
      }
    }
    for (; input.pos < pos; ++input.pos) {
      out[filled] = input.block[input.pos];
      out[filled++].id = next_id_++;
    }
  }
  return filled;
}

}  // namespace comet::tenant
