#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "config/tenant_spec.hpp"
#include "memsim/request.hpp"
#include "memsim/source.hpp"
#include "util/rng.hpp"

/// Multi-tenant front-end: N independent tenant streams interleaved
/// into the one sorted demand stream every engine already consumes.
///
/// Each tenant stream is an ordinary RequestSource (a trace_gen
/// generator, a trace file, anything) wrapped in a PacedSource that
/// re-times it with an open-loop arrival model, tags every request with
/// the tenant id and maps its addresses into the tenant's slice of the
/// shared space. A MultiSource then merges the wrapped streams by
/// arrival time. Because the merged output is just a sorted, tagged
/// request stream, it composes with flat, tiered, scheduled and sharded
/// engines unchanged — the tags flow through Request::tenant into
/// per-tenant SimStats lanes and telemetry tracks.
///
/// Everything is deterministic: each tenant draws from its own
/// util::Rng seeded from (run seed, tenant index), so adding a tenant
/// never perturbs another's stream, and a tenant replayed alone (the
/// slowdown baseline) sees bit-identical requests to its share of the
/// merged run.
namespace comet::tenant {

/// Maps a tenant-private address into the partitioned shared space:
/// the 1-based tenant id lands above bit 40, giving every tenant a
/// disjoint 1 TiB slab.
std::uint64_t map_partition(std::uint16_t tenant, std::uint64_t address);

/// Maps a tenant-private address line-interleaved over the shared
/// space: line k of tenant t (1-based, of `count`) becomes shared line
/// k * count + (t - 1). Neighbouring tenants' lines alternate, so
/// streams collide in row buffers and GST regions — the adversarial
/// mapping.
std::uint64_t map_interleave(std::uint16_t tenant, std::uint16_t count,
                             std::uint64_t address,
                             std::uint32_t line_bytes);

/// Wraps one tenant's inner stream: re-times arrivals with an open-loop
/// model, tags requests with the tenant id and applies the address
/// mapping. With mean_interarrival_ns > 0 arrivals are re-drawn —
/// burstiness 0 gives exponential (Poisson) gaps; burstiness b in
/// (0, 1) compresses gaps inside bursts by (1 - b) and separates
/// bursts with compensating idle gaps, keeping the average rate. With
/// mean_interarrival_ns == 0 the inner stream's own arrival times pass
/// through untouched (trace tenants keeping native timing).
class PacedSource final : public memsim::RequestSource {
 public:
  /// `tenant` is 1-based; `tenant_count` sizes the interleave stride.
  /// Takes ownership of the inner stream.
  PacedSource(std::unique_ptr<memsim::RequestSource> inner,
              std::uint16_t tenant, std::uint16_t tenant_count,
              config::TenantMapping mapping, double mean_interarrival_ns,
              double burstiness, std::uint64_t seed,
              std::uint32_t line_bytes);

  /// Pulls a block from the inner stream and paces it in place.
  std::size_t next_batch(memsim::Request* out, std::size_t max) override;

 private:
  /// Re-times, tags and maps one request pulled from the inner stream.
  void pace(memsim::Request& req);

  std::unique_ptr<memsim::RequestSource> inner_;
  std::uint16_t tenant_;
  std::uint16_t tenant_count_;
  config::TenantMapping mapping_;
  double mean_ps_;  ///< 0 = keep the inner stream's arrival times.
  double burstiness_;
  std::uint32_t line_bytes_;
  util::Rng rng_;
  double clock_ps_ = 0.0;
  int burst_left_ = 0;
};

/// K-way merge of tenant streams by arrival time (ties broken by
/// source order), re-stamping globally sequential request ids so
/// telemetry ids stay unique across tenants. Inputs must each satisfy
/// the sorted-by-arrival contract; the merged output then does too.
/// The MultiSource owns its inputs. Sources are single-pass, so a
/// MultiSource (like any source) is good for one run.
class MultiSource final : public memsim::RequestSource {
 public:
  /// Throws std::invalid_argument on an empty list.
  explicit MultiSource(
      std::vector<std::unique_ptr<memsim::RequestSource>> sources);

  /// The merge over per-source blocks pulled with next_batch: each step
  /// copies the run of the earliest source's requests that precede
  /// every other head.
  std::size_t next_batch(memsim::Request* out, std::size_t max) override;

 private:
  /// One input's pulled-ahead block; [pos, count) is not merged yet.
  struct Input {
    std::unique_ptr<memsim::RequestSource> source;
    std::vector<memsim::Request> block;
    std::size_t pos = 0;
    std::size_t count = 0;
    bool exhausted = false;

    std::uint64_t head_arrival() const { return block[pos].arrival_ps; }
  };

  /// True when `input` has a head, pulling its next block if needed.
  static bool refill(Input& input);

  std::vector<Input> inputs_;
  std::uint64_t next_id_ = 0;
};

}  // namespace comet::tenant
