#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/divisor.hpp"

/// Functional set-associative DRAM cache model for the hybrid tier.
///
/// The cache tracks tags only (no data): the hybrid TieredSystem uses it
/// to split a request stream into DRAM-tier hits/fills and backend
/// misses/writebacks, and the two MemorySystem replays then charge the
/// timing and energy. Replacement is true LRU per set; writes are
/// write-back (a dirty victim is surfaced as a writeback address), and a
/// knob selects write-allocate vs. write-no-allocate on write misses.
namespace comet::hybrid {

struct DramCacheConfig {
  std::uint64_t capacity_bytes = 64ull << 20;  ///< Data capacity.
  int ways = 8;                                ///< Associativity.

  /// Cache-line (fill granularity) size. DRAM caches fetch coarse lines
  /// to convert the backend's spatial locality into tier hits — 2 KB is
  /// the page-based design point (covers every trace_gen stride), far
  /// larger than the 64–128 B demand-request lines.
  std::uint32_t line_bytes = 2048;

  /// Write-miss policy: true fetches the line from the backend and
  /// installs it dirty (write-allocate), false forwards the write to the
  /// backend untouched (write-no-allocate).
  bool write_allocate = true;

  /// Number of sets implied by capacity / (line_bytes * ways).
  std::uint64_t sets() const;

  /// Throws std::invalid_argument on a non-power-of-two line size, a
  /// capacity smaller than one line, non-positive associativity, or a
  /// capacity that does not divide evenly into sets.
  void validate() const;
};

/// The write-miss policy's spelling: "write-allocate" or
/// "write-no-allocate". The --cache-policy flag and the [cache] policy
/// key read and write these.
const char* cache_policy_name(bool write_allocate);

/// Parses a policy spelling to the write_allocate flag; throws
/// std::invalid_argument naming both spellings on anything else.
bool parse_cache_policy(const std::string& policy);

class DramCache {
 public:
  explicit DramCache(DramCacheConfig config);  ///< Validates the config.

  /// Outcome of one line-granular access.
  struct Access {
    bool hit = false;        ///< Line was present (LRU refreshed).
    bool fill = false;       ///< Line was installed on a miss.
    bool writeback = false;  ///< The fill evicted a dirty line.
    std::uint64_t writeback_address = 0;  ///< Victim line address.
  };

  /// Looks up (and on a miss, per policy, installs) the line containing
  /// `address`. Writes mark the line dirty; write misses under
  /// write-no-allocate bypass the cache entirely (no fill).
  Access access(std::uint64_t address, bool is_write);

  const DramCacheConfig& config() const { return config_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
    bool dirty = false;
  };

  DramCacheConfig config_;
  util::Divisor line_;       ///< config_.line_bytes, a power of two.
  util::Divisor sets_;       ///< config_.sets(), any positive count.
  std::uint64_t tick_ = 0;   ///< LRU clock (one per access).
  std::vector<Line> lines_;  ///< sets x ways, row-major by set.
};

}  // namespace comet::hybrid
