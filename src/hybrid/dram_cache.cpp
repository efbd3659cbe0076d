#include "hybrid/dram_cache.hpp"

#include <sstream>
#include <stdexcept>

namespace comet::hybrid {

const char* cache_policy_name(bool write_allocate) {
  return write_allocate ? "write-allocate" : "write-no-allocate";
}

bool parse_cache_policy(const std::string& policy) {
  if (policy == cache_policy_name(true)) return true;
  if (policy == cache_policy_name(false)) return false;
  throw std::invalid_argument("unknown cache policy '" + policy +
                              "'; expected write-allocate or "
                              "write-no-allocate");
}

std::uint64_t DramCacheConfig::sets() const {
  const std::uint64_t set_bytes =
      static_cast<std::uint64_t>(line_bytes) * static_cast<std::uint64_t>(ways);
  return set_bytes ? capacity_bytes / set_bytes : 0;
}

void DramCacheConfig::validate() const {
  if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0) {
    throw std::invalid_argument("DramCacheConfig: line size must be 2^k");
  }
  if (ways < 1) {
    throw std::invalid_argument("DramCacheConfig: ways < 1");
  }
  if (capacity_bytes < line_bytes) {
    std::ostringstream msg;
    msg << "DramCacheConfig: capacity (" << capacity_bytes
        << " B) smaller than one line (" << line_bytes << " B)";
    throw std::invalid_argument(msg.str());
  }
  const std::uint64_t set_bytes =
      static_cast<std::uint64_t>(line_bytes) * static_cast<std::uint64_t>(ways);
  if (capacity_bytes < set_bytes || capacity_bytes % set_bytes != 0) {
    throw std::invalid_argument(
        "DramCacheConfig: capacity must be a positive multiple of "
        "line_bytes * ways");
  }
}

namespace {

DramCacheConfig validated(const DramCacheConfig& config) {
  config.validate();
  return config;
}

}  // namespace

DramCache::DramCache(DramCacheConfig config)
    : config_(validated(config)),
      line_(config_.line_bytes),
      sets_(config_.sets()),
      lines_(sets_.d * static_cast<std::uint64_t>(config_.ways)) {}

DramCache::Access DramCache::access(std::uint64_t address, bool is_write) {
  ++tick_;
  const std::uint64_t line_index = line_.div(address);
  const std::uint64_t set = sets_.mod(line_index);
  const std::uint64_t tag = sets_.div(line_index);
  Line* const ways = &lines_[set * static_cast<std::uint64_t>(config_.ways)];

  for (int w = 0; w < config_.ways; ++w) {
    Line& line = ways[w];
    if (line.valid && line.tag == tag) {
      line.last_use = tick_;
      line.dirty = line.dirty || is_write;
      return Access{.hit = true};
    }
  }

  Access result;
  if (is_write && !config_.write_allocate) return result;  // bypass

  // Victim: the first invalid way, otherwise the least-recently used.
  Line* victim = &ways[0];
  for (int w = 1; w < config_.ways && victim->valid; ++w) {
    Line& line = ways[w];
    if (!line.valid || line.last_use < victim->last_use) victim = &line;
  }

  result.fill = true;
  if (victim->valid && victim->dirty) {
    result.writeback = true;
    result.writeback_address =
        (victim->tag * sets_.d + set) * config_.line_bytes;
  }
  victim->tag = tag;
  victim->valid = true;
  // A write-allocated line is born dirty; a read fill is clean.
  victim->dirty = is_write;
  victim->last_use = tick_;
  return result;
}

}  // namespace comet::hybrid
