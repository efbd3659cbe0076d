#pragma once

// The oracle for memsim::AddressMap: place_request and its line hash as
// they were before the divisors were precomputed, plus the session's
// lines-needed division, copied here so that the tests compare the
// library against an independent transcript of the old mapping rather
// than against itself.

#include <cstdint>

#include "memsim/device.hpp"
#include "memsim/request.hpp"
#include "memsim/system.hpp"

namespace comet::test {

/// Controller address hash (NVMain-style bank/channel interleaving):
/// spreads hot lines over channels and banks so that Zipf-skewed streams
/// do not serialize on one bank. Applied identically to every device.
inline std::uint64_t mix_line_index(std::uint64_t line) {
  std::uint64_t x = line;
  x ^= x >> 13;
  x *= 0x9e3779b97f4a7c15ULL;
  x ^= x >> 29;
  return x;
}

inline memsim::RequestPlacement place_request(
    const memsim::DeviceTiming& timing, const memsim::Request& request) {
  const std::uint64_t line_index =
      mix_line_index(request.address / timing.line_bytes);
  memsim::RequestPlacement placement;
  placement.channel = static_cast<int>(
      line_index % static_cast<std::uint64_t>(timing.channels));
  placement.bank = static_cast<int>(
      (line_index / static_cast<std::uint64_t>(timing.channels)) %
      static_cast<std::uint64_t>(timing.banks_per_channel));
  placement.row = request.address / timing.row_size_bytes;
  placement.region = timing.region_size_bytes
                         ? request.address / timing.region_size_bytes
                         : 0;
  return placement;
}

/// ReplaySession's line count for one request, as it was computed inline
/// in the session's feed.
inline std::uint64_t lines_needed(const memsim::DeviceTiming& t,
                                  const memsim::Request& req) {
  const std::uint64_t lines_needed =
      (req.size_bytes + t.line_bytes - 1) / t.line_bytes;
  return lines_needed;
}

}  // namespace comet::test
