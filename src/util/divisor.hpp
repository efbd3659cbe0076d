#pragma once

#include <bit>
#include <cstdint>

namespace comet::util {

/// x / d and x % d for a divisor fixed at construction: a shift and a
/// mask when d is a power of two, else the hardware divide.
struct Divisor {
  explicit Divisor(std::uint64_t divisor)
      : d(divisor),
        shift(std::has_single_bit(d) ? std::countr_zero(d) : -1) {}

  std::uint64_t div(std::uint64_t x) const {
    return shift >= 0 ? x >> shift : x / d;
  }
  std::uint64_t mod(std::uint64_t x) const {
    return shift >= 0 ? x & (d - 1) : x % d;
  }

  std::uint64_t d;
  int shift;  ///< log2(d) when d is a power of two, else -1.
};

}  // namespace comet::util
