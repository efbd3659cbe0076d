#pragma once

// The oracle for util::histogram_bucket: RunningStats' percentile
// bucket as it was computed before the exponent-bit table, copied here
// so that the tests compare the library against an independent
// transcript of the old log2 formula rather than against itself.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace comet::test {

// Percentile histogram geometry: log2 buckets with kSubBuckets per
// octave spanning [2^kMinExponent, 2^kMaxExponent), plus one underflow
// bucket at index 0 for samples below the range (including <= 0).
// Values above the range clamp into the last bucket; percentile()
// clamps its answer to [min, max] anyway.
constexpr int kSubBuckets = 8;
constexpr int kMinExponent = -20;  // ~1e-6
constexpr int kMaxExponent = 40;   // ~1e12
constexpr std::size_t kHistogramBuckets =
    static_cast<std::size_t>((kMaxExponent - kMinExponent) * kSubBuckets) + 1;

inline std::size_t histogram_bucket(double x) {
  if (!(x >= std::ldexp(1.0, kMinExponent))) return 0;  // underflow, <=0, NaN
  const double pos = (std::log2(x) - kMinExponent) *
                     static_cast<double>(kSubBuckets);
  const auto index = static_cast<std::size_t>(pos) + 1;
  return index < kHistogramBuckets ? index : kHistogramBuckets - 1;
}

/// One seeded sample for the equivalence runs, from an even mix of the
/// shapes RunningStats sees or could see: log-uniform values over the
/// whole histogram range and beyond, integer queue occupancies, ps
/// latencies scaled to ns as the replay engine scales them, and random
/// mantissas at every exponent from 2^-24 to 2^43.
inline double bucket_sample(util::Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
      return std::exp2(-24.0 + 68.0 * rng.next_double());
    case 1:
      return static_cast<double>(rng.next_below(65));
    case 2:
      return static_cast<double>(rng.next_u64() >> rng.next_below(64)) * 1e-3;
    default: {
      const std::uint64_t exponent = 1023 - 24 + rng.next_below(68);
      return std::bit_cast<double>(exponent << 52 | rng.next_u64() >> 12);
    }
  }
}

}  // namespace comet::test
