#pragma once

// The oracle for util::ZipfTable: Rng::next_zipf's sampler as it was
// before the indexed search, copied here so that the tests compare the
// library against an independent transcript of the recorded streams
// rather than against itself.

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "memsim/trace_gen.hpp"
#include "util/rng.hpp"

namespace comet::test {

/// The weights and their left-to-right sum, built exactly as the old
/// memoized table was, and its subtraction scan.
struct ScanZipf {
  double h = 0.0;
  std::vector<double> weights;

  ScanZipf(std::uint64_t n, double s) : weights(n) {
    for (std::uint64_t k = 1; k <= n; ++k) {
      weights[k - 1] = std::pow(double(k), -s);
      h += weights[k - 1];
    }
  }

  std::uint64_t scan(double u) const {
    const std::uint64_t n = weights.size();
    for (std::uint64_t k = 1; k <= n; ++k) {
      u -= weights[k - 1];
      if (u <= 0.0) return k - 1;
    }
    return n - 1;
  }

  /// One draw of the old next_zipf(n, s) for n > 1 and s > 0.
  std::uint64_t draw(util::Rng& rng) const {
    return scan(rng.next_double() * h);
  }
};

/// The distinct Zipf exponents of the built-in profiles (s > 0 only).
inline std::vector<double> profile_exponents() {
  std::set<double> exponents;
  for (const auto& profile : memsim::spec_like_profiles()) {
    if (profile.zipf_exponent > 0.0) exponents.insert(profile.zipf_exponent);
  }
  return {exponents.begin(), exponents.end()};
}

}  // namespace comet::test
