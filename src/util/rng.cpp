#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace comet::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : state_) s = splitmix64(seed);
  // Avoid the (astronomically unlikely) all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Lemire's nearly-divisionless bounded sampling, biased < 2^-64.
#ifdef __SIZEOF_INT128__
  __extension__ typedef unsigned __int128 u128;
  return static_cast<std::uint64_t>((static_cast<u128>(next_u64()) * bound) >>
                                    64);
#else
  // Portable 64x64 -> high-64 multiply; identical result to the u128 path.
  const std::uint64_t x = next_u64();
  const std::uint64_t x_lo = x & 0xffffffffULL, x_hi = x >> 32;
  const std::uint64_t b_lo = bound & 0xffffffffULL, b_hi = bound >> 32;
  const std::uint64_t mid = x_hi * b_lo + ((x_lo * b_lo) >> 32);
  const std::uint64_t mid2 = x_lo * b_hi + (mid & 0xffffffffULL);
  return x_hi * b_hi + (mid >> 32) + (mid2 >> 32);
#endif
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

bool Rng::next_bool(double p) { return next_double() < p; }

double Rng::next_gaussian() {
  double u1 = next_double();
  const double u2 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * std::cos(2.0 * 3.14159265358979323846 * u2);
}

double Rng::next_exponential(double mean) {
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

// Why index() may answer for the scan. Write ulp = ulp(H), the spacing
// of doubles in H's binade, and S_k = w_0 + ... + w_{k-1} exactly.
//  - Every value either side computes lies in [-H, H]: the prefix sums
//    only grow up to P_n = H (fl(x + w) is monotone in x), and the
//    scan's running value u_k = fl(u_{k-1} - w_{k-1}) only falls from
//    u <= H by steps w <= 1 <= H. So each rounding errs by at most
//    ulp / 2, and after k steps |u_k - (u - S_k)| <= k * ulp / 2 and
//    |P_k - S_k| <= k * ulp / 2; hence |u_k - (u - P_k)| <= k * ulp.
//  - index() finds i with P_i < u <= P_{i+1} and accepts it only when
//    fl(u - P_i) > tol and fl(P_{i+1} - u) > tol, tol = n * ulp.
//    Rounding is monotone and tol is a double, so the exact
//    differences exceed tol too.
//  - Then for every step k <= i, P_k <= P_i gives
//    u_k >= u - P_k - k * ulp >= u - P_i - n * ulp > 0: the scan goes
//    on. At step i + 1, u_{i+1} <= u - P_{i+1} + n * ulp < 0: it stops
//    at i.
// So an accepted rank is the scan's rank whatever the guide table says:
// a poor guide entry only lengthens the search or sends the draw to the
// scan. The margin is ~1e-11 at n = 4096, so for the built-in profiles
// the scan runs on a few draws in 10^9.
ZipfTable::ZipfTable(std::uint64_t n, double s)
    : s_(s), weights_(n), prefix_(n + 1) {
  // The left-to-right sum is the scan's H: P_n must equal it bit for bit.
  prefix_[0] = 0.0;
  for (std::uint64_t k = 1; k <= n; ++k) {
    weights_[k - 1] = std::pow(double(k), -s);
    prefix_[k] = prefix_[k - 1] + weights_[k - 1];
  }
  const double h = prefix_[n];
  if (!std::isfinite(h) || n > std::numeric_limits<std::uint32_t>::max()) {
    return;
  }
  tol_ = double(n) * (std::nextafter(h, HUGE_VAL) - h);
  // One guide entry per rank. guide_[g] is the first rank whose upper
  // edge lands in bucket g or later; bucket() is monotone, so no u of
  // bucket g has a smaller rank. The last edge, H, is in the last
  // bucket, so the search for each g stops.
  guide_.resize(n);
  guide_scale_ = double(n) / h;
  std::uint32_t i = 0;
  for (std::uint64_t g = 0; g < n; ++g) {
    while (bucket(prefix_[i + 1]) < g) ++i;
    guide_[g] = i;
  }
}

std::uint64_t ZipfTable::bucket(double u) const {
  return std::min<std::uint64_t>(std::uint64_t(u * guide_scale_),
                                 guide_.size() - 1);
}

std::uint64_t ZipfTable::index(double u) const {
  if (guide_.empty()) return kUnsure;
  std::uint64_t i = guide_[bucket(u)];
  while (prefix_[i + 1] < u) ++i;  // Stops at P_n = H >= u.
  if (u - prefix_[i] > tol_ && prefix_[i + 1] - u > tol_) return i;
  return kUnsure;
}

std::uint64_t ZipfTable::scan(double u) const {
  const std::uint64_t n = weights_.size();
  for (std::uint64_t k = 1; k <= n; ++k) {
    u -= weights_[k - 1];
    if (u <= 0.0) return k - 1;
  }
  return n - 1;
}

std::uint64_t Rng::next_zipf(std::uint64_t n, double s) {
  if (n <= 1) return 0;
  if (s <= 0.0) return next_below(n);
  if (zipf_.n() != n || zipf_.s() != s) zipf_ = ZipfTable(n, s);
  return zipf_.rank(next_double() * zipf_.total());
}

}  // namespace comet::util
