#pragma once

#include <cstdint>
#include <vector>

/// Deterministic random number generation. Every stochastic component in
/// the repository (trace generators, corruption models, property tests)
/// draws from this generator with an explicit seed so that all experiments
/// are exactly reproducible across runs and platforms.
namespace comet::util {

/// The inverse-CDF table behind Rng::next_zipf for one (n, s) pair.
///
/// A rank is defined by the subtraction scan over the weights
/// w_i = (i+1)^-s, i in [0, n): starting from u, subtract w_0, w_1, ...
/// in double arithmetic and return the first i whose running value is
/// <= 0 (n - 1 if none is). Every recorded stream, golden and reference
/// in the repository comes from that scan, and scan() keeps it verbatim.
/// It costs O(rank), so rank() asks index() first: an O(1) Chen–Asau
/// indexed search of the prefix sums P_0 = 0, P_{i+1} = fl(P_i + w_i),
/// whose last entry P_n is the total H that u is drawn from. index()
/// answers only where it provably agrees with the scan (proof in
/// rng.cpp), so rank() is bit-identical to the scan for every u.
class ZipfTable {
 public:
  /// index() returns this when u lies within tolerance() of an edge.
  static constexpr std::uint64_t kUnsure = ~std::uint64_t{0};

  /// An empty table (n() == 0) that matches no (n, s) pair; only n()
  /// and s() may be called on it.
  ZipfTable() = default;

  /// Requires n >= 2 and s > 0.
  ZipfTable(std::uint64_t n, double s);

  std::uint64_t n() const { return weights_.size(); }
  double s() const { return s_; }

  /// H = P_n: the draw domain is u in [0, H].
  double total() const { return prefix_.back(); }

  /// n * ulp(H), the bound on how far the scan's running value and the
  /// prefix sums can drift apart.
  double tolerance() const { return tol_; }

  /// P_0 .. P_n (n + 1 entries); P_{i+1} is the upper edge of rank i.
  const std::vector<double>& prefix() const { return prefix_; }

  /// The scan's rank for u in [0, total()], in O(1) expected time.
  std::uint64_t rank(double u) const {
    const std::uint64_t i = index(u);
    return i != kUnsure ? i : scan(u);
  }

  /// The indexed search: the first i with P_{i+1} >= u, or kUnsure when
  /// u is within tolerance() of P_i or P_{i+1}.
  std::uint64_t index(double u) const;

  /// The exact subtraction scan, O(rank).
  std::uint64_t scan(double u) const;

 private:
  // floor(u * G / H) for G = guide_.size(), clamped to the last bucket.
  // Monotone in u, which is all the guide table relies on.
  std::uint64_t bucket(double u) const;

  double s_ = 0.0;
  double tol_ = 0.0;
  double guide_scale_ = 0.0;  // G / H
  std::vector<double> weights_;
  std::vector<double> prefix_;
  // guide_[g]: a lower bound on the rank of every u with bucket g.
  // Empty when the indexed search cannot be set up (n >= 2^32 or a
  // non-finite H); index() then always answers kUnsure.
  std::vector<std::uint32_t> guide_;
};

/// xoshiro256** by Blackman & Vigna — fast, high-quality, and with a
/// stable cross-platform output sequence (unlike std::mt19937 distribution
/// adapters, whose output is implementation-defined).
class Rng {
 public:
  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  /// True with probability p (clamped to [0, 1]).
  bool next_bool(double p);

  /// Standard normal deviate (Box–Muller; consumes two uniforms).
  double next_gaussian();

  /// Exponential deviate with the given mean (> 0).
  double next_exponential(double mean);

  /// Zipf-distributed integer in [0, n) with exponent s >= 0.
  /// Used by trace generators for hot-row/pointer-chase behaviour.
  /// Consumes exactly one next_double() when n > 1 and s > 0.
  std::uint64_t next_zipf(std::uint64_t n, double s);

 private:
  std::uint64_t state_[4];

  // next_zipf's table for the last (n, s) pair, built on the first draw
  // of that pair: trace generators hold (n, s) fixed for millions of
  // draws.
  ZipfTable zipf_;
};

}  // namespace comet::util
