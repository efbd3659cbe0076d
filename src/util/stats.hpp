#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

/// Streaming statistics used by the memory simulator and the benches.
namespace comet::util {

/// The percentile-histogram geometry and the lookup table behind
/// histogram_bucket. Only histogram_bucket and RunningStats read them.
namespace histogram {

// Log2 buckets with kSubBuckets per octave spanning
// [2^kMinExponent, 2^kMaxExponent), plus one underflow bucket at index
// 0 for samples below the range (including <= 0). Values above the
// range clamp into the last bucket; percentile() clamps its answer to
// [min, max] anyway.
inline constexpr int kSubBuckets = 8;
inline constexpr int kMinExponent = -20;  // ~1e-6
inline constexpr int kMaxExponent = 40;   // ~1e12
inline constexpr std::size_t kBuckets =
    static_cast<std::size_t>((kMaxExponent - kMinExponent) * kSubBuckets) + 1;
/// 2^kMinExponent: the least sample of bucket 1.
inline constexpr double kLowest =
    1.0 / static_cast<double>(std::uint64_t{1} << -kMinExponent);

/// An in-range sample's bin is its exponent and top kMantissaBits
/// mantissa bits, counted from the bin that starts at 2^kMinExponent.
inline constexpr int kMantissaBits = 5;
inline constexpr std::uint64_t kBins =
    std::uint64_t{kMaxExponent - kMinExponent} << kMantissaBits;
inline constexpr std::uint64_t kFirstBin =
    std::uint64_t{1023 + kMinExponent} << kMantissaBits;

/// `guess` holds the bucket of each bin's lower edge; a bin spans at
/// most one bucket bound (the constructor throws std::logic_error
/// otherwise), so one compare against `bounds` finishes a lookup.
/// bounds[i] is the least double of bucket i or above, bisected from
/// the bucket definition itself (see stats.cpp).
struct BucketTable {
  std::array<double, kBuckets + 1> bounds{};  ///< Last is +inf.
  std::array<std::uint16_t, kBins> guess{};

  BucketTable();  ///< Builds the table; defined in stats.cpp.
};

/// The one table, built on first use. A function-local static, so no
/// static initializer of another translation unit can see it unbuilt.
inline const BucketTable& table() {
  static const BucketTable built;
  return built;
}

}  // namespace histogram

/// The percentile-histogram bucket of `x`: 0 below 2^-20 (zero,
/// negatives, NaN), else 1 + floor((log2 x + 20) * 8) rounded as
/// written, clamped to the last bucket (480) from 2^40 up, +inf
/// included. Read from the exponent bits and a table built once per
/// process, with one branchless compare and without calling log2. The
/// one bucket lookup: RunningStats files every sample through it.
inline std::size_t histogram_bucket(double x) {
  if (!(x >= histogram::kLowest)) return 0;  // underflow, <= 0, NaN
  // The sign bit is clear, so the top bits are exponent then mantissa.
  const std::uint64_t bin =
      (std::bit_cast<std::uint64_t>(x) >> (52 - histogram::kMantissaBits)) -
      histogram::kFirstBin;
  if (bin >= histogram::kBins) return histogram::kBuckets - 1;  // inf too
  const histogram::BucketTable& table = histogram::table();
  const std::size_t guess = table.guess[bin];
  return guess + (x >= table.bounds[guess + 1]);
}

/// Welford-style running mean/variance plus min/max, and a fixed-size
/// log2-bucketed histogram (HDR-histogram style: 8 sub-buckets per
/// octave over [2^-20, 2^40), see histogram_bucket) for approximate
/// percentiles — O(1) memory, exactly mergeable. add() is defined here,
/// so each of the simulator's per-request samples costs an inlined
/// update and one table lookup rather than two calls.
class RunningStats {
 public:
  void add(double x) { add(x, histogram_bucket(x)); }

  /// add(x) with its bucket given: `bucket` must be histogram_bucket(x)
  /// for the accumulator to mean what its accessors say. The tests use
  /// it to file samples by an independent oracle's bucket.
  void add(double x, std::size_t bucket) {
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    if (histogram_.empty()) [[unlikely]] allocate_histogram();
    ++histogram_[bucket];
  }

  /// Folds another accumulator into this one (Chan's parallel Welford
  /// combination plus an element-wise histogram sum), as if every
  /// sample of `other` had been add()ed here.
  void merge(const RunningStats& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Population variance; 0 for n < 2.
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Value below which fraction `p` (0..1) of the samples fall, read
  /// from the log-bucketed histogram: accurate to the bucket width
  /// (2^(1/8), i.e. within ~±4.5% of the exact sample) and clamped to
  /// [min(), max()], so constant streams report exact percentiles.
  /// Samples ≤ 0 (or below 2^-20) collapse into one underflow bucket
  /// represented by min(). Returns 0 on an empty accumulator.
  double percentile(double p) const;

  double p50() const { return percentile(0.50); }
  double p95() const { return percentile(0.95); }
  double p99() const { return percentile(0.99); }

  /// Exact equality of the observable state: count, moments, min, max,
  /// sum and every histogram bucket. A never-allocated histogram equals
  /// an all-zero one, so this is not a member-wise comparison.
  bool operator==(const RunningStats& other) const;

 private:
  void allocate_histogram();  ///< The first add()'s all-zero buckets.

  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::vector<std::uint64_t> histogram_;  ///< Allocated on first add().
};

}  // namespace comet::util
