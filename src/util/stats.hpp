#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

/// Streaming statistics used by the memory simulator and the benches.
namespace comet::util {

/// The percentile-histogram bucket of `x`: 0 below 2^-20 (zero,
/// negatives, NaN), else 1 + floor((log2 x + 20) * 8) rounded as
/// written, clamped to the last bucket (480) from 2^40 up, +inf
/// included. Read from the exponent bits and a table built once per
/// process, without calling log2.
std::size_t histogram_bucket(double x);

/// Welford-style running mean/variance plus min/max, and a fixed-size
/// log2-bucketed histogram (HDR-histogram style: 8 sub-buckets per
/// octave over [2^-20, 2^40), see histogram_bucket) for approximate
/// percentiles — O(1) memory, exactly mergeable, one lookup per add().
class RunningStats {
 public:
  void add(double x);

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
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::vector<std::uint64_t> histogram_;  ///< Allocated on first add().
};

}  // namespace comet::util
