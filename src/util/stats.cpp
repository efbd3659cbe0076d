#include "util/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

namespace comet::util {

namespace histogram {

namespace {

/// The bucket definition, rounded as written: bucket i >= 1 holds the
/// samples whose position has floor i - 1 (clamped to the last bucket).
double position(double x) {
  return (std::log2(x) - kMinExponent) * static_cast<double>(kSubBuckets);
}

}  // namespace

/// bounds[i] is bisected from position() itself, so lookup and formula
/// agree by construction where the formula is monotone.
BucketTable::BucketTable() {
  // log2 is coarser than x (~40 ulps of x near 2^40), so a bound lies
  // within kSlack ulps of exp2, not at it; the bracket is checked.
  constexpr std::uint64_t kSlack = 64;
  bounds[1] = kLowest;
  bounds[kBuckets] = std::numeric_limits<double>::infinity();
  for (std::size_t i = 2; i < kBuckets; ++i) {
    const double target = static_cast<double>(i - 1);
    const auto reaches = [target](std::uint64_t bits) {
      return position(std::bit_cast<double>(bits)) >= target;
    };
    const auto near = std::bit_cast<std::uint64_t>(
        std::exp2(target / kSubBuckets + kMinExponent));
    std::uint64_t lo = near - kSlack;
    std::uint64_t hi = near + kSlack;
    if (reaches(lo) || !reaches(hi) ||
        !(std::bit_cast<double>(lo) > bounds[i - 1])) {
      throw std::logic_error("RunningStats: histogram bound " +
                             std::to_string(i) + " not bracketed");
    }
    while (hi - lo > 1) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      (reaches(mid) ? hi : lo) = mid;
    }
    bounds[i] = std::bit_cast<double>(hi);
  }
  std::uint16_t bucket = 1;
  for (std::uint64_t bin = 0; bin < kBins; ++bin) {
    const auto edge =
        std::bit_cast<double>((kFirstBin + bin) << (52 - kMantissaBits));
    while (bounds[bucket + 1] <= edge) ++bucket;
    guess[bin] = bucket;
    // histogram_bucket compares a sample with bounds[bucket + 1] only:
    // the next bound must lie at or above the next bin's lower edge.
    const auto next_edge =
        std::bit_cast<double>((kFirstBin + bin + 1) << (52 - kMantissaBits));
    const std::size_t above = std::size_t{bucket} + 2;
    if (above <= kBuckets && bounds[above] < next_edge) {
      throw std::logic_error("RunningStats: histogram bin " +
                             std::to_string(bin) +
                             " spans more than one bucket bound");
    }
  }
}

}  // namespace histogram

namespace {

/// Geometric midpoint of a bucket (its representative value).
double histogram_bucket_value(std::size_t index) {
  if (index == 0) return 0.0;  // caller clamps to min()
  const double lo_exponent =
      histogram::kMinExponent +
      static_cast<double>(index - 1) / histogram::kSubBuckets;
  return std::exp2(lo_exponent + 0.5 / histogram::kSubBuckets);
}

}  // namespace

void RunningStats::allocate_histogram() {
  histogram_.assign(histogram::kBuckets, 0);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  n_ += other.n_;
  sum_ += other.sum_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  for (std::size_t i = 0; i < other.histogram_.size(); ++i) {
    histogram_[i] += other.histogram_[i];
  }
}

bool RunningStats::operator==(const RunningStats& other) const {
  if (n_ != other.n_ || mean_ != other.mean_ || m2_ != other.m2_ ||
      sum_ != other.sum_ || min_ != other.min_ || max_ != other.max_) {
    return false;
  }
  if (histogram_.size() == other.histogram_.size()) {
    return histogram_ == other.histogram_;
  }
  const auto all_zero = [](const std::vector<std::uint64_t>& h) {
    return std::all_of(h.begin(), h.end(),
                       [](std::uint64_t count) { return count == 0; });
  };
  return all_zero(histogram_) && all_zero(other.histogram_);
}

double RunningStats::percentile(double p) const {
  if (n_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 1.0) return max_;
  auto target = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(n_)));
  if (target == 0) target = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < histogram_.size(); ++i) {
    cum += histogram_[i];
    if (cum >= target) {
      const double value = histogram_bucket_value(i);
      return std::min(std::max(value, min_), max_);
    }
  }
  return max_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace comet::util
