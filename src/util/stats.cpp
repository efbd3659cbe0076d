#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace comet::util {

namespace {

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

std::size_t histogram_bucket(double x) {
  if (!(x >= std::ldexp(1.0, kMinExponent))) return 0;  // underflow, <=0, NaN
  const double pos = (std::log2(x) - kMinExponent) *
                     static_cast<double>(kSubBuckets);
  const auto index = static_cast<std::size_t>(pos) + 1;
  return index < kHistogramBuckets ? index : kHistogramBuckets - 1;
}

/// Geometric midpoint of a bucket (its representative value).
double histogram_bucket_value(std::size_t index) {
  if (index == 0) return 0.0;  // caller clamps to min()
  const double lo_exponent =
      kMinExponent + static_cast<double>(index - 1) / kSubBuckets;
  return std::exp2(lo_exponent + 0.5 / kSubBuckets);
}

}  // namespace

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
  if (histogram_.empty()) histogram_.assign(kHistogramBuckets, 0);
  ++histogram_[histogram_bucket(x)];
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

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  if (!(hi > lo) || buckets == 0) {
    throw std::invalid_argument("Histogram: bad range or bucket count");
  }
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto i = static_cast<std::size_t>((x - lo_) / width);
  if (i >= counts_.size()) i = counts_.size() - 1;
  ++counts_[i];
}

double Histogram::bucket_lo(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bucket_hi(std::size_t i) const {
  return bucket_lo(i + 1);
}

double Histogram::percentile(double p) const {
  if (total_ == 0) return lo_;
  if (p <= 0.0) return lo_;
  if (p >= 1.0) return hi_;
  const double target = p * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (cum >= target) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return bucket_lo(i) + frac * (bucket_hi(i) - bucket_lo(i));
    }
    cum = next;
  }
  return hi_;
}

}  // namespace comet::util
