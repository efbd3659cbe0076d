#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

/// Small numeric helpers: linear interpolation over tabulated data and an
/// even grid. These back the material dispersion tables and the transient
/// thermal model.
namespace comet::util {

/// A strictly-increasing (x, y) table with linear interpolation and flat
/// extrapolation beyond the ends. Throws std::invalid_argument on
/// construction if x is not strictly increasing or sizes mismatch.
class LinearTable {
 public:
  LinearTable(std::vector<double> x, std::vector<double> y);

  /// Interpolated value at x (clamped to the table range).
  double operator()(double x) const;

  /// First x whose y crosses the given level going upward, or the last x if
  /// never crossed. Requires a (weakly) monotone table for a meaningful
  /// answer; used to invert latency/temperature curves.
  double inverse(double y_level) const;

  std::size_t size() const { return x_.size(); }
  std::span<const double> xs() const { return x_; }
  std::span<const double> ys() const { return y_; }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
};

/// Scalar linear interpolation between two points.
inline double lerp(double x0, double y0, double x1, double y1, double x) {
  if (x1 == x0) return y0;
  return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
}

/// Evenly spaced grid of n points covering [lo, hi] inclusive (n >= 2).
std::vector<double> linspace(double lo, double hi, std::size_t n);

}  // namespace comet::util
