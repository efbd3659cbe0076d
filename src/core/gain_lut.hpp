#pragma once

#include <vector>

#include "core/comet_config.hpp"
#include "photonics/losses.hpp"

/// Row-loss-aware SOA gain look-up table (paper Sections III.C & IV.A).
///
/// A readout launched from subarray row r passes the EO-tuned access MRs
/// of every row between r and the subarray edge, each adding 0.33 dB of
/// through loss. Intra-subarray SOA stages reset the level every 46 rows;
/// *within* a 46-row span the interface SOA must apply a row-dependent
/// trim gain. Because a b-bit readout only tolerates
/// -10*log10(1 - 2^-b) dB of error (3.01 / 1.2 / 0.26 dB for b=1/2/4),
/// the trim must be refreshed every floor(tolerance / 0.33) rows — which
/// yields the paper's LUT sizes: 5 entries (b=1), 12 (b=2), 46 (b=4).
namespace comet::core {

class GainLut {
 public:
  GainLut(const CometConfig& config,
          const photonics::LossParameters& losses);

  /// Residual loss [dB] accumulated by a signal from row `row` to the
  /// nearest downstream SOA stage.
  double row_loss_db(int row) const;

  /// Trim gain [dB] the interface applies for the given row (quantized
  /// to the LUT entries).
  double gain_db_for_row(int row) const;

  /// LUT entry index used for the given row (the paper's
  /// ceil((rowID % 46) / step) selector).
  int entry_for_row(int row) const;

  /// Number of distinct LUT entries (paper: 5 / 12 / 46 for b=1/2/4).
  int entries() const { return static_cast<int>(gains_db_.size()); }

  /// The b-bit readout loss tolerance [dB].
  double tolerance_db() const { return tolerance_db_; }

 private:
  CometConfig config_;
  photonics::LossParameters losses_;
  double tolerance_db_;
  double rows_per_step_;
  std::vector<double> gains_db_;
};

}  // namespace comet::core
