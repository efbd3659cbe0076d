#pragma once

#include <cmath>

#include "util/constants.hpp"

/// Unit conversion helpers. The photonic literature mixes dB, dBm, mW, nm
/// and crystalline fractions freely; every conversion in the codebase goes
/// through these functions so the conventions live in one place.
namespace comet::util {

/// Convert a linear power *ratio* (gain > 1, loss < 1) to decibels.
inline double ratio_to_db(double ratio) { return 10.0 * std::log10(ratio); }

/// Convert decibels to a linear power ratio.
inline double db_to_ratio(double db) { return std::pow(10.0, db / 10.0); }

/// Convert absolute power in milliwatts to dBm.
inline double mw_to_dbm(double mw) { return 10.0 * std::log10(mw); }

/// Convert dBm to absolute power in milliwatts.
inline double dbm_to_mw(double dbm) { return std::pow(10.0, dbm / 10.0); }

/// Transmission (0..1] expressed as a positive insertion loss in dB.
inline double transmission_to_loss_db(double t) { return -ratio_to_db(t); }

/// Positive insertion loss in dB expressed as a transmission factor (0..1].
inline double loss_db_to_transmission(double db) { return db_to_ratio(-db); }

/// Wavelength [nm] to optical frequency [Hz].
inline double wavelength_nm_to_hz(double nm) {
  return kSpeedOfLight / (nm * 1e-9);
}

// --- Time helpers. The memory simulator's native tick is 1 ps so that
// --- photonic (ns) and DRAM (sub-ns) events share one integer timeline.
inline constexpr double kPsPerNs = 1e3;

inline constexpr std::uint64_t ns_to_ps(double ns) {
  return static_cast<std::uint64_t>(ns * kPsPerNs + 0.5);
}
inline constexpr double ps_to_ns(std::uint64_t ps) {
  return static_cast<double>(ps) / kPsPerNs;
}

/// Energy [pJ] from power [mW] over a duration [ns]: mW * ns == pJ.
inline double energy_pj(double power_mw, double duration_ns) {
  return power_mw * duration_ns;
}

/// Energy-per-bit [pJ/bit] from power [W] and a bit rate [bit/s].
inline double epb_pj_per_bit(double power_w, double bits_per_s) {
  return power_w / bits_per_s * 1e12;
}

}  // namespace comet::util
