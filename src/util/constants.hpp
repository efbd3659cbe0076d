#pragma once

/// Physical constants and fixed conversion factors used across the COMET
/// material, photonic and architectural models. All values are in SI units
/// unless the name says otherwise.
namespace comet::util {

/// Speed of light in vacuum [m/s].
inline constexpr double kSpeedOfLight = 2.99792458e8;

/// Vacuum permittivity [F/m].
inline constexpr double kVacuumPermittivity = 8.8541878128e-12;

/// pi, to double precision.
inline constexpr double kPi = 3.14159265358979323846;

/// Ambient (chip) temperature assumed by the thermal models [K].
inline constexpr double kAmbientTemperatureK = 300.0;

/// Optical C-band boundaries used throughout the paper [m].
inline constexpr double kCBandLoNm = 1530.0;
inline constexpr double kCBandHiNm = 1565.0;

/// Centre wavelength used for single-wavelength device studies [nm].
inline constexpr double kCBandCentreNm = 1550.0;

}  // namespace comet::util
