#pragma once

#include <string>
#include <vector>

#include "config/experiment.hpp"

/// comet_sim command-line parsing, separated from main() so the parser is
/// unit-testable (tests/test_driver.cpp) and reusable from scripts.
namespace comet::driver {

/// What the command line asks for: the driver's own switches plus the
/// experiment. Every experiment knob lives in `spec` only — a flag is a
/// spelling of its config key (config/knobs.hpp) — so flags and
/// `--config` documents describe runs through one struct.
struct Options {
  bool help = false;             ///< --help was requested.
  bool csv = false;              ///< Emit CSV instead of aligned tables.
  bool list_devices = false;     ///< Print device tokens and exit 0.
  bool list_workloads = false;   ///< Print workload names and exit 0.
  bool list_policies = false;    ///< Print scheduler policies and exit 0.
  std::string json_path;         ///< Non-empty: write machine-readable JSON.
  int threads = 0;               ///< Sweep workers; 0 = hardware threads.
  std::string config;            ///< Non-empty: the --config file `spec`
                                 ///< was read from.
  std::string dump_config;       ///< Non-empty: write the resolved `spec`
                                 ///< here and exit.
  std::string dump_trace;        ///< Non-empty: write the synthesized
                                 ///< trace of the single workload here and
                                 ///< exit (no simulation runs).

  /// The experiment: the --config document, or the document the flags
  /// spell. The reader resolved its device tokens and profile names to
  /// definitions and folded the cache_* keys (--cache-*) into every
  /// hybrid device.
  config::ExperimentSpec spec;
};

/// Parses argv-style arguments (excluding argv[0]). Each knob flag
/// becomes its `[section] key` in a "command line" document (a value's
/// line is its argv position) that config::parse_experiment reads —
/// the reader --config uses. Only the two flags without a key are
/// translated by hand: --tenants (into [tenant.NAME] tables) and
/// --device-file (its [device] table, read once, becomes a [[device]]
/// table that keeps the file as its diagnostics source).
///
/// Throws std::invalid_argument on unknown flags, malformed values,
/// schema violations of the flags (naming the flag), unknown device or
/// workload names, unreadable trace files and conflicting flag
/// combinations; a --config or --device-file document's schema errors
/// propagate as config::toml::ParseError (a std::runtime_error) with
/// their file:line diagnostic.
Options parse_args(const std::vector<std::string>& args);

/// The --help text; the knob section is generated from the knob table.
std::string usage();

/// The --list-policies text: each policy's token and summary, plus the
/// knobs whose applies-to set holds it, as `--flag / key`.
std::string policy_list();

}  // namespace comet::driver
