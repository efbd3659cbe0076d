#pragma once

#include <string>
#include <vector>

#include "sched/controller.hpp"

/// The knob table: one row per experiment setting that comet_sim takes
/// both as a flag and as a config-document key. The command line is a
/// second spelling of the document — driver::parse_args turns each
/// flag into its `[section] key` value and hands the result to the same
/// parse_experiment reader `--config` uses — so value types, ranges and
/// cross-key rules live once, in the section readers. The help text,
/// the "matrix flag conflicts with --config" rule and `--list-policies`
/// are derived from the rows. Every experiment flag is a row except
/// --tenants and --device-file, which spell whole tables.
///
/// Rows carry no accessors: the section readers and write_experiment
/// stay hand-written, and the per-knob property test in
/// tests/test_driver.cpp keeps them in step with the table.
namespace comet::config {

/// How a flag spells its value.
enum class KnobKind {
  kInteger,   ///< `--flag N`: plain digits -> TOML integer.
  kDecimal,   ///< `--flag X`: plain decimal -> TOML float.
  kString,    ///< `--flag S` -> TOML string.
  kFlag,      ///< Bare `--flag` -> `key = true`.
  kOptional,  ///< `--flag` or `--flag=N` -> TOML integer (`implied` if bare).
};

constexpr unsigned policy_bit(sched::Policy policy) {
  return 1u << static_cast<unsigned>(policy);
}

/// Every scheduling policy: the applies-to set of the queue depths.
constexpr unsigned kAllPolicies =
    policy_bit(sched::Policy::kFcfs) | policy_bit(sched::Policy::kFrFcfs) |
    policy_bit(sched::Policy::kReadFirst) |
    policy_bit(sched::Policy::kTokenBudget) |
    policy_bit(sched::Policy::kFrFcfsCap);

struct Knob {
  const char* flag;     ///< CLI spelling, e.g. "--requests".
  const char* metavar;  ///< Value placeholder in the help text ("" for kFlag).
  const char* section;  ///< Document section, e.g. "experiment".
  const char* key;      ///< Key inside that section, e.g. "requests".
  KnobKind kind;
  /// Scheduling policies (policy_bit mask) that use the key; 0 for keys
  /// that refine no policy. A [controller] key with a non-zero set
  /// needs an explicit `policy` axis holding at least one of them.
  unsigned policies;
  const char* help;     ///< Help text; '\n' breaks lines.
  const char* implied = nullptr;  ///< kOptional: the value of a bare flag.
};

/// Every row, in help-text order.
const std::vector<Knob>& knobs();

/// The row for a CLI flag, or nullptr.
const Knob* find_knob(const std::string& flag);

/// The row for `[section] key`; throws std::logic_error when absent.
const Knob& knob_for(const std::string& section, const std::string& key);

/// True when the key means something on this policy axis: it refines
/// no policy, or some policy on the axis uses it.
bool applies_to(const Knob& knob, const std::vector<sched::Policy>& axis);

/// "read-first" / "fcfs, frfcfs" — the policy names in a policy_bit mask.
std::string policy_names(unsigned policies);

}  // namespace comet::config
