#pragma once

#include <string>
#include <vector>

/// SLO health-gate predicates: the `--assert-slo` / `[slo]` grammar.
///
/// An assertion list is a comma-separated conjunction of predicates,
/// each `metric OP threshold`:
///
///   p99_read_latency_ns<=2500,requests_per_s>=5e6,max_slowdown<=3.0
///
/// This layer owns only the grammar. Metric names are the JSON names of
/// the result-metric table (memsim/metrics.hpp), which validates them
/// when the config is read and evaluates them after the run.
/// Thresholds accept sign, decimals, and scientific notation.
namespace comet::prof {

struct SloPredicate {
  enum class Op { kLe, kGe, kLt, kGt, kEq };

  std::string metric;
  Op op = Op::kLe;
  double threshold = 0.0;

  /// True when `value OP threshold` holds.
  bool holds(double value) const;

  /// The predicate back in source form, e.g. "p99_read_latency_ns<=2500".
  std::string to_string() const;
};

/// Parses a comma-separated predicate list. Throws std::invalid_argument
/// naming the offending predicate on any malformed expression, missing
/// metric name, or non-finite threshold. An empty/blank string yields {}.
std::vector<SloPredicate> parse_slo(const std::string& text);

/// Re-serializes a predicate list to the parse_slo grammar
/// (round-trips: parse_slo(slo_to_string(p)) == p).
std::string slo_to_string(const std::vector<SloPredicate>& predicates);

}  // namespace comet::prof
