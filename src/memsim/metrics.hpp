#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "memsim/stats.hpp"
#include "prof/profiler.hpp"
#include "prof/slo.hpp"

/// The result-metric table: one row per scalar result of a finished run.
/// The `--json` record writer, the console metric tables, the `[slo]`
/// name check and the SLO evaluation all read these rows, so a metric
/// has one name (its JSON key), one extractor and one scope.
namespace comet::memsim {

/// Where the `--json` record writes a metric.
enum class MetricPlace {
  kRecord,   ///< Top level of the result record.
  kTenants,  ///< The "tenants" object (multi-tenant records).
  kHost,     ///< The "host" object (--profile records).
  kNone,     ///< Not written; an SLO name only.
};

/// The records a metric means something for. Elsewhere an SLO predicate
/// on it is skipped, never violated, so one gate set serves a mixed
/// sweep, and its console table has no line. The JSON still writes a
/// kRecord row on every record (zeros on a flat device).
enum class MetricScope {
  kAlways,
  kHybrid,       ///< A DRAM cache tier filtered the stream.
  kMultiTenant,  ///< The stream carried tenant-tagged requests.
  kHostTimed,    ///< The job has a host wall time (wall_s > 0).
};

/// One finished job. `host` is its profiler, which holds the job's wall
/// time and request total; without one the host metrics read 0.
struct MetricInput {
  const SimStats& stats;
  const prof::Profiler* host = nullptr;
};

/// A column of the console table of the row's scope: the per-run table
/// (kAlways), the hybrid tier table or the tenant fairness table.
struct MetricColumn {
  const char* header = nullptr;  ///< nullptr: no console column.
  int position = 0;              ///< Left-to-right order in its table.
  int digits = 0;                ///< Precision of a real-valued cell.
  bool sci = false;              ///< Scientific notation for a real.
};

struct Metric {
  /// The extractor's return type is the print kind: an exact count, a
  /// real number or a bool.
  using Extract = std::variant<std::uint64_t (*)(const MetricInput&),
                               double (*)(const MetricInput&),
                               bool (*)(const MetricInput&)>;

  const char* name;  ///< The JSON key, and the `--assert-slo` spelling.
  MetricPlace place;
  MetricScope scope;
  MetricColumn column;
  Extract extract;

  bool applies(const MetricInput& in) const;
  /// The value an SLO threshold is compared with.
  double number(const MetricInput& in) const;
  /// Counts as integers, bools as true/false, reals round-trip exact.
  std::string json(const MetricInput& in) const;
  std::string cell(const MetricInput& in) const;
};

/// Every row. Rows sharing a place are written in table order.
const std::vector<Metric>& metrics();

/// The row named `name`. Throws std::invalid_argument listing every
/// name, plus a "did you mean" when some name contains `name` as a
/// subsequence (`p99_read_ns` suggests `p99_read_latency_ns`).
const Metric& metric_by_name(const std::string& name);

/// One predicate's result against one record.
struct SloOutcome {
  prof::SloPredicate predicate;
  bool applicable = false;  ///< False: outside the scope, so skipped.
  double value = 0.0;
  bool pass = true;  ///< True when skipped or when the predicate holds.
};

/// Evaluates every predicate against one record; throws like
/// metric_by_name for a name no row carries.
std::vector<SloOutcome> evaluate_slo(
    const std::vector<prof::SloPredicate>& predicates, const MetricInput& in);

/// True when any outcome is an applicable failed predicate.
bool slo_violated(const std::vector<SloOutcome>& outcomes);

}  // namespace comet::memsim
