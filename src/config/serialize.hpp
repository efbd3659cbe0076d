#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <iosfwd>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "config/device_spec.hpp"
#include "config/tenant_spec.hpp"
#include "config/toml.hpp"
#include "memsim/trace_gen.hpp"
#include "prof/profiler.hpp"
#include "telemetry/telemetry.hpp"

/// Two-way serialization between the simulator's configuration structs
/// (memsim::DeviceModel, hybrid::TieredConfig, memsim::WorkloadProfile,
/// DeviceSpec) and the TOML-subset documents of the declarative
/// experiment API.
///
/// Reading is schema-checked: unknown keys, wrong value types and
/// out-of-range values all raise toml::ParseError anchored to the
/// offending line. Writing emits every field with round-trip precision,
/// so `parse(write(x)) == x` for any valid spec — the invariant behind
/// `--dump-config`. Device tokens (`base`, an experiment's `devices`)
/// resolve through a DeviceResolver as they are read, so every parsed
/// spec holds definitions only.
namespace comet::config {

/// Maps a device token to the built-in specs it names: one for a single
/// device, several for a group such as `all`. The driver registry's
/// resolve_device_specs is one; pass an empty function where token
/// references must be rejected. Expected to throw std::invalid_argument
/// on unknown tokens.
using DeviceResolver =
    std::function<std::vector<DeviceSpec>(const std::string& token)>;

/// Schema-checking view over one parsed table: typed getters with range
/// checks, consumed-key tracking, and a finish() pass that rejects any
/// key the schema never asked for — with the key's own line number.
/// Getters are idempotent (reading a key twice is fine) and return
/// nullopt for absent keys, so callers layer "present ⇒ override"
/// semantics on top.
class TableReader {
 public:
  /// `section` names the table in diagnostics, e.g. "[device.timing]".
  TableReader(const toml::Table& table, std::string source,
              std::string section);

  const std::string& source() const { return source_; }
  const std::string& section() const { return section_; }

  bool has(const std::string& key) const;

  /// Line of `key` (0 when absent) — for anchoring follow-on errors.
  std::uint64_t key_line(const std::string& key) const;

  std::optional<std::string> get_string(const std::string& key);
  /// A string naming a file; an empty one is rejected.
  std::optional<std::string> get_path(const std::string& key);
  std::optional<bool> get_bool(const std::string& key);
  std::optional<std::int64_t> get_int(const std::string& key,
                                      std::int64_t min, std::int64_t max);
  std::optional<std::uint64_t> get_u64(const std::string& key,
                                       std::uint64_t min = 0,
                                       std::uint64_t max = UINT64_MAX);
  std::optional<double> get_double(const std::string& key, double min,
                                   double max);

  /// Scalar-or-array readers for sweep axes: a single value yields a
  /// one-element vector. Every element is range-checked.
  std::optional<std::vector<std::uint64_t>> get_u64_list(
      const std::string& key, std::uint64_t min = 0,
      std::uint64_t max = UINT64_MAX);
  std::optional<std::vector<std::string>> get_string_list(
      const std::string& key);

  /// A string key through `parse` (a name lookup such as
  /// pattern_from_name); a std::exception it throws fails at the key's
  /// line.
  template <typename Parse>
  auto get_parsed(const std::string& key, Parse&& parse)
      -> std::optional<decltype(parse(std::string()))> {
    const auto text = get_string(key);
    if (!text) return std::nullopt;
    try {
      return parse(*text);
    } catch (const std::exception& e) {
      fail_at(key_line(key), e.what());
    }
  }

  /// Named sub-table, or nullptr when absent. Fails when the key is a
  /// scalar or an array of tables.
  const toml::Table* child(const std::string& key);

  /// `[[key]]` tables, or nullptr when absent.
  const std::vector<toml::Table>* array_of_tables(const std::string& key);

  /// Rejects every key the schema never consumed, naming the first (by
  /// line) unknown key and this section.
  void finish();

  [[noreturn]] void fail(const std::string& message) const;
  [[noreturn]] void fail_at(std::uint64_t line,
                            const std::string& message) const;

 private:
  const toml::Value* find_value(const std::string& key,
                                toml::Value::Type expected);

  const toml::Table& table_;
  std::string source_;
  std::string section_;
  std::set<std::string> consumed_;
};

// --- Pattern names ("streaming", "strided", "random", "pointer_chase",
// --- "mixed") used by workload documents.

const char* pattern_name(memsim::Pattern pattern);

/// Throws std::invalid_argument naming the valid set on unknown names.
memsim::Pattern pattern_from_name(const std::string& name);

// --- Writers. The *_body forms assume the caller has just emitted the
// --- section header (`[prefix]` or `[[prefix]]`) and write the keys
// --- plus any `[prefix.*]` sub-sections; `prefix` is the header path.

void write_device_model_body(std::ostream& os, const memsim::DeviceModel& model,
                             const std::string& prefix);

/// Flat specs: `kind = "flat"` + the model body. Hybrid specs: `kind =
/// "hybrid"` plus [prefix.cache], [prefix.dram] and [prefix.backend].
/// Throws std::logic_error on an empty spec.
void write_device_spec_body(std::ostream& os, const DeviceSpec& spec,
                            const std::string& prefix);

void write_workload_body(std::ostream& os,
                         const memsim::WorkloadProfile& profile);

/// Standalone `[device]` document for one spec — the `--device-file`
/// input format.
std::string device_spec_to_toml(const DeviceSpec& spec);

std::string workload_to_toml(const memsim::WorkloadProfile& profile);

// --- Readers.

/// The specs `resolver` returns for a device `token` read from `key`.
/// An empty resolver and resolver errors (unknown token, etc.) raise
/// toml::ParseError at the key's line.
std::vector<DeviceSpec> resolve_devices(TableReader& reader,
                                        const std::string& key,
                                        const std::string& token,
                                        const DeviceResolver& resolver);

/// Parses one device table (the contents of a `[device]` section or a
/// `[[device]]` element) into a resolved spec. Semantics:
///   - `base = "<token>"` starts from the one spec the resolver returns
///     for that token (a group such as `all` is rejected); all other
///     keys are overrides on top of it.
///   - a flat base (or no base) plus a [cache] section *promotes* the
///     device to a hybrid: the flat model becomes the backend.
///   - hybrid tables take [cache] / [backend] / [dram] sections; the
///     DRAM tier is re-derived when the cache capacity changes
///     (TieredConfig::set_cache), then [dram] keys apply on top.
/// Throws toml::ParseError with source:line on any schema violation and
/// on model validation failures.
DeviceSpec parse_device(const toml::Table& table, const std::string& source,
                        const DeviceResolver& resolver);

/// The `[device]` table of a file holding exactly that section (the
/// `--device-file` format), its `source` set to the path: a document it
/// is spliced into as a `[[device]]` reports the table's errors against
/// the file. Throws toml::ParseError naming the file when it cannot be
/// read, has no `[device]` section or holds other top-level keys.
toml::Table read_device_file(const std::string& path);

/// Parses one workload table; `name` is required, everything else
/// defaults to the WorkloadProfile defaults.
memsim::WorkloadProfile parse_workload(const toml::Table& table,
                                       const std::string& source);

/// Parses a `[controller]` table into the policy axis, the config
/// template and the `run_threads` sharding axis (scalar or array;
/// 0 = one worker per hardware thread). A section holding *only*
/// `run_threads` does not engage scheduling — `policies` stays empty
/// and the replay stays direct, just sharded. `policy` engages it, and
/// every other scheduling key refines it: a queue depth, watermark or
/// fairness key without an explicit `policy`, or one that no policy on
/// the axis uses (the knob table's applies-to sets), is rejected. When
/// only `write_queue_depth` is given, the drain watermarks are
/// re-derived from it (7/8 and 3/8 of a bounded depth) instead of
/// keeping the depth-32 defaults. Schema violations and inconsistent
/// watermarks raise toml::ParseError anchored to the offending line.
void parse_controller_section(const toml::Table& table,
                              const std::string& source,
                              std::vector<sched::Policy>& policies,
                              sched::ControllerConfig& config,
                              std::vector<int>& run_threads);

/// Parses a `[telemetry]` table: `trace_out` (path), `trace_limit`
/// (recorded-event cap, requires trace_out), `metrics_interval_ns`
/// (epoch length of the metrics time-series) and `metrics_csv` (path,
/// requires an interval). Keys override the spec's defaults in place.
/// Schema violations and inconsistent combinations raise
/// toml::ParseError anchored to the offending line.
void parse_telemetry_section(const toml::Table& table,
                             const std::string& source,
                             telemetry::TelemetrySpec& spec);

/// Parses a `[tenant]` table into the multi-tenant stream list: an
/// optional `mapping = "partition" | "interleave"` scalar plus one
/// `[tenant.NAME]` sub-section per stream (keys: `workload` — a
/// built-in profile name —, `trace_file`, `interarrival_ns`,
/// `burstiness`, `requests`). Streams are ordered by name (the TOML
/// subset does not preserve section order), which fixes the 1-based
/// tenant ids and per-tenant seeds deterministically. At least one
/// stream is required; schema violations, unknown profiles and
/// cross-tenant inconsistencies raise toml::ParseError anchored to the
/// offending line.
void parse_tenant_section(const toml::Table& table, const std::string& source,
                          std::vector<TenantSpec>& tenants,
                          TenantMapping& mapping);

/// Parses a `[profile]` table into the host-side observability spec:
/// `enabled` (record the host profile — the `--profile` flag) and
/// `progress_ms` (live heartbeat interval, >= 1 — `--progress=N`).
/// Keys override the spec's defaults in place. Schema violations raise
/// toml::ParseError anchored to the offending line.
void parse_profile_section(const toml::Table& table, const std::string& source,
                           prof::ProfSpec& spec);

/// Parses an `[slo]` table: `assert` — one predicate list string or an
/// array of them (the `--assert-slo` grammar, see prof/slo.hpp),
/// concatenated into the spec's gate set. Malformed predicates and
/// metric names outside the result-metric table (memsim/metrics.hpp)
/// raise toml::ParseError anchored to the offending line.
void parse_slo_section(const toml::Table& table, const std::string& source,
                       prof::ProfSpec& spec);

}  // namespace comet::config
