#include "config/serialize.hpp"

#include <climits>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "config/knobs.hpp"
#include "memsim/metrics.hpp"

namespace comet::config {

namespace {

/// Re-anchors std::invalid_argument from struct validate() calls to the
/// document location that produced the struct.
template <typename Fn>
void validated(const TableReader& reader, std::uint64_t line, Fn&& fn) {
  try {
    fn();
  } catch (const toml::ParseError&) {
    throw;
  } catch (const std::exception& e) {
    throw toml::ParseError(reader.source(), line, e.what());
  }
}

}  // namespace

TableReader::TableReader(const toml::Table& table, std::string source,
                         std::string section)
    : table_(table), source_(std::move(source)), section_(std::move(section)) {}

bool TableReader::has(const std::string& key) const {
  return table_.values.count(key) || table_.children.count(key) ||
         table_.arrays.count(key);
}

std::uint64_t TableReader::key_line(const std::string& key) const {
  if (auto it = table_.values.find(key); it != table_.values.end()) {
    return it->second.line;
  }
  if (auto it = table_.children.find(key); it != table_.children.end()) {
    return it->second.line;
  }
  if (auto it = table_.arrays.find(key);
      it != table_.arrays.end() && !it->second.empty()) {
    return it->second.front().line;
  }
  return 0;
}

void TableReader::fail(const std::string& message) const {
  throw toml::ParseError(source_, table_.line,
                         section_ + ": " + message);
}

void TableReader::fail_at(std::uint64_t line,
                          const std::string& message) const {
  throw toml::ParseError(source_, line, section_ + ": " + message);
}

const toml::Value* TableReader::find_value(const std::string& key,
                                           toml::Value::Type expected) {
  const auto it = table_.values.find(key);
  if (it == table_.values.end()) {
    if (table_.children.count(key) || table_.arrays.count(key)) {
      fail_at(key_line(key), "'" + key + "' must be a value, not a section");
    }
    return nullptr;
  }
  consumed_.insert(key);
  const toml::Value& value = it->second;
  const bool numeric_ok = expected == toml::Value::Type::kFloat &&
                          value.type == toml::Value::Type::kInteger;
  if (value.type != expected && !numeric_ok) {
    toml::Value expected_probe;
    expected_probe.type = expected;
    fail_at(value.line, "'" + key + "' expects " + expected_probe.type_name() +
                            ", got " + value.type_name());
  }
  return &value;
}

std::optional<std::string> TableReader::get_string(const std::string& key) {
  const toml::Value* v = find_value(key, toml::Value::Type::kString);
  if (!v) return std::nullopt;
  return v->str;
}

std::optional<std::string> TableReader::get_path(const std::string& key) {
  auto path = get_string(key);
  if (path && path->empty()) {
    fail_at(key_line(key), "'" + key + "' must be a non-empty path");
  }
  return path;
}

std::optional<bool> TableReader::get_bool(const std::string& key) {
  const toml::Value* v = find_value(key, toml::Value::Type::kBoolean);
  if (!v) return std::nullopt;
  return v->boolean;
}

std::optional<std::int64_t> TableReader::get_int(const std::string& key,
                                                 std::int64_t min,
                                                 std::int64_t max) {
  const toml::Value* v = find_value(key, toml::Value::Type::kInteger);
  if (!v) return std::nullopt;
  if (v->integer < min || v->integer > max) {
    fail_at(v->line, "'" + key + "' must be between " + std::to_string(min) +
                         " and " + std::to_string(max) + ", got " +
                         std::to_string(v->integer));
  }
  return v->integer;
}

std::optional<std::uint64_t> TableReader::get_u64(const std::string& key,
                                                  std::uint64_t min,
                                                  std::uint64_t max) {
  const toml::Value* v = find_value(key, toml::Value::Type::kInteger);
  if (!v) return std::nullopt;
  if (v->integer < 0) {
    fail_at(v->line, "'" + key + "' must be non-negative, got " +
                         std::to_string(v->integer));
  }
  const auto parsed = static_cast<std::uint64_t>(v->integer);
  if (parsed < min || parsed > max) {
    fail_at(v->line, "'" + key + "' must be between " + std::to_string(min) +
                         " and " + std::to_string(max) + ", got " +
                         std::to_string(parsed));
  }
  return parsed;
}

std::optional<double> TableReader::get_double(const std::string& key,
                                              double min, double max) {
  const toml::Value* v = find_value(key, toml::Value::Type::kFloat);
  if (!v) return std::nullopt;
  if (!std::isfinite(v->number) || v->number < min || v->number > max) {
    std::ostringstream msg;
    msg << "'" << key << "' must be between " << min << " and " << max
        << ", got " << v->number;
    fail_at(v->line, msg.str());
  }
  return v->number;
}

std::optional<std::vector<std::uint64_t>> TableReader::get_u64_list(
    const std::string& key, std::uint64_t min, std::uint64_t max) {
  const auto it = table_.values.find(key);
  if (it == table_.values.end()) {
    if (has(key)) fail_at(key_line(key), "'" + key + "' must be a value");
    return std::nullopt;
  }
  consumed_.insert(key);
  const toml::Value& value = it->second;
  const auto check = [&](const toml::Value& v) -> std::uint64_t {
    if (v.type != toml::Value::Type::kInteger) {
      fail_at(v.line, "'" + key + "' expects an integer or an array of "
                          "integers, got " + std::string(v.type_name()));
    }
    if (v.integer < 0 || static_cast<std::uint64_t>(v.integer) < min ||
        static_cast<std::uint64_t>(v.integer) > max) {
      fail_at(v.line, "'" + key + "' values must be between " +
                          std::to_string(min) + " and " + std::to_string(max) +
                          ", got " + std::to_string(v.integer));
    }
    return static_cast<std::uint64_t>(v.integer);
  };
  std::vector<std::uint64_t> out;
  if (value.type == toml::Value::Type::kArray) {
    if (value.array.empty()) {
      fail_at(value.line, "'" + key + "' must not be an empty array");
    }
    for (const auto& element : value.array) out.push_back(check(element));
  } else {
    out.push_back(check(value));
  }
  return out;
}

std::optional<std::vector<std::string>> TableReader::get_string_list(
    const std::string& key) {
  const auto it = table_.values.find(key);
  if (it == table_.values.end()) {
    if (has(key)) fail_at(key_line(key), "'" + key + "' must be a value");
    return std::nullopt;
  }
  consumed_.insert(key);
  const toml::Value& value = it->second;
  const auto check = [&](const toml::Value& v) -> const std::string& {
    if (v.type != toml::Value::Type::kString) {
      fail_at(v.line, "'" + key + "' expects a string or an array of "
                          "strings, got " + std::string(v.type_name()));
    }
    return v.str;
  };
  std::vector<std::string> out;
  if (value.type == toml::Value::Type::kArray) {
    for (const auto& element : value.array) out.push_back(check(element));
  } else {
    out.push_back(check(value));
  }
  return out;
}

const toml::Table* TableReader::child(const std::string& key) {
  const auto it = table_.children.find(key);
  if (it == table_.children.end()) {
    if (table_.values.count(key) || table_.arrays.count(key)) {
      fail_at(key_line(key), "'" + key + "' must be a [" + key + "] table");
    }
    return nullptr;
  }
  consumed_.insert(key);
  return &it->second;
}

const std::vector<toml::Table>* TableReader::array_of_tables(
    const std::string& key) {
  const auto it = table_.arrays.find(key);
  if (it == table_.arrays.end()) {
    if (table_.values.count(key) || table_.children.count(key)) {
      fail_at(key_line(key),
              "'" + key + "' must be a [[" + key + "]] array of tables");
    }
    return nullptr;
  }
  consumed_.insert(key);
  return &it->second;
}

void TableReader::finish() {
  std::string unknown;
  std::uint64_t best_line = 0;
  const auto consider = [&](const std::string& key, std::uint64_t line) {
    if (consumed_.count(key)) return;
    if (!unknown.empty() && line >= best_line) return;
    unknown = key;
    best_line = line;
  };
  for (const auto& [key, value] : table_.values) consider(key, value.line);
  for (const auto& [key, child_table] : table_.children) {
    consider(key, child_table.line);
  }
  for (const auto& [key, tables] : table_.arrays) {
    consider(key, tables.empty() ? table_.line : tables.front().line);
  }
  if (!unknown.empty()) {
    fail_at(best_line, "unknown key '" + unknown + "'");
  }
}

const char* pattern_name(memsim::Pattern pattern) {
  switch (pattern) {
    case memsim::Pattern::kStreaming: return "streaming";
    case memsim::Pattern::kStrided: return "strided";
    case memsim::Pattern::kRandom: return "random";
    case memsim::Pattern::kPointerChase: return "pointer_chase";
    case memsim::Pattern::kMixed: return "mixed";
  }
  return "random";
}

memsim::Pattern pattern_from_name(const std::string& name) {
  if (name == "streaming") return memsim::Pattern::kStreaming;
  if (name == "strided") return memsim::Pattern::kStrided;
  if (name == "random") return memsim::Pattern::kRandom;
  if (name == "pointer_chase") return memsim::Pattern::kPointerChase;
  if (name == "mixed") return memsim::Pattern::kMixed;
  throw std::invalid_argument(
      "unknown pattern '" + name +
      "'; expected streaming, strided, random, pointer_chase or mixed");
}

// --- Writers -------------------------------------------------------------

namespace {

void write_cache_body(std::ostream& os, const hybrid::DramCacheConfig& cache) {
  os << "capacity_bytes = " << cache.capacity_bytes << "\n"
     << "ways = " << cache.ways << "\n"
     << "line_bytes = " << cache.line_bytes << "\n"
     << "policy = "
     << toml::format_string(hybrid::cache_policy_name(cache.write_allocate))
     << "\n";
}

}  // namespace

void write_device_model_body(std::ostream& os, const memsim::DeviceModel& model,
                             const std::string& prefix) {
  os << "name = " << toml::format_string(model.name) << "\n"
     << "capacity_bytes = " << model.capacity_bytes << "\n";

  const auto& t = model.timing;
  os << "\n[" << prefix << ".timing]\n"
     << "channels = " << t.channels << "\n"
     << "banks_per_channel = " << t.banks_per_channel << "\n"
     << "line_bytes = " << t.line_bytes << "\n"
     << "accesses_per_line = " << t.accesses_per_line << "\n"
     << "read_occupancy_ps = " << t.read_occupancy_ps << "\n"
     << "write_occupancy_ps = " << t.write_occupancy_ps << "\n"
     << "burst_ps = " << t.burst_ps << "\n"
     << "interface_ps = " << t.interface_ps << "\n"
     << "read_tail_ps = " << t.read_tail_ps << "\n"
     << "write_tail_ps = " << t.write_tail_ps << "\n"
     << "has_row_buffer = " << toml::format_boolean(t.has_row_buffer) << "\n"
     << "row_size_bytes = " << t.row_size_bytes << "\n"
     << "row_hit_saving_ps = " << t.row_hit_saving_ps << "\n"
     << "refresh_interval_ps = " << t.refresh_interval_ps << "\n"
     << "refresh_duration_ps = " << t.refresh_duration_ps << "\n"
     << "region_size_bytes = " << t.region_size_bytes << "\n"
     << "region_switch_ps = " << t.region_switch_ps << "\n"
     << "queue_depth = " << t.queue_depth << "\n";

  const auto& e = model.energy;
  os << "\n[" << prefix << ".energy]\n"
     << "read_pj_per_bit = " << toml::format_float(e.read_pj_per_bit) << "\n"
     << "write_pj_per_bit = " << toml::format_float(e.write_pj_per_bit) << "\n"
     << "background_power_w = " << toml::format_float(e.background_power_w)
     << "\n"
     << "gateable_background_power_w = "
     << toml::format_float(e.gateable_background_power_w) << "\n";
}

void write_device_spec_body(std::ostream& os, const DeviceSpec& spec,
                            const std::string& prefix) {
  if (spec.flat) {
    os << "kind = \"flat\"\n";
    write_device_model_body(os, *spec.flat, prefix);
    return;
  }
  if (!spec.tiered) {
    throw std::logic_error(
        "write_device_spec_body: empty spec '" + spec.name +
        "' (neither flat nor tiered is engaged)");
  }
  const auto& tiered = *spec.tiered;
  os << "kind = \"hybrid\"\n"
     << "name = " << toml::format_string(tiered.name) << "\n";
  os << "\n[" << prefix << ".cache]\n";
  write_cache_body(os, tiered.cache);
  os << "\n[" << prefix << ".dram]\n";
  write_device_model_body(os, tiered.dram, prefix + ".dram");
  os << "\n[" << prefix << ".backend]\n";
  write_device_model_body(os, tiered.backend, prefix + ".backend");
}

void write_workload_body(std::ostream& os,
                         const memsim::WorkloadProfile& profile) {
  os << "name = " << toml::format_string(profile.name) << "\n"
     << "pattern = " << toml::format_string(pattern_name(profile.pattern))
     << "\n"
     << "read_fraction = " << toml::format_float(profile.read_fraction) << "\n"
     << "locality = " << toml::format_float(profile.locality) << "\n"
     << "zipf_exponent = " << toml::format_float(profile.zipf_exponent) << "\n"
     << "working_set_bytes = " << profile.working_set_bytes << "\n"
     << "avg_interarrival_ns = "
     << toml::format_float(profile.avg_interarrival_ns) << "\n"
     << "stride_bytes = " << profile.stride_bytes << "\n";
}

std::string device_spec_to_toml(const DeviceSpec& spec) {
  std::ostringstream os;
  os << "[device]\n";
  write_device_spec_body(os, spec, "device");
  return os.str();
}

std::string workload_to_toml(const memsim::WorkloadProfile& profile) {
  std::ostringstream os;
  os << "[workload]\n";
  write_workload_body(os, profile);
  return os.str();
}

// --- Readers -------------------------------------------------------------

namespace {

/// Applies `capacity_bytes` / `capacity_gb` plus the [timing] and
/// [energy] sub-tables of `reader`'s table onto `model`. `include_name`
/// is false when the table's `name` key belongs to an enclosing hybrid,
/// not to this model.
void apply_model_keys(TableReader& reader, memsim::DeviceModel& model,
                      bool include_name) {
  if (include_name) {
    if (auto name = reader.get_string("name")) model.name = *name;
  }
  const bool has_bytes = reader.has("capacity_bytes");
  if (auto v = reader.get_u64("capacity_bytes", 1)) model.capacity_bytes = *v;
  if (auto v = reader.get_u64("capacity_gb", 1, 1ull << 33)) {
    if (has_bytes) {
      reader.fail_at(reader.key_line("capacity_gb"),
                     "'capacity_gb' and 'capacity_bytes' are mutually "
                     "exclusive");
    }
    model.capacity_bytes = *v << 30;
  }

  if (const toml::Table* timing = reader.child("timing")) {
    TableReader t(*timing, reader.source(), reader.section() + ".timing");
    auto& m = model.timing;
    if (auto v = t.get_int("channels", 1, INT_MAX)) m.channels = int(*v);
    if (auto v = t.get_int("banks_per_channel", 1, INT_MAX)) {
      m.banks_per_channel = int(*v);
    }
    if (auto v = t.get_u64("line_bytes", 1, UINT32_MAX)) {
      m.line_bytes = std::uint32_t(*v);
    }
    if (auto v = t.get_int("accesses_per_line", 1, INT_MAX)) {
      m.accesses_per_line = int(*v);
    }
    if (auto v = t.get_u64("read_occupancy_ps")) m.read_occupancy_ps = *v;
    if (auto v = t.get_u64("write_occupancy_ps")) m.write_occupancy_ps = *v;
    if (auto v = t.get_u64("burst_ps")) m.burst_ps = *v;
    if (auto v = t.get_u64("interface_ps")) m.interface_ps = *v;
    if (auto v = t.get_u64("read_tail_ps")) m.read_tail_ps = *v;
    if (auto v = t.get_u64("write_tail_ps")) m.write_tail_ps = *v;
    if (auto v = t.get_bool("has_row_buffer")) m.has_row_buffer = *v;
    if (auto v = t.get_u64("row_size_bytes", 1)) m.row_size_bytes = *v;
    if (auto v = t.get_u64("row_hit_saving_ps")) m.row_hit_saving_ps = *v;
    if (auto v = t.get_u64("refresh_interval_ps")) m.refresh_interval_ps = *v;
    if (auto v = t.get_u64("refresh_duration_ps")) m.refresh_duration_ps = *v;
    if (auto v = t.get_u64("region_size_bytes")) m.region_size_bytes = *v;
    if (auto v = t.get_u64("region_switch_ps")) m.region_switch_ps = *v;
    if (auto v = t.get_int("queue_depth", 1, INT_MAX)) {
      m.queue_depth = int(*v);
    }
    t.finish();
  }

  if (const toml::Table* energy = reader.child("energy")) {
    TableReader e(*energy, reader.source(), reader.section() + ".energy");
    auto& m = model.energy;
    if (auto v = e.get_double("read_pj_per_bit", 0.0, 1e9)) {
      m.read_pj_per_bit = *v;
    }
    if (auto v = e.get_double("write_pj_per_bit", 0.0, 1e9)) {
      m.write_pj_per_bit = *v;
    }
    if (auto v = e.get_double("background_power_w", 0.0, 1e6)) {
      m.background_power_w = *v;
    }
    if (auto v = e.get_double("gateable_background_power_w", 0.0, 1e6)) {
      m.gateable_background_power_w = *v;
    }
    e.finish();
  }
}

/// Resolves a base token to the one device it names.
DeviceSpec resolve_base(TableReader& reader, const DeviceResolver& resolver,
                        const std::string& base) {
  std::vector<DeviceSpec> specs =
      resolve_devices(reader, "base", base, resolver);
  if (specs.size() != 1) {
    reader.fail_at(reader.key_line("base"),
                   "'base' must name one device; '" + base + "' names " +
                       std::to_string(specs.size()));
  }
  return std::move(specs.front());
}

/// Parses a [..backend] table: a flat model, optionally starting from a
/// flat `base` token or from `inherited` (the enclosing hybrid base's
/// backend).
memsim::DeviceModel parse_backend(const toml::Table& table,
                                  const std::string& source,
                                  const std::string& section,
                                  const DeviceResolver& resolver,
                                  const memsim::DeviceModel* inherited) {
  TableReader reader(table, source, section);
  memsim::DeviceModel model;
  if (auto base = reader.get_string("base")) {
    const DeviceSpec spec = resolve_base(reader, resolver, *base);
    if (!spec.flat) {
      reader.fail_at(reader.key_line("base"),
                     "backend base '" + *base +
                         "' must be a flat device, not a hybrid one");
    }
    model = *spec.flat;
  } else if (inherited) {
    model = *inherited;
  }
  apply_model_keys(reader, model, /*include_name=*/true);
  reader.finish();
  return model;
}

void apply_cache_keys(const toml::Table& table, const std::string& source,
                      const std::string& section,
                      hybrid::DramCacheConfig& cache) {
  TableReader reader(table, source, section);
  const bool has_bytes = reader.has("capacity_bytes");
  if (auto v = reader.get_u64("capacity_bytes", 1)) cache.capacity_bytes = *v;
  if (auto v = reader.get_u64("capacity_mb", 1, 1ull << 30)) {
    if (has_bytes) {
      reader.fail_at(reader.key_line("capacity_mb"),
                     "'capacity_mb' and 'capacity_bytes' are mutually "
                     "exclusive");
    }
    cache.capacity_bytes = *v << 20;
  }
  if (auto v = reader.get_int("ways", 1, INT_MAX)) cache.ways = int(*v);
  if (auto v = reader.get_u64("line_bytes", 1, UINT32_MAX)) {
    cache.line_bytes = std::uint32_t(*v);
  }
  if (auto v = reader.get_parsed("policy", hybrid::parse_cache_policy)) {
    cache.write_allocate = *v;
  }
  reader.finish();
}

}  // namespace

std::vector<DeviceSpec> resolve_devices(TableReader& reader,
                                        const std::string& key,
                                        const std::string& token,
                                        const DeviceResolver& resolver) {
  if (!resolver) {
    reader.fail_at(reader.key_line(key),
                   "'" + key +
                       "' references are not available here (no device "
                       "registry to resolve '" + token + "')");
  }
  try {
    return resolver(token);
  } catch (const toml::ParseError&) {
    throw;
  } catch (const std::exception& e) {
    reader.fail_at(reader.key_line(key), e.what());
  }
}

DeviceSpec parse_device(const toml::Table& table, const std::string& source,
                        const DeviceResolver& resolver) {
  TableReader reader(table, source, "[device]");

  DeviceSpec base_spec;
  const auto base = reader.get_string("base");
  if (base) base_spec = resolve_base(reader, resolver, *base);

  const auto kind = reader.get_string("kind");
  if (kind && *kind != "flat" && *kind != "hybrid") {
    reader.fail_at(reader.key_line("kind"),
                   "'kind' must be \"flat\" or \"hybrid\", got \"" + *kind +
                       "\"");
  }

  const toml::Table* cache_table = reader.child("cache");
  const toml::Table* dram_table = reader.child("dram");
  const toml::Table* backend_table = reader.child("backend");

  const bool base_hybrid = base_spec.is_hybrid();
  const bool want_hybrid = base_hybrid || cache_table || dram_table ||
                           backend_table || (kind && *kind == "hybrid");
  if (kind && *kind == "flat" && want_hybrid) {
    reader.fail_at(reader.key_line("kind"),
                   "kind = \"flat\" contradicts the hybrid sections/base of "
                   "this device");
  }

  const auto name = reader.get_string("name");
  if (!base && !name) {
    reader.fail("'name' is required when no 'base' is given");
  }

  if (!want_hybrid) {
    memsim::DeviceModel model =
        base ? *base_spec.flat : memsim::DeviceModel{};
    apply_model_keys(reader, model, /*include_name=*/true);
    reader.finish();
    DeviceSpec spec;
    validated(reader, table.line, [&] {
      model.validate();
      spec = DeviceSpec(std::move(model));
    });
    return spec;
  }

  // --- Hybrid: assemble cache + dram tier + backend.
  // The DRAM tier is derived from the cache capacity (HBM-class model
  // scaled to size) unless the document pins it down explicitly; a
  // hybrid base brings its own.
  hybrid::TieredConfig config;
  config.dram = hybrid::dram_cache_tier_model(config.cache.capacity_bytes);

  if (base_hybrid) {
    config = *base_spec.tiered;
    // Backend fields of a hybrid base belong under [..backend]; loose
    // top-level model keys would be ambiguous between the tiers.
    for (const char* key : {"capacity_bytes", "capacity_gb"}) {
      if (reader.has(key)) {
        reader.fail_at(reader.key_line(key),
                       std::string("'") + key +
                           "' on a hybrid device is ambiguous; set it under "
                           "[..backend] or [..dram]");
      }
    }
    for (const char* key : {"timing", "energy"}) {
      if (reader.has(key)) {
        reader.fail_at(reader.key_line(key),
                       std::string("[..") + key +
                           "] on a hybrid device is ambiguous; configure "
                           "[..backend] or [..dram] instead");
      }
    }
  } else if (base) {
    // A flat base promoted to a hybrid: the flat model is the backend,
    // and top-level model keys configure it directly.
    if (backend_table) {
      reader.fail_at(backend_table->line,
                     "base '" + *base +
                         "' is flat and already provides the backend; "
                         "override its fields at the top level instead of "
                         "[..backend]");
    }
    config.backend = *base_spec.flat;
    apply_model_keys(reader, config.backend, /*include_name=*/false);
  } else {
    if (!backend_table) {
      reader.fail(
          "a hybrid device needs a [..backend] section (or a hybrid 'base')");
    }
  }

  if (backend_table) {
    config.backend = parse_backend(
        *backend_table, source, reader.section() + ".backend", resolver,
        base_hybrid ? &base_spec.tiered->backend : nullptr);
  }

  if (cache_table) {
    hybrid::DramCacheConfig cache = config.cache;
    apply_cache_keys(*cache_table, source, reader.section() + ".cache",
                     cache);
    config.set_cache(cache);
  }
  if (dram_table) {
    TableReader d(*dram_table, source, reader.section() + ".dram");
    apply_model_keys(d, config.dram, /*include_name=*/true);
    d.finish();
  }

  config.name = name ? *name : base_spec.name;
  reader.finish();
  DeviceSpec spec;
  validated(reader, table.line, [&] {
    config.validate();
    spec = DeviceSpec(std::move(config));
  });
  return spec;
}

toml::Table read_device_file(const std::string& path) {
  toml::Document doc = toml::parse_file(path);
  TableReader root(doc.root, doc.source, "device file");
  if (!root.child("device")) {
    root.fail("expected a [device] section");
  }
  root.finish();
  toml::Table device = std::move(doc.root.children.at("device"));
  device.source = doc.source;
  return device;
}

memsim::WorkloadProfile parse_workload(const toml::Table& table,
                                       const std::string& source) {
  TableReader reader(table, source, "[workload]");
  memsim::WorkloadProfile profile;
  if (auto name = reader.get_string("name")) {
    profile.name = *name;
  } else {
    reader.fail("'name' is required");
  }
  if (auto v = reader.get_parsed("pattern", pattern_from_name)) {
    profile.pattern = *v;
  }
  if (auto v = reader.get_double("read_fraction", 0.0, 1.0)) {
    profile.read_fraction = *v;
  }
  if (auto v = reader.get_double("locality", 0.0, 1.0)) profile.locality = *v;
  if (auto v = reader.get_double("zipf_exponent", 0.0, 16.0)) {
    profile.zipf_exponent = *v;
  }
  if (auto v = reader.get_u64("working_set_bytes", 1)) {
    profile.working_set_bytes = *v;
  }
  if (auto v = reader.get_double("avg_interarrival_ns", 1e-6, 1e12)) {
    profile.avg_interarrival_ns = *v;
  }
  if (auto v = reader.get_u64("stride_bytes", 1, UINT32_MAX)) {
    profile.stride_bytes = std::uint32_t(*v);
  }
  reader.finish();
  return profile;
}

void parse_controller_section(const toml::Table& table,
                              const std::string& source,
                              std::vector<sched::Policy>& policies,
                              sched::ControllerConfig& config,
                              std::vector<int>& run_threads) {
  TableReader reader(table, source, "[controller]");
  if (auto threads = reader.get_u64_list("run_threads", 0, INT_MAX)) {
    if (threads->empty()) {
      reader.fail_at(reader.key_line("run_threads"),
                     "'run_threads' must list at least one thread count");
    }
    run_threads.clear();
    for (const auto t : *threads) run_threads.push_back(int(t));
  }
  // A section that only shards (run_threads alone) does not engage the
  // scheduler: the replay stays direct. `policy` does.
  policies.clear();
  if (auto names = reader.get_string_list("policy")) {
    if (names->empty()) {
      reader.fail_at(reader.key_line("policy"),
                     "'policy' must name at least one scheduling policy");
    }
    for (const auto& name : *names) {
      try {
        policies.push_back(sched::policy_from_name(name));
      } catch (const std::exception& e) {
        reader.fail_at(reader.key_line("policy"), e.what());
      }
    }
  }
  // Every other scheduling key refines the policy axis, so it needs one
  // — and some policy on it that uses the key, or the run would
  // silently ignore it.
  for (const Knob& knob : knobs()) {
    if (knob.policies == 0 || std::string(knob.section) != "controller" ||
        !reader.has(knob.key)) {
      continue;
    }
    const std::string key = knob.key;
    if (policies.empty()) {
      reader.fail_at(reader.key_line(key),
                     "'" + key + "' requires 'policy' (it refines the "
                     "scheduling policy axis)");
    }
    if (!applies_to(knob, policies)) {
      reader.fail_at(reader.key_line(key),
                     "'" + key + "' applies to " + policy_names(knob.policies) +
                         " only; no policy on the axis uses it");
    }
  }
  if (policies.empty()) {
    reader.finish();
    return;
  }
  config.policy = policies.front();

  const bool depth_given = reader.has("write_queue_depth");
  if (auto v = reader.get_int("read_queue_depth", 0, INT_MAX)) {
    config.read_queue_depth = int(*v);
  }
  if (auto v = reader.get_int("write_queue_depth", 0, INT_MAX)) {
    config.write_queue_depth = int(*v);
  }
  // A document that bounds the write queue wants watermarks scaled to
  // that bound, not left at the depth-32 defaults; explicit watermark
  // keys below then override the derived values.
  if (depth_given) {
    const auto derived = sched::ControllerConfig::with_depths(
        config.policy, config.read_queue_depth, config.write_queue_depth);
    config.drain_high_watermark = derived.drain_high_watermark;
    config.drain_low_watermark = derived.drain_low_watermark;
  }
  if (auto v = reader.get_int("drain_high_watermark", 1, INT_MAX)) {
    config.drain_high_watermark = int(*v);
  }
  if (auto v = reader.get_int("drain_low_watermark", 0, INT_MAX)) {
    config.drain_low_watermark = int(*v);
  }
  if (auto v = reader.get_int("tenant_tokens", 1, INT_MAX)) {
    config.tenant_tokens = int(*v);
  }
  if (auto v = reader.get_int("starvation_cap", 1, INT_MAX)) {
    config.starvation_cap = int(*v);
  }
  reader.finish();
  validated(reader, table.line, [&] { config.validate(); });
}

void parse_telemetry_section(const toml::Table& table,
                             const std::string& source,
                             telemetry::TelemetrySpec& spec) {
  TableReader reader(table, source, "[telemetry]");
  if (auto v = reader.get_path("trace_out")) spec.trace_path = *v;
  if (auto v = reader.get_u64("trace_limit")) {
    if (spec.trace_path.empty()) {
      reader.fail_at(reader.key_line("trace_limit"),
                     "'trace_limit' requires 'trace_out'; there is no event "
                     "budget to cap without a trace");
    }
    spec.trace_limit = *v;
  }
  // Documents speak nanoseconds (like every other latency knob); the
  // spec stores picoseconds like the replay clock.
  if (auto v = reader.get_u64("metrics_interval_ns", 1, UINT64_MAX / 1000)) {
    spec.metrics_interval_ps = *v * 1000;
  }
  if (auto v = reader.get_path("metrics_csv")) {
    if (spec.metrics_interval_ps == 0) {
      reader.fail_at(reader.key_line("metrics_csv"),
                     "'metrics_csv' requires 'metrics_interval_ns'; there is "
                     "no timeline to write without an epoch length");
    }
    spec.metrics_csv = *v;
  }
  reader.finish();
  validated(reader, table.line, [&] { spec.validate(); });
}

void parse_profile_section(const toml::Table& table, const std::string& source,
                           prof::ProfSpec& spec) {
  TableReader reader(table, source, "[profile]");
  if (auto v = reader.get_bool("enabled")) spec.profile = *v;
  if (auto v = reader.get_u64("progress_ms", 1)) spec.progress_ms = *v;
  reader.finish();
}

void parse_slo_section(const toml::Table& table, const std::string& source,
                       prof::ProfSpec& spec) {
  TableReader reader(table, source, "[slo]");
  if (auto lists = reader.get_string_list("assert")) {
    for (const std::string& text : lists.value()) {
      std::vector<prof::SloPredicate> parsed;
      try {
        parsed = prof::parse_slo(text);
      } catch (const std::exception& e) {
        reader.fail_at(reader.key_line("assert"), e.what());
      }
      for (const prof::SloPredicate& predicate : parsed) {
        try {
          memsim::metric_by_name(predicate.metric);
        } catch (const std::exception& e) {
          reader.fail_at(reader.key_line("assert"),
                         "bad SLO predicate '" + predicate.to_string() +
                             "': " + e.what());
        }
      }
      if (parsed.empty()) {
        reader.fail_at(reader.key_line("assert"),
                       "'assert' needs a predicate list, e.g. "
                       "\"p99_read_latency_ns<=2500,requests_per_s>=5e6\"");
      }
      spec.slo.insert(spec.slo.end(), parsed.begin(), parsed.end());
    }
  }
  reader.finish();
}

void parse_tenant_section(const toml::Table& table, const std::string& source,
                          std::vector<TenantSpec>& tenants,
                          TenantMapping& mapping) {
  TableReader reader(table, source, "[tenant]");
  if (auto v = reader.get_parsed("mapping", tenant_mapping_from_name)) {
    mapping = *v;
  }
  tenants.clear();
  // toml::Table keeps sub-sections name-sorted, so stream order — and
  // with it the 1-based tenant ids and per-tenant seed splits — is the
  // sorted name order regardless of document layout.
  for (const auto& [name, child] : table.children) {
    (void)reader.child(name);  // Mark consumed for reader.finish().
    TableReader t(child, source, "[tenant." + name + "]");
    TenantSpec spec;
    spec.name = name;
    if (auto v = t.get_parsed("workload", memsim::profile_by_name)) {
      spec.profile = *std::move(v);
    }
    if (auto v = t.get_string("trace_file")) spec.trace_file = *v;
    if (auto v = t.get_double("interarrival_ns", 0.0, 1e12)) {
      spec.interarrival_ns = *v;
    }
    if (auto v = t.get_double("burstiness", 0.0, 1.0)) spec.burstiness = *v;
    if (auto v = t.get_u64("requests", 1)) spec.requests = *v;
    t.finish();
    validated(t, child.line, [&] { spec.validate(); });
    tenants.push_back(std::move(spec));
  }
  if (tenants.empty()) {
    reader.fail("a [tenant] section needs at least one [tenant.NAME] stream");
  }
  reader.finish();
  validated(reader, table.line, [&] { validate_tenants(tenants); });
}

}  // namespace comet::config
