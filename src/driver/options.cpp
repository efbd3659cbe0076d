#include "driver/options.hpp"

#include <cctype>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "config/knobs.hpp"
#include "config/serialize.hpp"
#include "driver/registry.hpp"
#include "memsim/trace_gen.hpp"

namespace comet::driver {

namespace {

namespace toml = config::toml;
using config::Knob;
using config::KnobKind;

/// Diagnostics label of the document the flags spell.
const char* const kCommandLine = "command line";

std::uint64_t parse_u64(const std::string& flag, const std::string& value,
                        std::uint64_t max) {
  std::uint64_t parsed = 0;
  try {
    // Digits only: stoull would skip whitespace and accept '-'/'+' signs
    // (wrapping negatives to huge values), so screen the characters first.
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument(value);
    }
    parsed = std::stoull(value);
  } catch (const std::exception&) {
    throw std::invalid_argument(
        flag + " expects a non-negative integer, got '" + value + "'");
  }
  if (parsed > max) {
    throw std::invalid_argument(flag + " value " + value +
                                " exceeds the maximum of " +
                                std::to_string(max));
  }
  return parsed;
}

/// Plain decimal only: no signs, exponents, hex floats, inf/nan or
/// locale surprises — the same strictness as parse_u64.
double parse_decimal(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.find_first_not_of("0123456789.") != std::string::npos ||
      value.find('.') != value.rfind('.') ||
      end != value.c_str() + value.size() || value.empty()) {
    throw std::invalid_argument(
        flag + " expects a non-negative decimal number, got '" + value + "'");
  }
  return parsed;
}

toml::Value make_value(toml::Value::Type type, std::uint64_t line) {
  toml::Value value;
  value.type = type;
  value.line = line;
  return value;
}

toml::Value string_value(const std::string& text, std::uint64_t line) {
  toml::Value value = make_value(toml::Value::Type::kString, line);
  value.str = text;
  return value;
}

toml::Value float_value(double number, std::uint64_t line) {
  toml::Value value = make_value(toml::Value::Type::kFloat, line);
  value.number = number;
  return value;
}

/// The document value `text` spells for `knob`. Only the kind is checked
/// here; ranges and cross-key rules are the section readers' job.
toml::Value knob_value(const Knob& knob, const std::string& text,
                       std::uint64_t line) {
  switch (knob.kind) {
    case KnobKind::kString:
      return string_value(text, line);
    case KnobKind::kDecimal:
      return float_value(parse_decimal(knob.flag, text), line);
    case KnobKind::kFlag: {
      toml::Value value = make_value(toml::Value::Type::kBoolean, line);
      value.boolean = true;
      return value;
    }
    case KnobKind::kInteger:
    case KnobKind::kOptional:
      break;
  }
  toml::Value value = make_value(toml::Value::Type::kInteger, line);
  value.integer =
      static_cast<std::int64_t>(parse_u64(knob.flag, text, INT64_MAX));
  value.number = static_cast<double>(value.integer);
  return value;
}

/// The --tenants list as the [tenant.NAME] tables it abbreviates:
/// `name=workload[:interarrival_ns[:burstiness]]` or `name=@trace-file`.
void add_tenant_tables(toml::Table& tenant, const std::string& list,
                       std::uint64_t line) {
  if (list.empty()) {
    throw std::invalid_argument("--tenants requires a non-empty list");
  }
  const std::string shape =
      "--tenants entries look like name=workload[:interarrival_ns"
      "[:burstiness]] or name=@trace-file";
  tenant.children.clear();  // A repeated --tenants replaces the list.
  std::stringstream entries(list);
  std::string entry;
  while (std::getline(entries, entry, ',')) {
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      throw std::invalid_argument(shape + "; got '" + entry + "'");
    }
    const std::string name = entry.substr(0, eq);
    const std::string body = entry.substr(eq + 1);
    toml::Table stream;
    stream.line = line;
    if (body.front() == '@') {
      if (body.size() == 1) {
        throw std::invalid_argument("--tenants: tenant '" + name +
                                    "': '@' needs a trace-file path");
      }
      stream.values["trace_file"] = string_value(body.substr(1), line);
    } else {
      std::vector<std::string> parts;
      std::stringstream fields(body);
      for (std::string part; std::getline(fields, part, ':');) {
        parts.push_back(part);
      }
      if (parts.empty() || parts.size() > 3) {
        throw std::invalid_argument(shape + "; got '" + entry + "'");
      }
      stream.values["workload"] = string_value(parts[0], line);
      if (parts.size() > 1) {
        stream.values["interarrival_ns"] = float_value(
            parse_decimal("--tenants: interarrival_ns", parts[1]), line);
      }
      if (parts.size() > 2) {
        stream.values["burstiness"] = float_value(
            parse_decimal("--tenants: burstiness", parts[2]), line);
      }
    }
    if (!tenant.children.emplace(name, std::move(stream)).second) {
      throw std::invalid_argument("--tenants: duplicate tenant name '" + name +
                                  "'");
    }
  }
}

/// True when `text[at]` exists and can continue a config key.
bool key_char(const std::string& text, std::size_t at) {
  return at < text.size() &&
         (std::isalnum(static_cast<unsigned char>(text[at])) != 0 ||
          text[at] == '_');
}

/// A schema error in the flags' document, re-spelled for the command
/// line: keys become their flags, and a value's line — its argv
/// position — names the flag that set it. Quoted keys are re-spelled
/// always; bare ones (a section validator's "drain_high_watermark 16
/// exceeds write_queue_depth 8") only when they are snake_case, which
/// no English word in a message is.
std::invalid_argument flag_error(const toml::ParseError& error,
                                 const std::vector<std::string>& args) {
  std::string message = error.message();
  for (const Knob& knob : config::knobs()) {
    const std::string key(knob.key), flag(knob.flag);
    const bool bare = key.find('_') != std::string::npos;
    for (auto at = message.find(key); at != std::string::npos;
         at = message.find(key, at)) {
      const std::size_t end = at + key.size();
      if (at > 0 && message[at - 1] == '\'' && end < message.size() &&
          message[end] == '\'') {
        message.replace(at - 1, key.size() + 2, flag);
        at += flag.size() - 1;
      } else if (bare && (at == 0 || !key_char(message, at - 1)) &&
                 !key_char(message, end)) {
        message.replace(at, key.size(), flag);
        at += flag.size();
      } else {
        at = end;
      }
    }
  }
  if (error.line() > 0 && error.line() <= args.size()) {
    const std::string& arg = args[error.line() - 1];
    const std::string flag = arg.substr(0, arg.find('='));
    if (message.find(flag) == std::string::npos) {
      message = flag + ": " + message;
    }
  }
  return std::invalid_argument(message);
}

/// True when `path` names an openable, readable file. peek() forces a
/// first read, catching paths that open but cannot be read (e.g. a
/// directory, which fopen happily opens on glibc); an empty regular
/// file only sets eofbit and stays valid.
bool file_readable(const std::string& path) {
  std::ifstream probe(path);
  probe.peek();
  return probe.is_open() && !probe.bad();
}

/// Fails every unreadable trace file of the spec at parse time (exit 2),
/// not deep inside a sweep, whichever front end named it. `config` is
/// the --config path, empty for flags.
void check_trace_files(const config::ExperimentSpec& spec,
                       const std::string& config) {
  const auto check = [&](const std::string& path, const std::string& flag,
                         const std::string& key) {
    if (path.empty() || file_readable(path)) return;
    throw std::invalid_argument(
        (config.empty() ? flag : config + ": " + key) + ": cannot open '" +
        path + "'");
  };
  check(spec.trace_file, "--trace-file", "trace_file");
  for (const auto& tenant : spec.tenants) {
    check(tenant.trace_file, "--tenants: tenant '" + tenant.name + "'",
          "[tenant." + tenant.name + "] trace_file");
  }
}

}  // namespace

Options parse_args(const std::vector<std::string>& args) {
  Options opt;
  toml::Document doc;
  doc.source = kCommandLine;
  // First flag that describes the experiment, for the --config conflict
  // diagnostic: a config file owns the whole experiment.
  std::string matrix_flag;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const std::uint64_t line = i + 1;
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(flag + " requires a value");
      }
      return args[++i];
    };
    const auto path = [&]() -> const std::string& {
      const std::string& value = next();
      if (value.empty()) {
        throw std::invalid_argument(flag + " requires a non-empty path");
      }
      return value;
    };
    if (flag == "--help" || flag == "-h") {
      opt.help = true;
      return opt;
    }
    if (flag == "--csv") {
      opt.csv = true;
    } else if (flag == "--list-devices") {
      opt.list_devices = true;
    } else if (flag == "--list-workloads") {
      opt.list_workloads = true;
    } else if (flag == "--list-policies") {
      opt.list_policies = true;
    } else if (flag == "--json") {
      opt.json_path = path();
    } else if (flag == "--threads") {
      opt.threads = static_cast<int>(parse_u64(flag, next(), INT_MAX));
    } else if (flag == "--config") {
      opt.config = path();
    } else if (flag == "--dump-config") {
      opt.dump_config = path();
    } else {
      // Everything else describes the experiment.
      const std::string name = flag.substr(0, flag.find('='));
      const Knob* knob = config::find_knob(name);
      if (knob && (name == flag || knob->kind == KnobKind::kOptional)) {
        std::string text;
        if (knob->kind == KnobKind::kOptional) {
          text = name == flag ? knob->implied : flag.substr(name.size() + 1);
        } else if (knob->kind != KnobKind::kFlag) {
          text = next();
        }
        doc.root.children[knob->section].values[knob->key] =
            knob_value(*knob, text, line);
      } else if (flag == "--tenants") {
        add_tenant_tables(doc.root.children["tenant"], next(), line);
      } else if (flag == "--device-file") {
        // Read once; the table keeps the file as its diagnostics source.
        doc.root.arrays["device"].push_back(config::read_device_file(path()));
      } else if (flag == "--dump-trace") {
        opt.dump_trace = path();
      } else {
        throw std::invalid_argument("unknown flag '" + flag +
                                    "' (see --help)");
      }
      if (matrix_flag.empty()) matrix_flag = name;
    }
  }

  if (!opt.config.empty()) {
    if (!matrix_flag.empty()) {
      throw std::invalid_argument(
          "--config cannot be combined with " + matrix_flag +
          " (the config file defines the whole experiment)");
    }
    opt.spec = config::parse_experiment(toml::parse_file(opt.config),
                                        resolve_device_specs);
  } else {
    // What the flags leave implicit: every device unless --device or
    // --device-file names some, every workload unless --workload,
    // --trace-file or --tenants defines the demand.
    toml::Table& experiment = doc.root.children["experiment"];
    experiment.values["name"] = string_value("cli", 0);
    if (!experiment.values.count("devices") &&
        !doc.root.arrays.count("device")) {
      experiment.values["devices"] = string_value("all", 0);
    }
    if (!experiment.values.count("workloads") &&
        !experiment.values.count("trace_file") &&
        !doc.root.children.count("tenant")) {
      experiment.values["workloads"] = string_value("all", 0);
    }
    try {
      opt.spec = config::parse_experiment(doc, resolve_device_specs);
    } catch (const toml::ParseError& e) {
      if (e.source() != kCommandLine) throw;  // A --device-file's error.
      throw flag_error(e, args);
    }
    opt.spec.source.clear();  // Flag runs name no config file.
  }

  check_trace_files(opt.spec, opt.config);

  if (!opt.dump_trace.empty()) {
    if (!opt.dump_config.empty()) {
      throw std::invalid_argument(
          "--dump-trace and --dump-config cannot be combined");
    }
    if (!opt.spec.tenants.empty() || !opt.spec.trace_file.empty()) {
      throw std::invalid_argument(
          "--dump-trace cannot be combined with --tenants or --trace-file (a "
          "trace file holds one synthesized request stream)");
    }
    if (opt.spec.workloads.size() != 1) {
      throw std::invalid_argument(
          "--dump-trace requires a single --workload (a trace file holds one "
          "request stream, not a matrix)");
    }
  }
  return opt;
}

std::string usage() {
  std::ostringstream os;
  // One option: its spelling in a 25-column gutter, then the help lines.
  const auto option = [&](const std::string& spelling,
                          const std::string& help) {
    std::string margin = "  " + spelling;
    margin.resize(25, ' ');
    std::stringstream lines(help);
    for (std::string line; std::getline(lines, line);
         margin.assign(25, ' ')) {
      os << margin << line << "\n";
    }
  };
  os << "comet_sim — trace-driven sweep driver for the COMET memory study\n"
     << "\n"
     << "Usage: comet_sim [options]\n"
     << "\n"
     << "Experiment options. Each knob flag spells the config key named\n"
     << "under it, so a --config document says the same thing; --config\n"
     << "conflicts with every option in this group.\n";
  for (const Knob& knob : config::knobs()) {
    std::string spelling = knob.flag;
    if (*knob.metavar) {
      spelling += knob.kind == KnobKind::kOptional ? "" : " ";
      spelling += knob.metavar;
    }
    std::string help = knob.help;
    if (knob.policies != 0 && knob.policies != config::kAllPolicies) {
      help += "\npolicy: " + config::policy_names(knob.policies);
    }
    help += "\nconfig: [" + std::string(knob.section) + "] " + knob.key;
    option(spelling, help);
  }
  option("--tenants <list>",
         "multi-tenant run: comma-separated streams\n"
         "name=workload[:interarrival_ns[:burst]]\n"
         "or name=@trace-file, merged into one\n"
         "interleaved run with per-tenant latency,\n"
         "slowdown-vs-alone and Jain fairness stats\n"
         "config: one [tenant.NAME] table per stream");
  option("--device-file <path>",
         "add a device defined in a [device] TOML\n"
         "file to the sweep (repeatable; replaces the\n"
         "default --device all)\n"
         "config: one [[device]] table per file");
  option("--dump-trace <path>",
         "write the synthesized trace for a single\n--workload to <path> and "
         "exit");
  os << "\n--device takes: all";
  for (const auto& name : known_devices()) os << ", " << name;
  os << ", hybrid-all";
  for (const auto& name : known_hybrid_devices()) os << ", " << name;
  os << "\n--workload takes: all";
  for (const auto& profile : memsim::spec_like_profiles()) {
    os << ", " << profile.name;
  }
  os << "\n\nDriver options:\n";
  option("--config <path>",
         "run the experiment described by a TOML\nspec (devices, workloads, "
         "sweep axes)");
  option("--dump-config <path>",
         "write the fully resolved experiment spec\n(config analogue of "
         "--dump-trace) and exit");
  option("--threads N", "sweep worker threads (default: hardware)");
  option("--json <path>", "also write machine-readable JSON");
  option("--csv", "print CSV instead of aligned tables");
  option("--list-devices", "print every device token and exit");
  option("--list-workloads", "print every workload name and exit");
  option("--list-policies",
         "print every scheduling policy (token,\nbehaviour, knobs) and exit");
  option("--help", "this text");
  return os.str();
}

std::string policy_list() {
  std::ostringstream os;
  for (const auto& info : sched::known_policies()) {
    os << info.name << "\n  " << info.summary << "\n  knobs:";
    const char* separator = " ";
    for (const Knob& knob : config::knobs()) {
      if (!(knob.policies & config::policy_bit(info.policy))) continue;
      os << separator << knob.flag << " / " << knob.key;
      separator = ", ";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace comet::driver
