// Config-layer tests: the TOML-subset parser (values, sections, arrays
// of tables, line-numbered diagnostics), two-way device/workload
// serialization (every registry device round-trips through
// --dump-config-equivalent API with identical sweep results), and the
// declarative ExperimentSpec matrix expansion.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/experiment.hpp"
#include "config/serialize.hpp"
#include "config/toml.hpp"
#include "driver/options.hpp"
#include "driver/registry.hpp"
#include "driver/sweep.hpp"

namespace {

using comet::config::DeviceSpec;
using comet::config::ExperimentSpec;
using comet::config::parse_device;
using comet::config::parse_workload;
using comet::driver::make_device_spec;
using comet::driver::resolve_device_specs;
namespace toml = comet::config::toml;

// --- Parser --------------------------------------------------------------

TEST(TomlParser, ScalarsSectionsAndArrays) {
  const auto doc = toml::parse_string(
      "top = 1\n"
      "# a comment\n"
      "[section]\n"
      "text = \"hi # not a comment\"  # trailing comment\n"
      "flag = true\n"
      "ratio = 2.5\n"
      "negative = -7\n"
      "big = 68_719_476_736\n"
      "list = [1, 2, 3]\n"
      "names = [\"a\", \"b\",]\n"
      "[section.nested]\n"
      "depth = 2\n",
      "test");
  const auto& root = doc.root;
  EXPECT_EQ(root.values.at("top").integer, 1);
  const auto& section = root.children.at("section");
  EXPECT_EQ(section.values.at("text").str, "hi # not a comment");
  EXPECT_TRUE(section.values.at("flag").boolean);
  EXPECT_DOUBLE_EQ(section.values.at("ratio").number, 2.5);
  EXPECT_EQ(section.values.at("negative").integer, -7);
  EXPECT_EQ(section.values.at("big").integer, 68719476736);
  EXPECT_EQ(section.values.at("list").array.size(), 3u);
  EXPECT_EQ(section.values.at("names").array[1].str, "b");
  EXPECT_EQ(section.children.at("nested").values.at("depth").integer, 2);
  // Line numbers are recorded for diagnostics.
  EXPECT_EQ(section.values.at("flag").line, 5u);
  EXPECT_EQ(section.line, 3u);
}

TEST(TomlParser, ArrayOfTablesNestsUnderLastElement) {
  const auto doc = toml::parse_string(
      "[[device]]\n"
      "name = \"first\"\n"
      "[device.timing]\n"
      "channels = 4\n"
      "[[device]]\n"
      "name = \"second\"\n"
      "[device.timing]\n"
      "channels = 8\n",
      "test");
  const auto& devices = doc.root.arrays.at("device");
  ASSERT_EQ(devices.size(), 2u);
  EXPECT_EQ(devices[0].values.at("name").str, "first");
  EXPECT_EQ(devices[0].children.at("timing").values.at("channels").integer, 4);
  EXPECT_EQ(devices[1].children.at("timing").values.at("channels").integer, 8);
}

TEST(TomlParser, DiagnosticsCarrySourceAndLine) {
  const auto expect_error = [](const std::string& text,
                               const std::string& fragment,
                               std::uint64_t line) {
    try {
      toml::parse_string(text, "spec.toml");
      FAIL() << "expected ParseError for: " << text;
    } catch (const toml::ParseError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
      EXPECT_NE(std::string(e.what()).find("spec.toml:" +
                                           std::to_string(line)),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_error("a = 1\na = 2\n", "duplicate key", 2);
  expect_error("x = \"unterminated\n", "unterminated string", 1);
  expect_error("\n[bad\n", "malformed section header", 2);
  expect_error("v = what?\n", "unrecognized value", 1);
  expect_error("v = {a = 1}\n", "inline tables", 1);
  expect_error("v = [1, 2\n", "unterminated array", 1);
  expect_error("just words\n", "expected 'key = value'", 1);
  expect_error("[s]\n[s]\n", "duplicate section", 2);
  expect_error("[s]\nk = 1\n[[s]]\n", "conflicts", 3);
  expect_error("a.b = 1\n", "dotted/quoted keys", 1);
}

// --- Device serialization round-trips ------------------------------------

/// Runs one small deterministic job on a spec.
comet::memsim::SimStats probe(const DeviceSpec& spec) {
  comet::driver::SweepJob job;
  job.device = spec;
  job.profile = comet::memsim::profile_by_name("gcc_like");
  job.requests = 600;
  job.seed = 9;
  job.line_bytes = 128;
  return comet::driver::run_job(job);
}

TEST(DeviceSerialization, EveryRegistryDeviceRoundTrips) {
  // The --dump-config invariant: serialize → re-parse (with NO registry
  // resolver, so the dump must be self-contained) → identical structs
  // and bit-identical sweep results.
  std::vector<std::string> tokens = comet::driver::known_devices();
  for (const auto& token : comet::driver::known_hybrid_devices()) {
    tokens.push_back(token);
  }
  for (const auto& token : tokens) {
    const DeviceSpec original = make_device_spec(token);
    const std::string text = comet::config::device_spec_to_toml(original);
    const auto doc = toml::parse_string(text, token + ".toml");
    const DeviceSpec reparsed =
        parse_device(doc.root.children.at("device"), doc.source, nullptr);

    EXPECT_EQ(reparsed.name, original.name) << token;
    EXPECT_EQ(reparsed.is_hybrid(), original.is_hybrid()) << token;
    EXPECT_EQ(reparsed.channels(), original.channels()) << token;
    if (original.is_hybrid()) {
      EXPECT_EQ(reparsed.tiered->cache.capacity_bytes,
                original.tiered->cache.capacity_bytes)
          << token;
      EXPECT_EQ(reparsed.tiered->cache.ways, original.tiered->cache.ways)
          << token;
      EXPECT_EQ(reparsed.tiered->cache.write_allocate,
                original.tiered->cache.write_allocate)
          << token;
      EXPECT_EQ(reparsed.tiered->dram.energy.background_power_w,
                original.tiered->dram.energy.background_power_w)
          << token;
    } else {
      EXPECT_EQ(reparsed.flat->capacity_bytes, original.flat->capacity_bytes)
          << token;
      EXPECT_EQ(reparsed.flat->energy.read_pj_per_bit,
                original.flat->energy.read_pj_per_bit)
          << token;
    }
    EXPECT_TRUE(probe(reparsed) == probe(original)) << token;
  }
}

TEST(DeviceSerialization, UnknownKeyNamesLineAndSection) {
  const std::string text =
      "[device]\n"
      "name = \"x\"\n"
      "capacity_bytes = 1073741824\n"
      "[device.timing]\n"
      "chanels = 4\n";  // Typo.
  const auto doc = toml::parse_string(text, "bad.toml");
  try {
    parse_device(doc.root.children.at("device"), doc.source, nullptr);
    FAIL();
  } catch (const toml::ParseError& e) {
    EXPECT_EQ(e.line(), 5u) << e.what();
    EXPECT_NE(std::string(e.what()).find("unknown key 'chanels'"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("[device].timing"),
              std::string::npos)
        << e.what();
  }
}

TEST(DeviceSerialization, BadTypeAndOutOfRangeDiagnostics) {
  const auto expect_device_error = [](const std::string& body,
                                      const std::string& fragment,
                                      std::uint64_t line) {
    const auto doc = toml::parse_string(body, "bad.toml");
    try {
      parse_device(doc.root.children.at("device"), doc.source,
                   resolve_device_specs);
      FAIL() << "expected error containing: " << fragment;
    } catch (const toml::ParseError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_device_error(
      "[device]\nbase = \"comet\"\n[device.timing]\nchannels = \"four\"\n",
      "'channels' expects integer, got string", 4);
  expect_device_error(
      "[device]\nbase = \"comet\"\n[device.timing]\nchannels = 0\n",
      "'channels' must be between 1 and", 4);
  expect_device_error("[device]\nbase = \"sram\"\n", "unknown device 'sram'",
                      2);
  expect_device_error("[device]\ncapacity_bytes = 1024\n",
                      "'name' is required", 1);
  expect_device_error(
      "[device]\nbase = \"comet\"\n[device.cache]\npolicy = \"lru\"\n",
      "unknown cache policy 'lru'", 4);
  expect_device_error(
      "[device]\nname = \"h\"\nkind = \"flat\"\n[device.cache]\n"
      "capacity_mb = 64\n",
      "contradicts", 3);
  // No device model stripes a line across banks: a file that asks for
  // it fails at the key's line instead of being silently ignored.
  expect_device_error(
      "[device]\nbase = \"comet\"\n[device.timing]\n"
      "line_striped_across_banks = true\n",
      "unknown key 'line_striped_across_banks'", 4);
  // Validation failures are re-anchored to the document too.
  expect_device_error(
      "[device]\nbase = \"comet\"\n[device.timing]\nline_bytes = 96\n",
      "line size must be 2^k", 1);
}

TEST(DeviceSerialization, BaseMustNameOneDevice) {
  const std::pair<std::string, std::string> groups[] = {{"all", "7"},
                                                        {"hybrid-all", "5"}};
  for (const auto& [token, count] : groups) {
    const auto doc = toml::parse_string(
        "[device]\nname = \"g\"\nbase = \"" + token + "\"\n", "g.toml");
    try {
      (void)parse_device(doc.root.children.at("device"), doc.source,
                         resolve_device_specs);
      FAIL() << "expected a ParseError for base " << token;
    } catch (const toml::ParseError& e) {
      EXPECT_EQ(e.line(), 3u) << e.what();
      EXPECT_NE(std::string(e.what()).find("'base' must name one device; '" +
                                           token + "' names " + count),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(DeviceSerialization, FlatBasePromotesToHybrid) {
  // base = "comet" + [cache] is exactly the registry's own hybrid-comet
  // expressed by a user: the two must be indistinguishable.
  const std::string text =
      "[device]\n"
      "name = \"hybrid-comet\"\n"
      "base = \"comet\"\n"
      "[device.cache]\n"
      "capacity_mb = 64\n";
  const auto doc = toml::parse_string(text, "user.toml");
  const DeviceSpec user =
      parse_device(doc.root.children.at("device"), doc.source,
                   resolve_device_specs);
  ASSERT_TRUE(user.is_hybrid());
  EXPECT_TRUE(probe(user) == probe(make_device_spec("hybrid-comet")));
}

TEST(DeviceSerialization, HybridBaseOverridesRebuildDramTier) {
  const std::string text =
      "[device]\n"
      "name = \"big-cache\"\n"
      "base = \"hybrid-comet\"\n"
      "[device.cache]\n"
      "capacity_mb = 128\n";
  const auto doc = toml::parse_string(text, "user.toml");
  const DeviceSpec spec = parse_device(doc.root.children.at("device"),
                                       doc.source, resolve_device_specs);
  ASSERT_TRUE(spec.is_hybrid());
  EXPECT_EQ(spec.name, "big-cache");
  EXPECT_EQ(spec.tiered->cache.capacity_bytes, 128ull << 20);
  // The DRAM tier is re-derived from the new capacity.
  EXPECT_EQ(spec.tiered->dram.capacity_bytes, 128ull << 20);
  // Backend fields on a hybrid must go under [..backend].
  const std::string ambiguous =
      "[device]\nbase = \"hybrid-comet\"\n[device.timing]\nchannels = 4\n";
  const auto bad = toml::parse_string(ambiguous, "user.toml");
  EXPECT_THROW(parse_device(bad.root.children.at("device"), bad.source,
                            resolve_device_specs),
               toml::ParseError);
}

TEST(DeviceSerialization, BackendSectionOverridesBackendModel) {
  const std::string text =
      "[device]\n"
      "name = \"custom\"\n"
      "base = \"hybrid-comet\"\n"
      "[device.backend]\n"
      "[device.backend.timing]\n"
      "channels = 32\n";
  const auto doc = toml::parse_string(text, "user.toml");
  const DeviceSpec spec = parse_device(doc.root.children.at("device"),
                                       doc.source, resolve_device_specs);
  EXPECT_EQ(spec.channels(), 32);
  // The cache geometry is untouched.
  EXPECT_EQ(spec.tiered->cache.capacity_bytes,
            make_device_spec("hybrid-comet").tiered->cache.capacity_bytes);
}

TEST(WorkloadSerialization, EveryProfileRoundTrips) {
  for (const auto& profile : comet::memsim::spec_like_profiles()) {
    const std::string text = comet::config::workload_to_toml(profile);
    const auto doc = toml::parse_string(text, profile.name + ".toml");
    const auto reparsed =
        parse_workload(doc.root.children.at("workload"), doc.source);
    EXPECT_EQ(reparsed.name, profile.name);
    EXPECT_EQ(reparsed.pattern, profile.pattern) << profile.name;
    EXPECT_EQ(reparsed.read_fraction, profile.read_fraction) << profile.name;
    EXPECT_EQ(reparsed.locality, profile.locality) << profile.name;
    EXPECT_EQ(reparsed.zipf_exponent, profile.zipf_exponent) << profile.name;
    EXPECT_EQ(reparsed.working_set_bytes, profile.working_set_bytes)
        << profile.name;
    EXPECT_EQ(reparsed.avg_interarrival_ns, profile.avg_interarrival_ns)
        << profile.name;
    EXPECT_EQ(reparsed.stride_bytes, profile.stride_bytes) << profile.name;
  }
}

TEST(WorkloadSerialization, RangeAndPatternDiagnostics) {
  const auto expect_workload_error = [](const std::string& body,
                                        const std::string& fragment) {
    const auto doc = toml::parse_string(body, "w.toml");
    try {
      parse_workload(doc.root.children.at("workload"), doc.source);
      FAIL() << "expected error containing: " << fragment;
    } catch (const toml::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_workload_error("[workload]\npattern = \"zigzag\"\n",
                        "'name' is required");
  expect_workload_error(
      "[workload]\nname = \"w\"\npattern = \"zigzag\"\n",
      "unknown pattern 'zigzag'");
  expect_workload_error(
      "[workload]\nname = \"w\"\nread_fraction = 1.5\n",
      "'read_fraction' must be between 0 and 1");
}

// --- Experiment API ------------------------------------------------------

TEST(ExperimentApi, BuilderValidates) {
  ExperimentSpec spec;
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // No devices.
  spec.devices = resolve_device_specs("comet");
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // No demand.
  spec.workloads = {comet::memsim::profile_by_name("gcc_like")};
  spec.trace_file = "x.trace";
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // Two demands.
  spec.trace_file.clear();
  spec.requests.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // Empty axis.
  spec.requests = {20000};
  spec.name = "ok";
  spec.channels = {4, 8};
  EXPECT_NO_THROW(spec.validate());
}

TEST(ExperimentApi, AxesMultiplyTheMatrix) {
  ExperimentSpec spec;
  spec.devices = {make_device_spec("comet"), make_device_spec("epcm")};
  spec.workloads = {comet::memsim::profile_by_name("gcc_like")};
  spec.channels = {0, 4};
  spec.requests = {500, 1000};
  spec.seeds = {1, 2, 3};
  const auto jobs = comet::driver::build_matrix(spec);
  EXPECT_EQ(jobs.size(), 2u * 2u * 1u * 2u * 3u);
  // Nesting order: devices × channels × workloads × requests × seeds.
  EXPECT_EQ(jobs[0].seed, 1u);
  EXPECT_EQ(jobs[1].seed, 2u);
  EXPECT_EQ(jobs[3].requests, 1000u);
  EXPECT_EQ(jobs[0].device.name, jobs[11].device.name);
  EXPECT_NE(jobs[0].device.name, jobs[12].device.name);
  // channels = 0 keeps the device topology; 4 overrides it.
  EXPECT_EQ(jobs[6].device.channels(), 4);
}

TEST(ExperimentApi, ParseExperimentDocument) {
  const std::string text =
      "[experiment]\n"
      "name = \"demo\"\n"
      "devices = [\"comet\", \"hybrid-comet\"]\n"
      "workloads = [\"gcc_like\"]\n"
      "requests = 400\n"
      "seed = [7, 8]\n"
      "\n"
      "[[device]]\n"
      "name = \"comet-16ch\"\n"
      "base = \"comet\"\n"
      "[device.timing]\n"
      "channels = 16\n"
      "\n"
      "[[workload]]\n"
      "name = \"scan\"\n"
      "pattern = \"streaming\"\n"
      "read_fraction = 0.5\n";
  const auto spec = comet::config::parse_experiment(
      toml::parse_string(text, "demo.toml"), resolve_device_specs);
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.source, "demo.toml");
  // Names resolve as they are read, ahead of the inline definitions.
  ASSERT_EQ(spec.devices.size(), 3u);
  EXPECT_EQ(spec.devices[2].channels(), 16);
  ASSERT_EQ(spec.workloads.size(), 2u);
  EXPECT_EQ(spec.workloads[1].name, "scan");

  const auto jobs = comet::driver::build_matrix(spec);
  // (2 tokens + 1 inline) devices × (1 named + 1 inline) workloads × 2
  // seeds, tokens/names expanding before inline definitions.
  EXPECT_EQ(jobs.size(), 3u * 2u * 2u);
  EXPECT_EQ(jobs[0].device.name, make_device_spec("comet").name);
  EXPECT_EQ(jobs.back().device.name, "comet-16ch");
  EXPECT_EQ(jobs.back().profile.name, "scan");
  EXPECT_EQ(jobs[0].experiment, "demo");
  EXPECT_EQ(jobs[0].config_file, "demo.toml");
}

TEST(ExperimentApi, NamesResolveWhenReadAheadOfInlineTables) {
  const std::string text =
      "[experiment]\n"
      "devices = [\"all\", \"comet\"]\n"
      "workloads = [\"all\"]\n"
      "\n"
      "[[device]]\n"
      "name = \"comet-16ch\"\n"
      "base = \"comet\"\n"
      "[device.timing]\n"
      "channels = 16\n"
      "\n"
      "[[workload]]\n"
      "name = \"scan\"\n";
  const auto spec = comet::config::parse_experiment(
      toml::parse_string(text, "names.toml"), resolve_device_specs);
  const auto all = resolve_device_specs("all");
  ASSERT_EQ(all.size(), 7u);
  ASSERT_EQ(spec.devices.size(), 9u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(spec.devices[i].name, all[i].name) << i;
  }
  EXPECT_EQ(spec.devices[7].name, make_device_spec("comet").name);
  EXPECT_EQ(spec.devices[8].name, "comet-16ch");

  const auto profiles = comet::memsim::spec_like_profiles();
  ASSERT_EQ(spec.workloads.size(), profiles.size() + 1);
  ASSERT_EQ(spec.workloads.size(), 9u);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(spec.workloads[i].name, profiles[i].name) << i;
  }
  EXPECT_EQ(spec.workloads[8].name, "scan");
}

TEST(ExperimentApi, DevicesKeyWithoutAResolverFailsAtItsLine) {
  const std::string text =
      "[experiment]\n"
      "name = \"x\"\n"
      "devices = [\"comet\"]\n"
      "workloads = [\"gcc_like\"]\n";
  try {
    (void)comet::config::parse_experiment(
        toml::parse_string(text, "names.toml"), nullptr);
    FAIL() << "expected a ParseError";
  } catch (const toml::ParseError& e) {
    EXPECT_EQ(e.line(), 3u) << e.what();
    EXPECT_NE(std::string(e.what()).find(
                  "'devices' references are not available here"),
              std::string::npos)
        << e.what();
  }
}

TEST(ExperimentApi, UnknownTopLevelSectionRejected) {
  EXPECT_THROW(comet::config::parse_experiment(
                   toml::parse_string("[expirement]\nname = \"x\"\n", "t"),
                   nullptr),
               toml::ParseError);
}

TEST(ExperimentApi, ConfigMatrixMatchesCliFlagMatrix) {
  // Acceptance criterion: a config-file experiment reproduces the exact
  // SimStats of the equivalent CLI-flag invocation.
  const auto cli_options = comet::driver::parse_args(
      {"--device", "hybrid-comet", "--workload", "milc_like", "--requests",
       "700", "--seed", "5", "--channels", "8"});
  const auto cli_jobs = comet::driver::build_matrix(cli_options.spec);

  const std::string text =
      "[experiment]\n"
      "devices = [\"hybrid-comet\"]\n"
      "workloads = [\"milc_like\"]\n"
      "requests = 700\n"
      "seed = 5\n"
      "channels = 8\n";
  const auto cfg_jobs = comet::driver::build_matrix(
      comet::config::parse_experiment(toml::parse_string(text, "cli.toml"),
                                      resolve_device_specs));
  ASSERT_EQ(cli_jobs.size(), cfg_jobs.size());
  const auto cli_results = comet::driver::run_sweep(cli_jobs, 1);
  const auto cfg_results = comet::driver::run_sweep(cfg_jobs, 1);
  for (std::size_t i = 0; i < cli_results.size(); ++i) {
    EXPECT_TRUE(cfg_results[i] == cli_results[i]) << i;
  }
}

TEST(ExperimentApi, ResolvedExperimentRoundTripsThroughToml) {
  // The --dump-config → --config loop in-process: resolve an experiment
  // to inline definitions, serialize, re-parse WITHOUT a registry, and
  // compare sweep results bit-exactly.
  const auto options = comet::driver::parse_args(
      {"--device", "hybrid-comet-small", "--workload", "lbm_like",
       "--requests", "500"});
  const auto& resolved = options.spec;  // The reader resolves names.
  ASSERT_EQ(resolved.devices.size(), 1u);
  ASSERT_EQ(resolved.workloads.size(), 1u);

  const std::string text = comet::config::experiment_to_toml(resolved);
  const auto reparsed = comet::config::parse_experiment(
      toml::parse_string(text, "dump.toml"), nullptr);
  const auto jobs_a = comet::driver::build_matrix(resolved);
  const auto jobs_b = comet::driver::build_matrix(reparsed);
  ASSERT_EQ(jobs_a.size(), jobs_b.size());
  const auto results_a = comet::driver::run_sweep(jobs_a, 1);
  const auto results_b = comet::driver::run_sweep(jobs_b, 1);
  for (std::size_t i = 0; i < results_a.size(); ++i) {
    EXPECT_TRUE(results_b[i] == results_a[i]) << i;
  }
}

TEST(ExperimentApi, ControllerSectionParsesAndDerivesWatermarks) {
  const std::string text =
      "[experiment]\n"
      "devices = [\"comet\"]\n"
      "workloads = [\"gcc_like\"]\n"
      "\n"
      "[controller]\n"
      "policy = [\"fcfs\", \"read-first\"]\n"
      "write_queue_depth = 16\n";
  const auto spec = comet::config::parse_experiment(
      toml::parse_string(text, "sched.toml"), resolve_device_specs);
  ASSERT_EQ(spec.policies.size(), 2u);
  EXPECT_EQ(spec.policies[0], comet::sched::Policy::kFcfs);
  EXPECT_EQ(spec.policies[1], comet::sched::Policy::kReadFirst);
  // Watermarks re-derived from the bounded write queue (7/8 and 3/8).
  EXPECT_EQ(spec.controller.write_queue_depth, 16);
  EXPECT_EQ(spec.controller.drain_high_watermark, 14);
  EXPECT_EQ(spec.controller.drain_low_watermark, 6);
  // Read depth kept its default.
  EXPECT_EQ(spec.controller.read_queue_depth, 32);

  // Giving one watermark explicitly still derives the other from the
  // depth — the same semantics as the --write-q/--drain-* CLI flags.
  const std::string partial =
      "[experiment]\n"
      "devices = [\"comet\"]\n"
      "workloads = [\"gcc_like\"]\n"
      "\n"
      "[controller]\n"
      "policy = \"read-first\"\n"
      "write_queue_depth = 8\n"
      "drain_low_watermark = 2\n";
  const auto mixed = comet::config::parse_experiment(
      toml::parse_string(partial, "sched.toml"), resolve_device_specs);
  EXPECT_EQ(mixed.controller.drain_high_watermark, 7);  // derived: 8 * 7/8
  EXPECT_EQ(mixed.controller.drain_low_watermark, 2);   // explicit
  const auto jobs = comet::driver::build_matrix(spec);
  ASSERT_EQ(jobs.size(), 2u);
  ASSERT_TRUE(jobs[1].controller.has_value());
  EXPECT_EQ(jobs[1].controller->policy, comet::sched::Policy::kReadFirst);
}

TEST(ExperimentApi, ControllerSectionDiagnostics) {
  const auto expect_error = [](const std::string& text,
                               const std::string& fragment) {
    try {
      (void)comet::config::parse_experiment(
          toml::parse_string(text, "sched.toml"), resolve_device_specs);
      FAIL() << "expected error containing: " << fragment;
    } catch (const toml::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  const std::string header =
      "[experiment]\ndevices = [\"comet\"]\nworkloads = [\"gcc_like\"]\n";
  expect_error(header + "[controller]\npolicy = \"lifo\"\n",
               "unknown scheduling policy 'lifo'");
  expect_error(header + "[controller]\nqueue = 4\n", "unknown key 'queue'");
  expect_error(header +
                   "[controller]\npolicy = \"read-first\"\n"
                   "write_queue_depth = 8\n"
                   "drain_high_watermark = 50\n",
               "drain_high_watermark 50 exceeds write_queue_depth 8");
  // Scheduling keys refine an explicit policy axis...
  expect_error(header + "[controller]\nread_queue_depth = 8\n",
               "sched.toml:5: [controller]: 'read_queue_depth' requires "
               "'policy'");
  // ...and only keys some policy on the axis uses are accepted.
  expect_error(header +
                   "[controller]\npolicy = [\"fcfs\", \"frfcfs\"]\n"
                   "drain_low_watermark = 4\n",
               "sched.toml:6: [controller]: 'drain_low_watermark' applies to "
               "read-first only");
  expect_error(header +
                   "[controller]\npolicy = \"token-budget\"\n"
                   "starvation_cap = 4\n",
               "'starvation_cap' applies to frfcfs-cap only");
  EXPECT_NO_THROW(comet::config::parse_experiment(
      toml::parse_string(header +
                             "[controller]\n"
                             "policy = [\"frfcfs\", \"token-budget\"]\n"
                             "tenant_tokens = 4\n",
                         "sched.toml"),
      resolve_device_specs));
}

TEST(ExperimentApi, RunThreadsAloneShardsWithoutEngagingScheduling) {
  // A [controller] holding only run_threads keeps the direct replay
  // (no policy axis) and multiplies the matrix by the thread axis.
  const std::string text =
      "[experiment]\n"
      "devices = [\"comet\"]\n"
      "workloads = [\"gcc_like\"]\n"
      "\n"
      "[controller]\n"
      "run_threads = [1, 8]\n";
  const auto spec = comet::config::parse_experiment(
      toml::parse_string(text, "sharded.toml"), resolve_device_specs);
  EXPECT_TRUE(spec.policies.empty());
  EXPECT_EQ(spec.run_threads, (std::vector<int>{1, 8}));

  const auto jobs = comet::driver::build_matrix(spec);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_FALSE(jobs[0].controller.has_value());
  EXPECT_EQ(jobs[0].run_threads, 1);
  EXPECT_EQ(jobs[1].run_threads, 8);

  // The axis only moves wall-clock: both cells report identical stats.
  const auto results = comet::driver::run_sweep(jobs, 1);
  EXPECT_TRUE(results[1] == results[0]);

  // And it survives the --dump-config round trip.
  const std::string dumped = comet::config::experiment_to_toml(spec);
  EXPECT_NE(dumped.find("run_threads = [1, 8]"), std::string::npos) << dumped;
  const auto reparsed = comet::config::parse_experiment(
      toml::parse_string(dumped, "dump.toml"), nullptr);
  EXPECT_TRUE(reparsed.policies.empty());
  EXPECT_EQ(reparsed.run_threads, spec.run_threads);
}

TEST(ExperimentApi, RunThreadsCombinesWithThePolicyAxis) {
  const std::string text =
      "[experiment]\n"
      "devices = [\"comet\"]\n"
      "workloads = [\"gcc_like\"]\n"
      "\n"
      "[controller]\n"
      "policy = [\"fcfs\", \"frfcfs\"]\n"
      "run_threads = [1, 2]\n";
  const auto spec = comet::config::parse_experiment(
      toml::parse_string(text, "sharded.toml"), resolve_device_specs);
  ASSERT_EQ(spec.policies.size(), 2u);
  const auto jobs = comet::driver::build_matrix(spec);
  ASSERT_EQ(jobs.size(), 4u);  // policies × run_threads
  EXPECT_EQ(jobs[0].controller->policy, comet::sched::Policy::kFcfs);
  EXPECT_EQ(jobs[0].run_threads, 1);
  EXPECT_EQ(jobs[1].run_threads, 2);
  EXPECT_EQ(jobs[2].controller->policy, comet::sched::Policy::kFrFcfs);
}

TEST(ExperimentApi, ScheduledExperimentRoundTripsThroughToml) {
  // The scheduled --dump-config loop: the [controller] section (policy
  // axis, depths, watermarks) must survive serialize → reparse with
  // bit-identical sweep results.
  const auto options = comet::driver::parse_args(
      {"--device", "comet", "--workload", "gcc_like", "--requests", "400",
       "--schedule", "frfcfs", "--read-q", "16", "--write-q", "16"});
  const auto& resolved = options.spec;
  ASSERT_EQ(resolved.policies.size(), 1u);

  const std::string text = comet::config::experiment_to_toml(resolved);
  EXPECT_NE(text.find("[controller]"), std::string::npos);
  EXPECT_NE(text.find("policy = \"frfcfs\""), std::string::npos);
  // Only the keys frfcfs uses: the reader would reject the watermark
  // and fairness keys, which refine other policies.
  EXPECT_NE(text.find("write_queue_depth = 16"), std::string::npos);
  EXPECT_EQ(text.find("drain_high_watermark"), std::string::npos) << text;
  EXPECT_EQ(text.find("tenant_tokens"), std::string::npos) << text;
  const auto reparsed = comet::config::parse_experiment(
      toml::parse_string(text, "dump.toml"), nullptr);
  ASSERT_EQ(reparsed.policies, resolved.policies);
  EXPECT_EQ(reparsed.controller.read_queue_depth,
            resolved.controller.read_queue_depth);
  EXPECT_EQ(reparsed.controller.write_queue_depth,
            resolved.controller.write_queue_depth);
  EXPECT_EQ(reparsed.controller.drain_high_watermark,
            resolved.controller.drain_high_watermark);
  EXPECT_EQ(reparsed.controller.drain_low_watermark,
            resolved.controller.drain_low_watermark);

  const auto results_a =
      comet::driver::run_sweep(comet::driver::build_matrix(resolved), 1);
  const auto results_b =
      comet::driver::run_sweep(comet::driver::build_matrix(reparsed), 1);
  ASSERT_EQ(results_a.size(), results_b.size());
  for (std::size_t i = 0; i < results_a.size(); ++i) {
    EXPECT_TRUE(results_b[i] == results_a[i]) << i;
  }
}

TEST(ExperimentApi, TraceExperimentValidates) {
  ExperimentSpec spec;
  spec.devices = resolve_device_specs("comet");
  spec.trace_file = "some.trace";
  spec.cpu_ghz = 3.0;
  EXPECT_NO_THROW(spec.validate());
  // requests/seed are ignored during replay, so an axis alongside a
  // trace file is rejected instead of running N identical replays.
  ExperimentSpec seeds = spec;
  seeds.seeds = {1, 2};
  EXPECT_THROW(seeds.validate(), std::invalid_argument);
  ExperimentSpec requests = spec;
  requests.requests = {100, 200};
  EXPECT_THROW(requests.validate(), std::invalid_argument);
  // parse path: trace_file + workloads is rejected with a line anchor.
  const std::string text =
      "[experiment]\n"
      "devices = [\"comet\"]\n"
      "workloads = [\"gcc_like\"]\n"
      "trace_file = \"t.nvt\"\n";
  EXPECT_THROW(comet::config::parse_experiment(
                   toml::parse_string(text, "t.toml"), resolve_device_specs),
               toml::ParseError);
}

// --- [telemetry] section -------------------------------------------------

TEST(ExperimentApi, TelemetrySectionParses) {
  const std::string text =
      "[experiment]\n"
      "devices = [\"comet\"]\n"
      "workloads = [\"gcc_like\"]\n"
      "[telemetry]\n"
      "trace_out = \"run.json\"\n"
      "trace_limit = 5000\n"
      "metrics_interval_ns = 250000\n"
      "metrics_csv = \"run.csv\"\n";
  const auto spec = comet::config::parse_experiment(
      toml::parse_string(text, "t.toml"), resolve_device_specs);
  EXPECT_EQ(spec.telemetry.trace_path, "run.json");
  EXPECT_EQ(spec.telemetry.trace_limit, 5000u);
  EXPECT_EQ(spec.telemetry.metrics_interval_ps, 250'000'000u);  // ns -> ps.
  EXPECT_EQ(spec.telemetry.metrics_csv, "run.csv");
  EXPECT_TRUE(spec.telemetry.enabled());
}

TEST(ExperimentApi, TelemetrySectionDiagnostics) {
  // trace_limit without trace_out: no event budget to cap.
  EXPECT_THROW(comet::config::parse_experiment(
                   toml::parse_string("[experiment]\n"
                                      "devices = [\"comet\"]\n"
                                      "workloads = [\"gcc_like\"]\n"
                                      "[telemetry]\n"
                                      "trace_limit = 100\n",
                                      "t.toml"),
                   resolve_device_specs),
               toml::ParseError);
  // metrics_csv without an interval: no timeline to write.
  EXPECT_THROW(comet::config::parse_experiment(
                   toml::parse_string("[experiment]\n"
                                      "devices = [\"comet\"]\n"
                                      "workloads = [\"gcc_like\"]\n"
                                      "[telemetry]\n"
                                      "metrics_csv = \"t.csv\"\n",
                                      "t.toml"),
                   resolve_device_specs),
               toml::ParseError);
  // A zero interval is degenerate (0 already means "disabled").
  EXPECT_THROW(comet::config::parse_experiment(
                   toml::parse_string("[experiment]\n"
                                      "devices = [\"comet\"]\n"
                                      "workloads = [\"gcc_like\"]\n"
                                      "[telemetry]\n"
                                      "metrics_interval_ns = 0\n",
                                      "t.toml"),
                   resolve_device_specs),
               toml::ParseError);
  // Unknown keys are rejected like every other section.
  EXPECT_THROW(comet::config::parse_experiment(
                   toml::parse_string("[experiment]\n"
                                      "devices = [\"comet\"]\n"
                                      "workloads = [\"gcc_like\"]\n"
                                      "[telemetry]\n"
                                      "tracing = true\n",
                                      "t.toml"),
                   resolve_device_specs),
               toml::ParseError);
}

TEST(ExperimentApi, TelemetryExperimentRoundTripsThroughToml) {
  // The --dump-config loop for instrumented runs: the [telemetry]
  // section must survive serialize -> reparse exactly.
  const auto options = comet::driver::parse_args(
      {"--device", "comet", "--workload", "gcc_like", "--requests", "400",
       "--trace-out", "run.json", "--trace-limit", "9000",
       "--metrics-interval", "500000", "--metrics-csv", "run.csv"});
  const auto& resolved = options.spec;

  const std::string text = comet::config::experiment_to_toml(resolved);
  EXPECT_NE(text.find("[telemetry]"), std::string::npos);
  EXPECT_NE(text.find("trace_out = \"run.json\""), std::string::npos);
  EXPECT_NE(text.find("metrics_interval_ns = 500000"), std::string::npos);
  const auto reparsed = comet::config::parse_experiment(
      toml::parse_string(text, "dump.toml"), nullptr);
  EXPECT_EQ(reparsed.telemetry.trace_path, resolved.telemetry.trace_path);
  EXPECT_EQ(reparsed.telemetry.trace_limit, resolved.telemetry.trace_limit);
  EXPECT_EQ(reparsed.telemetry.metrics_interval_ps,
            resolved.telemetry.metrics_interval_ps);
  EXPECT_EQ(reparsed.telemetry.metrics_csv, resolved.telemetry.metrics_csv);

  // A telemetry-free spec writes no [telemetry] section at all.
  const auto plain =
      comet::driver::parse_args({"--device", "comet", "--workload", "gcc_like"})
          .spec;
  EXPECT_EQ(comet::config::experiment_to_toml(plain).find("[telemetry]"),
            std::string::npos);
}

// --- Multi-tenant [tenant] section ---------------------------------------

TEST(ExperimentApi, TenantSectionParses) {
  const std::string text =
      "[experiment]\n"
      "devices = [\"comet\"]\n"
      "[tenant]\n"
      "mapping = \"interleave\"\n"
      "[tenant.web]\n"
      "workload = \"gcc_like\"\n"
      "[tenant.batch]\n"
      "workload = \"mcf_like\"\n"
      "interarrival_ns = 40.0\n"
      "burstiness = 0.5\n"
      "requests = 3000\n";
  const auto spec = comet::config::parse_experiment(
      toml::parse_string(text, "t.toml"), resolve_device_specs);
  ASSERT_EQ(spec.tenants.size(), 2u);
  // Streams come out name-ordered regardless of document order: name
  // order fixes tenant ids and per-tenant seeds, so two documents
  // listing the same tenants always mean the same run.
  EXPECT_EQ(spec.tenants[0].name, "batch");
  EXPECT_EQ(spec.tenants[0].profile.name, "mcf_like");
  EXPECT_DOUBLE_EQ(spec.tenants[0].interarrival_ns, 40.0);
  EXPECT_DOUBLE_EQ(spec.tenants[0].burstiness, 0.5);
  EXPECT_EQ(spec.tenants[0].requests, 3000u);
  EXPECT_EQ(spec.tenants[1].name, "web");
  EXPECT_EQ(spec.tenants[1].profile.name, "gcc_like");
  EXPECT_EQ(spec.tenants[1].requests, 0u);  // 0 = the run-level default.
  EXPECT_EQ(spec.tenant_mapping, comet::config::TenantMapping::kInterleave);
}

TEST(ExperimentApi, TenantSectionDiagnostics) {
  const auto parse = [](const std::string& tenant_block) {
    return comet::config::parse_experiment(
        toml::parse_string("[experiment]\n"
                           "devices = [\"comet\"]\n" +
                               tenant_block,
                           "t.toml"),
        resolve_device_specs);
  };
  // Unknown mapping names the two valid spellings.
  EXPECT_THROW(parse("[tenant]\n"
                     "mapping = \"striped\"\n"
                     "[tenant.a]\n"
                     "workload = \"gcc_like\"\n"),
               toml::ParseError);
  // A stream needs a demand: workload or trace_file.
  EXPECT_THROW(parse("[tenant.a]\n"
                     "interarrival_ns = 10.0\n"),
               toml::ParseError);
  // Unknown workload profiles are rejected at the offending line.
  EXPECT_THROW(parse("[tenant.a]\n"
                     "workload = \"no_such_profile\"\n"),
               toml::ParseError);
  // A bare [tenant] section with no streams schedules nothing.
  EXPECT_THROW(parse("[tenant]\n"
                     "mapping = \"partition\"\n"),
               toml::ParseError);
  // Unknown keys are rejected like every other section.
  EXPECT_THROW(parse("[tenant.a]\n"
                     "workload = \"gcc_like\"\n"
                     "priority = 3\n"),
               toml::ParseError);
  // burstiness is a fraction of [0, 1).
  EXPECT_THROW(parse("[tenant.a]\n"
                     "workload = \"gcc_like\"\n"
                     "burstiness = 1.0\n"),
               toml::ParseError);
}

TEST(ExperimentApi, TenantStreamsConflictWithOtherDemandAxes) {
  comet::config::TenantSpec tenant;
  tenant.name = "web";
  tenant.profile = comet::memsim::profile_by_name("gcc_like");
  ExperimentSpec spec;
  spec.devices = resolve_device_specs("comet");
  spec.tenants = {tenant};
  EXPECT_NO_THROW(spec.validate());
  // Tenants own the demand: a workload axis on top is ambiguous.
  ExperimentSpec with_workload = spec;
  with_workload.workloads = {comet::memsim::profile_by_name("gcc_like")};
  EXPECT_THROW(with_workload.validate(), std::invalid_argument);
  // So is a run-level trace file (trace tenants carry their own path).
  ExperimentSpec with_trace = spec;
  with_trace.trace_file = "demand.nvt";
  EXPECT_THROW(with_trace.validate(), std::invalid_argument);
}

TEST(ExperimentApi, TenantExperimentRoundTripsThroughToml) {
  // The --dump-config loop for multi-tenant runs: the [tenant] section
  // must survive serialize -> reparse exactly.
  const auto options = comet::driver::parse_args(
      {"--device", "comet", "--tenants", "web=gcc_like,batch=mcf_like:40:0.5",
       "--tenant-mapping", "interleave", "--schedule", "token-budget",
       "--tenant-tokens", "32", "--requests", "400"});
  const auto& resolved = options.spec;

  const std::string text = comet::config::experiment_to_toml(resolved);
  EXPECT_NE(text.find("[tenant]"), std::string::npos);
  EXPECT_NE(text.find("mapping = \"interleave\""), std::string::npos);
  EXPECT_NE(text.find("[tenant.batch]"), std::string::npos);
  EXPECT_NE(text.find("[tenant.web]"), std::string::npos);
  EXPECT_NE(text.find("tenant_tokens = 32"), std::string::npos);
  const auto reparsed = comet::config::parse_experiment(
      toml::parse_string(text, "dump.toml"), nullptr);
  ASSERT_EQ(reparsed.tenants.size(), resolved.tenants.size());
  for (std::size_t i = 0; i < reparsed.tenants.size(); ++i) {
    EXPECT_EQ(reparsed.tenants[i].name, resolved.tenants[i].name);
    EXPECT_EQ(reparsed.tenants[i].profile.name,
              resolved.tenants[i].profile.name);
    EXPECT_DOUBLE_EQ(reparsed.tenants[i].interarrival_ns,
                     resolved.tenants[i].interarrival_ns);
    EXPECT_DOUBLE_EQ(reparsed.tenants[i].burstiness,
                     resolved.tenants[i].burstiness);
    EXPECT_EQ(reparsed.tenants[i].requests, resolved.tenants[i].requests);
  }
  EXPECT_EQ(reparsed.tenant_mapping, resolved.tenant_mapping);
  EXPECT_EQ(reparsed.controller.tenant_tokens, 32);

  // A tenant-free spec writes no [tenant] section at all.
  const auto plain =
      comet::driver::parse_args({"--device", "comet", "--workload", "gcc_like"})
          .spec;
  EXPECT_EQ(comet::config::experiment_to_toml(plain).find("[tenant]"),
            std::string::npos);
}

}  // namespace
