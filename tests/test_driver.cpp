// Driver subsystem tests: CLI parsing (including rejection of unknown
// devices/workloads), registry expansion, sweep determinism across thread
// counts, the JSON emission shape, and a property test per knob-table
// row (each flag agrees with its config key).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/knobs.hpp"
#include "config/toml.hpp"
#include "driver/options.hpp"
#include "driver/registry.hpp"
#include "driver/report.hpp"
#include "driver/sweep.hpp"
#include "memsim/metrics.hpp"
#include "memsim/trace.hpp"
#include "memsim/trace_gen.hpp"
#include "prof/profiler.hpp"
#include "sched/controller.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using comet::driver::build_matrix;
using comet::driver::Options;
using comet::driver::parse_args;
using comet::driver::resolve_device_specs;
using comet::driver::run_sweep;

TEST(OptionsTest, DefaultsAreAllDevicesAllWorkloads) {
  const Options opt = parse_args({});
  EXPECT_EQ(opt.spec.devices.size(), resolve_device_specs("all").size());
  EXPECT_EQ(opt.spec.workloads.size(),
            comet::memsim::spec_like_profiles().size());
  EXPECT_EQ(opt.spec.channels, std::vector<int>{0});
  EXPECT_FALSE(opt.help);
}

TEST(OptionsTest, ParsesEveryFlag) {
  const Options opt =
      parse_args({"--device", "comet", "--workload", "lbm_like",
                  "--channels", "4", "--requests", "1000", "--threads", "3",
                  "--run-threads", "2", "--seed", "7", "--line-bytes", "64",
                  "--json", "out.json", "--csv"});
  ASSERT_EQ(opt.spec.devices.size(), 1u);
  EXPECT_EQ(opt.spec.devices[0].name,
            comet::driver::make_device_spec("comet").name);
  ASSERT_EQ(opt.spec.workloads.size(), 1u);
  EXPECT_EQ(opt.spec.workloads[0].name, "lbm_like");
  EXPECT_EQ(opt.spec.channels, std::vector<int>{4});
  EXPECT_EQ(opt.spec.requests, std::vector<std::uint64_t>{1000});
  EXPECT_EQ(opt.threads, 3);
  EXPECT_EQ(opt.spec.run_threads, std::vector<int>{2});
  EXPECT_EQ(opt.spec.seeds, std::vector<std::uint64_t>{7});
  EXPECT_EQ(opt.spec.line_bytes, 64u);
  EXPECT_EQ(opt.json_path, "out.json");
  EXPECT_TRUE(opt.csv);
}

TEST(OptionsTest, RejectsUnknownDevice) {
  EXPECT_THROW(parse_args({"--device", "sram"}), std::invalid_argument);
}

TEST(OptionsTest, RejectsUnknownWorkload) {
  EXPECT_THROW(parse_args({"--workload", "no_such_profile"}),
               std::invalid_argument);
}

TEST(OptionsTest, RejectsUnknownFlagAndBadValues) {
  EXPECT_THROW(parse_args({"--bogus"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--requests"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--requests", "0"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--requests", "12abc"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--channels", "-2"}), std::invalid_argument);
  // stoull-style leniency must not leak through: no signs, no whitespace.
  EXPECT_THROW(parse_args({"--requests", " -1"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--requests", "+5"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--requests", " 5"}), std::invalid_argument);
  // Values that would wrap when narrowed must be rejected, not truncated.
  EXPECT_THROW(parse_args({"--channels", "4294967297"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--threads", "4294967296"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--line-bytes", "4294967424"}),
               std::invalid_argument);
}

TEST(OptionsTest, HelpShortCircuits) {
  const Options opt = parse_args({"--help", "--device", "sram"});
  EXPECT_TRUE(opt.help);
}

TEST(OptionsTest, ListFlagsParse) {
  EXPECT_TRUE(parse_args({"--list-devices"}).list_devices);
  EXPECT_TRUE(parse_args({"--list-workloads"}).list_workloads);
  const Options opt = parse_args({});
  EXPECT_FALSE(opt.list_devices);
  EXPECT_FALSE(opt.list_workloads);
}

namespace {

/// Writes a small generated trace to a temp file, deleted on scope exit.
class TempTraceFile {
 public:
  TempTraceFile() {
    const auto trace = comet::memsim::TraceGenerator(
                           comet::memsim::profile_by_name("gcc_like"), 13)
                           .generate(400, 64);
    std::ofstream out(path_);
    comet::memsim::write_trace(out, trace, comet::memsim::TraceConfig{});
  }
  ~TempTraceFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  // Pid-qualified so parallel ctest invocations of this binary never
  // collide on the shared working directory.
  std::string path_ =
      "test_driver_tmp_" + std::to_string(::getpid()) + ".trace";
};

}  // namespace

TEST(OptionsTest, TraceFileMustExistAtParseTime) {
  // main() maps parse failures to exit 2: a bad path dies before any
  // simulation runs.
  EXPECT_THROW(parse_args({"--trace-file", "/no/such/file.trace"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--trace-file", ""}), std::invalid_argument);
  // A directory opens but cannot be read; the parse-time probe must
  // catch it, not let it replay as a silently empty trace.
  EXPECT_THROW(parse_args({"--trace-file", "/tmp"}), std::invalid_argument);
  const TempTraceFile file;
  const Options opt = parse_args({"--trace-file", file.path()});
  EXPECT_EQ(opt.spec.trace_file, file.path());
}

TEST(OptionsTest, CpuGhzParsesAndRejectsBadValues) {
  const TempTraceFile file;
  const Options opt =
      parse_args({"--trace-file", file.path(), "--cpu-ghz", "3.5"});
  EXPECT_DOUBLE_EQ(opt.spec.cpu_ghz, 3.5);
  EXPECT_THROW(parse_args({"--cpu-ghz", "0"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--cpu-ghz", "-2"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--cpu-ghz", "2.0.0"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--cpu-ghz", "fast"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--cpu-ghz", "1e3"}), std::invalid_argument);
}

TEST(OptionsTest, DumpTraceNeedsASingleWorkload) {
  EXPECT_THROW(parse_args({"--dump-trace", "out.trace"}),
               std::invalid_argument);
  const Options opt =
      parse_args({"--dump-trace", "out.trace", "--workload", "lbm_like"});
  EXPECT_EQ(opt.dump_trace, "out.trace");
}

TEST(OptionsTest, DumpTraceAndTraceFileConflict) {
  const TempTraceFile file;
  EXPECT_THROW(parse_args({"--trace-file", file.path(), "--dump-trace",
                           "out.trace", "--workload", "lbm_like"}),
               std::invalid_argument);
}

namespace {

/// Writes TOML content to a pid-qualified temp file, deleted on exit.
class TempTomlFile {
 public:
  explicit TempTomlFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }
  ~TempTomlFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_ =
      "test_driver_tmp_" + std::to_string(::getpid()) + "_" +
      std::to_string(counter_++) + ".toml";
  static int counter_;
};

int TempTomlFile::counter_ = 0;

}  // namespace

TEST(OptionsTest, ConfigOwnsTheMatrix) {
  const TempTomlFile file(
      "[experiment]\ndevices = [\"comet\"]\nworkloads = [\"gcc_like\"]\n");
  const Options opt = parse_args({"--config", file.path()});
  EXPECT_EQ(opt.config, file.path());
  // Non-matrix flags still compose with --config...
  EXPECT_NO_THROW(parse_args(
      {"--config", file.path(), "--threads", "2", "--json", "o.json"}));
  // ...but every matrix-defining flag conflicts.
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{"--device", "comet"},
        {"--workload", "gcc_like"},
        {"--requests", "10"},
        {"--seed", "1"},
        {"--channels", "4"},
        {"--run-threads", "2"},
        {"--cache-mb", "32"}}) {
    std::vector<std::string> args{"--config", file.path()};
    args.insert(args.end(), extra.begin(), extra.end());
    EXPECT_THROW(parse_args(args), std::invalid_argument) << extra[0];
  }
}

TEST(OptionsTest, ConfigFileValidatedAtParseTime) {
  EXPECT_THROW(parse_args({"--config", "/no/such/file.toml"}),
               std::runtime_error);
  const TempTomlFile typo(
      "[experiment]\ndevices = [\"comet\"]\nworkloads = [\"gcc_like\"]\n"
      "requets = 5\n");
  try {
    parse_args({"--config", typo.path()});
    FAIL() << "expected a schema error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(typo.path() + ":4"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("requets"), std::string::npos)
        << e.what();
  }
  // Unknown tokens, profile names and a missing trace_file inside the
  // document are parse-time (exit 2) failures too, naming the file —
  // names are schema errors of the [experiment] reader, so they carry
  // the line as well.
  const TempTomlFile bad_token(
      "[experiment]\ndevices = [\"optane\"]\nworkloads = [\"gcc_like\"]\n");
  try {
    parse_args({"--config", bad_token.path()});
    FAIL() << "expected an unknown-device error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(bad_token.path() + ":2"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("unknown device 'optane'"),
              std::string::npos)
        << e.what();
  }
  const TempTomlFile bad_workload(
      "[experiment]\ndevices = [\"comet\"]\nworkloads = [\"nope_like\"]\n");
  EXPECT_THROW(parse_args({"--config", bad_workload.path()}),
               std::runtime_error);
  const TempTomlFile bad_trace(
      "[experiment]\ndevices = [\"comet\"]\n"
      "trace_file = \"/no/such.trace\"\n");
  EXPECT_THROW(parse_args({"--config", bad_trace.path()}),
               std::invalid_argument);
  // So is an unreadable trace tenant: the same check the --tenants
  // name=@path form gets, naming the file.
  const TempTomlFile bad_tenant(
      "[experiment]\ndevices = [\"comet\"]\n"
      "[tenant.prod]\ntrace_file = \"/no/such.nvt\"\n");
  try {
    parse_args({"--config", bad_tenant.path()});
    FAIL() << "expected an unreadable-tenant error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(bad_tenant.path()),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("/no/such.nvt"), std::string::npos)
        << e.what();
  }
}

TEST(OptionsTest, DeviceFilesAddDevicesToTheMatrix) {
  const TempTomlFile custom(
      "[device]\nname = \"comet-2ch\"\nbase = \"comet\"\n"
      "[device.timing]\nchannels = 2\n");
  // Without an explicit --device, the file replaces the default `all`.
  const auto solo = build_matrix(
      parse_args({"--device-file", custom.path(), "--workload", "gcc_like"})
          .spec);
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_EQ(solo[0].device.name, "comet-2ch");
  EXPECT_EQ(solo[0].device.channels(), 2);
  // With one, tokens come first and the file's devices follow.
  const auto both = build_matrix(
      parse_args({"--device", "epcm", "--device-file", custom.path(),
                  "--workload", "gcc_like"})
          .spec);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[1].device.name, "comet-2ch");
  // A bad file fails at parse time.
  EXPECT_THROW(parse_args({"--device-file", "/no/such/device.toml"}),
               std::runtime_error);
}

TEST(OptionsTest, CacheOverridesReachDeviceFileHybrids) {
  // --cache-* must not be silently ignored for a file-defined hybrid:
  // the flags apply to every hybrid in the matrix, token- or
  // file-sourced, through the same apply_hybrid_overrides path.
  const TempTomlFile hybrid_file(
      "[device]\nname = \"hc\"\nbase = \"comet\"\n"
      "[device.cache]\ncapacity_mb = 32\n");
  const auto jobs = build_matrix(parse_args(
      {"--device-file", hybrid_file.path(), "--workload", "gcc_like",
       "--cache-mb", "64", "--cache-policy", "write-no-allocate"}).spec);
  ASSERT_EQ(jobs.size(), 1u);
  ASSERT_TRUE(jobs[0].device.is_hybrid());
  EXPECT_EQ(jobs[0].device.tiered->cache.capacity_bytes, 64ull << 20);
  EXPECT_FALSE(jobs[0].device.tiered->cache.write_allocate);
  // The DRAM tier resized with the cache.
  EXPECT_EQ(jobs[0].device.tiered->dram.capacity_bytes, 64ull << 20);
}

TEST(OptionsTest, DumpConfigConflictsWithDumpTrace) {
  EXPECT_THROW(parse_args({"--dump-config", "a.toml", "--dump-trace",
                           "b.nvt", "--workload", "gcc_like"}),
               std::invalid_argument);
  const Options opt = parse_args({"--dump-config", "a.toml"});
  EXPECT_EQ(opt.dump_config, "a.toml");
}

TEST(SweepTest, CliOptionsLiftIntoExperimentSpec) {
  const auto spec =
      parse_args({"--device", "comet", "--workload", "lbm_like",
                  "--requests", "123", "--seed", "9", "--channels", "4"})
          .spec;
  EXPECT_EQ(spec.name, "cli");
  EXPECT_TRUE(spec.device_tokens.empty());  // Resolved inline.
  ASSERT_EQ(spec.devices.size(), 1u);
  ASSERT_EQ(spec.workloads.size(), 1u);
  EXPECT_EQ(spec.workloads[0].name, "lbm_like");
  EXPECT_EQ(spec.requests, std::vector<std::uint64_t>{123});
  EXPECT_EQ(spec.seeds, std::vector<std::uint64_t>{9});
  EXPECT_EQ(spec.channels, std::vector<int>{4});
  EXPECT_TRUE(spec.source.empty());
}

TEST(RegistryTest, EmptyDeviceSpecFailsLoudly) {
  // The documented footgun: a default-constructed spec has neither
  // optional engaged; make_engine/set_channels must throw a clear
  // std::logic_error instead of dereferencing an empty optional.
  comet::driver::DeviceSpec spec;
  EXPECT_THROW((void)spec.make_engine(), std::logic_error);
  EXPECT_THROW(spec.set_channels(4), std::logic_error);
}

TEST(RegistryTest, MakeEngineCoversEveryToken) {
  for (const auto& token : comet::driver::known_devices()) {
    const auto engine = comet::driver::make_device_spec(token).make_engine();
    EXPECT_NE(engine, nullptr) << token;
  }
  for (const auto& token : comet::driver::known_hybrid_devices()) {
    const auto engine = comet::driver::make_device_spec(token).make_engine();
    const auto stats = engine->run(std::vector<comet::memsim::Request>{});
    EXPECT_TRUE(stats.is_hybrid()) << token;
  }
}

TEST(SweepTest, TraceFileModeBuildsOneJobPerDevice) {
  const TempTraceFile file;
  const Options opt = parse_args({"--trace-file", file.path()});
  const auto jobs = build_matrix(opt.spec);
  EXPECT_EQ(jobs.size(), 7u);  // devices x one trace pseudo-workload
  for (const auto& job : jobs) {
    EXPECT_EQ(job.trace_path, file.path());
    EXPECT_EQ(job.profile.name, file.path());  // basename == path here
    EXPECT_DOUBLE_EQ(job.cpu_ghz, 2.0);
  }
}

TEST(SweepTest, TraceFileReplayThreadedMatchesSerial) {
  const TempTraceFile file;
  Options opt = parse_args({"--trace-file", file.path(), "--device", "all"});
  auto jobs = build_matrix(opt.spec);
  // Mix a hybrid design point into the matrix.
  {
    Options hybrid_opt =
        parse_args({"--trace-file", file.path(), "--device", "hybrid-comet"});
    for (auto& job : build_matrix(hybrid_opt.spec)) {
      jobs.push_back(std::move(job));
    }
  }
  const auto serial = run_sweep(jobs, 1);
  const auto threaded = run_sweep(jobs, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].reads, threaded[i].reads) << i;
    EXPECT_EQ(serial[i].span_ps, threaded[i].span_ps) << i;
    EXPECT_EQ(serial[i].dynamic_energy_pj, threaded[i].dynamic_energy_pj)
        << i;
    EXPECT_EQ(serial[i].cache_hits, threaded[i].cache_hits) << i;
    // Every device replayed the same 400-request demand stream.
    EXPECT_EQ(serial[i].reads + serial[i].writes, 400u) << i;
  }
}

TEST(ReportTest, JsonRecordsTraceFile) {
  const TempTraceFile file;
  Options opt = parse_args({"--trace-file", file.path(), "--device", "comet"});
  const auto jobs = build_matrix(opt.spec);
  const auto results = run_sweep(jobs, 1);
  std::ostringstream os;
  comet::driver::write_json(os, jobs, results);
  EXPECT_NE(os.str().find("\"trace_file\": \"" + file.path() + "\""),
            std::string::npos)
      << os.str();
}

TEST(ReportTest, JsonEscapesControlCharactersInStrings) {
  comet::driver::SweepJob job;
  job.device = comet::driver::make_device_spec("comet");
  job.profile = comet::memsim::profile_by_name("gcc_like");
  job.trace_path = "dir/t\tab\nline\x01.nvt";
  std::ostringstream os;
  comet::driver::write_json(os, {job}, {comet::memsim::SimStats{}});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"trace_file\": \"dir/t\\tab\\nline\\u0001.nvt\""),
            std::string::npos)
      << json;
  // The only raw control characters are the layout newlines a plain
  // path gets too.
  job.trace_path = "plain.nvt";
  std::ostringstream plain;
  comet::driver::write_json(plain, {job}, {comet::memsim::SimStats{}});
  for (const char c : json) {
    if (static_cast<unsigned char>(c) < 0x20) {
      EXPECT_EQ(c, '\n');
    }
  }
  const std::string plain_json = plain.str();
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'),
            std::count(plain_json.begin(), plain_json.end(), '\n'));
}

TEST(RegistryTest, HybridTokensAreDistinctFromFlatOnes) {
  for (const auto& token : comet::driver::known_hybrid_devices()) {
    for (const auto& flat : comet::driver::known_devices()) {
      EXPECT_NE(token, flat);
    }
  }
}

TEST(RegistryTest, AllExpandsToSevenUniqueModels) {
  // The flat-only resolve_devices() duplicate is retired: the single
  // expansion path serves flat and hybrid tokens alike.
  const auto specs = resolve_device_specs("all");
  EXPECT_EQ(specs.size(), 7u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_FALSE(specs[i].is_hybrid()) << specs[i].name;
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      EXPECT_NE(specs[i].name, specs[j].name);
    }
  }
}

TEST(RegistryTest, HbmAliasesTheStackedDdr4Part) {
  EXPECT_EQ(comet::driver::make_device("hbm").name,
            comet::driver::make_device("ddr4_3d").name);
}

TEST(RegistryTest, UnknownTokenThrows) {
  EXPECT_THROW(resolve_device_specs("optane"), std::invalid_argument);
}

TEST(SweepTest, MatrixIsDevicesTimesWorkloads) {
  const auto jobs = build_matrix(parse_args({}).spec);
  EXPECT_EQ(jobs.size(), 7u * 8u);
}

TEST(SweepTest, ChannelOverrideAppliesToEveryDevice) {
  Options opt = parse_args({"--device", "comet", "--channels", "2"});
  const auto jobs = build_matrix(opt.spec);
  ASSERT_FALSE(jobs.empty());
  for (const auto& job : jobs) EXPECT_EQ(job.device.channels(), 2);
}

// Acceptance criterion: the threaded sweep must be bit-identical to the
// serial path for a fixed seed. Compare every stats field exactly.
TEST(SweepTest, ThreadedMatchesSerialBitExactly) {
  Options opt = parse_args({"--requests", "2000"});
  const auto jobs = build_matrix(opt.spec);
  const auto serial = run_sweep(jobs, 1);
  const auto threaded = run_sweep(jobs, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == threaded[i]) << i;
  }
}

TEST(SweepTest, RepeatedRunsAreDeterministic) {
  Options opt = parse_args({"--device", "comet", "--workload", "all",
                            "--requests", "1500"});
  const auto jobs = build_matrix(opt.spec);
  const auto first = run_sweep(jobs, 2);
  const auto second = run_sweep(jobs, 3);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].span_ps, second[i].span_ps);
    EXPECT_EQ(first[i].dynamic_energy_pj, second[i].dynamic_energy_pj);
  }
}

TEST(ReportTest, JsonContainsOneRecordPerRunWithRequiredFields) {
  Options opt = parse_args({"--device", "comet", "--requests", "500"});
  const auto jobs = build_matrix(opt.spec);
  const auto results = run_sweep(jobs, 1);
  std::ostringstream os;
  comet::driver::write_json(os, jobs, results);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bench\": \"comet_sim_sweep\""), std::string::npos);
  for (const char* field :
       {"\"device\"", "\"workload\"", "\"avg_read_latency_ns\"",
        "\"bandwidth_gbps\"", "\"energy_pj_per_bit\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  std::size_t records = 0;
  for (std::size_t pos = json.find("\"device\""); pos != std::string::npos;
       pos = json.find("\"device\"", pos + 1)) {
    ++records;
  }
  EXPECT_EQ(records, jobs.size());
}

TEST(ReportTest, TableReportCoversEveryDevice) {
  Options opt = parse_args({"--workload", "lbm_like", "--requests", "500"});
  const auto jobs = build_matrix(opt.spec);
  const auto results = run_sweep(jobs, 1);
  std::ostringstream os;
  comet::driver::print_report(os, jobs, results, /*csv=*/false);
  for (const auto& job : jobs) {
    EXPECT_NE(os.str().find(job.device.name), std::string::npos)
        << job.device.name;
  }
}

// ----------------------------------------------------------- telemetry

TEST(OptionsTest, TelemetryFlagsParseAndConvert) {
  const Options opt = parse_args(
      {"--trace-out", "t.json", "--trace-limit", "500", "--metrics-interval",
       "1000000", "--metrics-csv", "t.csv"});
  const auto& spec = opt.spec.telemetry;
  EXPECT_EQ(spec.trace_path, "t.json");
  EXPECT_EQ(spec.trace_limit, 500u);
  EXPECT_EQ(spec.metrics_interval_ps, 1'000'000'000u);  // ns -> ps.
  EXPECT_EQ(spec.metrics_csv, "t.csv");

  // Untraced default: a disabled spec, so jobs carry no collector.
  EXPECT_FALSE(parse_args({}).spec.telemetry.enabled());
}

TEST(OptionsTest, TelemetryFlagDependenciesRejectedAtParseTime) {
  // --trace-limit without --trace-out: no event budget to cap.
  EXPECT_THROW(parse_args({"--trace-limit", "100"}), std::invalid_argument);
  // --metrics-csv without --metrics-interval: no timeline to write.
  EXPECT_THROW(parse_args({"--metrics-csv", "t.csv"}), std::invalid_argument);
  // Degenerate values.
  EXPECT_THROW(parse_args({"--trace-out", ""}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--metrics-interval", "0"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--metrics-interval", "abc"}),
               std::invalid_argument);
}

TEST(OptionsTest, TelemetryFlagsConflictWithConfig) {
  const TempTomlFile file(
      "[experiment]\ndevices = [\"comet\"]\nworkloads = [\"gcc_like\"]\n");
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{"--trace-out", "t.json"},
        {"--trace-out", "t.json", "--trace-limit", "5"},
        {"--metrics-interval", "1000"},
        {"--metrics-interval", "1000", "--metrics-csv", "t.csv"}}) {
    std::vector<std::string> args{"--config", file.path()};
    args.insert(args.end(), extra.begin(), extra.end());
    EXPECT_THROW(parse_args(args), std::invalid_argument) << extra[0];
  }
}

TEST(OptionsTest, ListPoliciesParsesAndRegistryIsComplete) {
  EXPECT_TRUE(parse_args({"--list-policies"}).list_policies);
  EXPECT_FALSE(parse_args({}).list_policies);
  const auto& policies = comet::sched::known_policies();
  ASSERT_EQ(policies.size(), 5u);
  const std::string listing = comet::driver::policy_list();
  for (const auto& info : policies) {
    // The printed token must round-trip through the scheduler's own
    // name mapping — the same token --schedule accepts.
    EXPECT_EQ(comet::sched::policy_name(info.policy), info.name);
    EXPECT_NE(std::string(info.summary), "");
    // Each policy's knob line lists exactly the knob-table rows whose
    // applies-to set holds it, in both spellings.
    const std::size_t start = listing.find(std::string(info.name) + "\n");
    ASSERT_NE(start, std::string::npos) << info.name;
    const std::size_t knobs = listing.find("  knobs:", start);
    ASSERT_NE(knobs, std::string::npos) << info.name;
    const std::string line =
        listing.substr(knobs, listing.find('\n', knobs) - knobs);
    for (const auto& knob : comet::config::knobs()) {
      const std::string entry =
          std::string(knob.flag) + " / " + knob.key;
      const bool listed = line.find(entry) != std::string::npos;
      EXPECT_EQ(listed,
                (knob.policies & comet::config::policy_bit(info.policy)) != 0)
          << info.name << ": " << entry;
    }
  }
  EXPECT_NE(listing.find("--drain-high / drain_high_watermark"),
            std::string::npos);
}

TEST(SweepTest, TelemetrySpecRidesIntoEveryJob) {
  const Options opt = parse_args(
      {"--device", "comet", "--workload", "all", "--requests", "200",
       "--trace-out", "t.json", "--metrics-interval", "1000000"});
  const auto jobs = build_matrix(opt.spec);
  ASSERT_FALSE(jobs.empty());
  for (const auto& job : jobs) {
    EXPECT_EQ(job.telemetry.trace_path, "t.json");
    EXPECT_EQ(job.telemetry.metrics_interval_ps, 1'000'000'000u);
    EXPECT_TRUE(job.telemetry.enabled());
  }
}

TEST(SweepTest, RunSweepBuildsOneCollectorPerEnabledJob) {
  Options opt = parse_args({"--device", "comet", "--workload", "gcc_like",
                            "--requests", "300", "--metrics-interval",
                            "1000000"});
  const auto jobs = build_matrix(opt.spec);
  std::vector<std::unique_ptr<comet::telemetry::Collector>> collectors;
  const auto results = run_sweep(jobs, 1, &collectors);
  ASSERT_EQ(collectors.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_NE(collectors[i], nullptr);
    const auto timeline = collectors[i]->timeline();
    ASSERT_FALSE(timeline.empty());
    std::uint64_t total = 0;
    for (const auto& point : timeline) total += point.reads + point.writes;
    EXPECT_EQ(total, results[i].reads + results[i].writes);
  }

  // Disabled telemetry: the slots stay null and nothing is recorded.
  Options plain = parse_args({"--device", "comet", "--workload", "gcc_like",
                              "--requests", "300"});
  const auto plain_jobs = build_matrix(plain.spec);
  run_sweep(plain_jobs, 1, &collectors);
  ASSERT_EQ(collectors.size(), plain_jobs.size());
  for (const auto& collector : collectors) EXPECT_EQ(collector, nullptr);
}

TEST(ReportTest, JsonCarriesTelemetryProvenanceAndTimeline) {
  Options opt = parse_args({"--device", "comet", "--workload", "gcc_like",
                            "--requests", "300", "--trace-out", "t.json",
                            "--metrics-interval", "1000000"});
  const auto jobs = build_matrix(opt.spec);
  std::vector<std::unique_ptr<comet::telemetry::Collector>> collectors;
  const auto results = run_sweep(jobs, 1, &collectors);
  std::ostringstream os;
  comet::driver::write_json(os, jobs, results, &collectors);
  const std::string json = os.str();
  for (const char* field :
       {"\"trace_out\": \"t.json\"", "\"metrics_interval_ns\": 1000000",
        "\"metrics_csv\": null", "\"telemetry\": {", "\"timeline\": [",
        "\"bank_requests\"", "\"channel_requests\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }

  // Untraced: every telemetry field is the literal null, so a jq del()
  // of the telemetry keys diffs traced vs untraced reports cleanly.
  Options off = parse_args({"--device", "comet", "--workload", "gcc_like",
                            "--requests", "300"});
  const auto plain_jobs = build_matrix(off.spec);
  std::ostringstream plain;
  comet::driver::write_json(plain, plain_jobs, results);
  for (const char* field :
       {"\"trace_out\": null", "\"trace_limit\": null",
        "\"metrics_interval_ns\": null", "\"telemetry\": null",
        "\"timeline\": null"}) {
    EXPECT_NE(plain.str().find(field), std::string::npos) << field;
  }
}

TEST(OptionsTest, TenantListParsesAndSortsByName) {
  const Options opt = parse_args(
      {"--device", "comet", "--tenants",
       "web=gcc_like,batch=mcf_like:40:0.5", "--tenant-mapping",
       "interleave"});
  const auto& tenants = opt.spec.tenants;
  ASSERT_EQ(tenants.size(), 2u);
  // Name order, not flag order: tenant ids and seeds must not depend
  // on how the user happened to type the list.
  EXPECT_EQ(tenants[0].name, "batch");
  EXPECT_EQ(tenants[0].profile.name, "mcf_like");
  EXPECT_DOUBLE_EQ(tenants[0].interarrival_ns, 40.0);
  EXPECT_DOUBLE_EQ(tenants[0].burstiness, 0.5);
  EXPECT_EQ(tenants[1].name, "web");
  EXPECT_EQ(tenants[1].profile.name, "gcc_like");
  EXPECT_DOUBLE_EQ(tenants[1].interarrival_ns, 0.0);
  EXPECT_EQ(opt.spec.tenant_mapping,
            comet::config::TenantMapping::kInterleave);
}

TEST(OptionsTest, TenantListDiagnostics) {
  // Malformed entries die at parse time (main() maps this to exit 2).
  EXPECT_THROW(parse_args({"--tenants", ""}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "webgcc_like"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "web="}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "=gcc_like"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "web=no_such_profile"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "web=gcc_like,web=mcf_like"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "web=gcc_like:abc"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "web=gcc_like:40:1.5"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "a b=gcc_like"}),
               std::invalid_argument);
  // A trace tenant's file must be readable at parse time.
  EXPECT_THROW(parse_args({"--tenants", "prod=@/no/such.nvt"}),
               std::invalid_argument);
}

TEST(OptionsTest, TenantFlagDependenciesRejectedAtParseTime) {
  EXPECT_THROW(parse_args({"--tenant-mapping", "interleave"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenants", "web=gcc_like", "--tenant-mapping",
                           "striped"}),
               std::invalid_argument);
  EXPECT_THROW(
      parse_args({"--tenants", "web=gcc_like", "--workload", "gcc_like"}),
      std::invalid_argument);
  EXPECT_THROW(
      parse_args({"--tenants", "web=gcc_like", "--dump-trace", "x.nvt"}),
      std::invalid_argument);
  const TempTraceFile file;
  EXPECT_THROW(parse_args({"--tenants", "web=gcc_like", "--trace-file",
                           file.path()}),
               std::invalid_argument);
}

TEST(OptionsTest, FairnessKnobsDemandTheirPolicy) {
  // The knobs only mean something under their policy; anywhere else
  // they would silently gate nothing.
  EXPECT_THROW(parse_args({"--tenant-tokens", "32"}), std::invalid_argument);
  EXPECT_THROW(parse_args({"--schedule", "frfcfs", "--tenant-tokens", "32"}),
               std::invalid_argument);
  EXPECT_THROW(
      parse_args({"--schedule", "token-budget", "--starvation-cap", "8"}),
      std::invalid_argument);
  EXPECT_THROW(parse_args({"--tenant-tokens", "0"}), std::invalid_argument);

  const auto budget =
      parse_args({"--schedule", "token-budget", "--tenant-tokens", "32"}).spec;
  ASSERT_EQ(budget.policies,
            std::vector<comet::sched::Policy>{
                comet::sched::Policy::kTokenBudget});
  EXPECT_EQ(budget.controller.tenant_tokens, 32);
  const auto capped =
      parse_args({"--schedule", "frfcfs-cap", "--starvation-cap", "8"}).spec;
  ASSERT_EQ(capped.policies,
            std::vector<comet::sched::Policy>{
                comet::sched::Policy::kFrFcfsCap});
  EXPECT_EQ(capped.controller.starvation_cap, 8);
}

TEST(SweepTest, TenantSpecsRideIntoEveryJob) {
  const auto jobs = build_matrix(parse_args(
      {"--device", "comet", "--tenants", "web=gcc_like,batch=mcf_like",
       "--schedule", "frfcfs-cap", "--requests", "500"}).spec);
  ASSERT_EQ(jobs.size(), 1u);
  ASSERT_EQ(jobs[0].tenants.size(), 2u);
  EXPECT_EQ(jobs[0].tenants[0].name, "batch");
  EXPECT_EQ(jobs[0].tenants[1].name, "web");
  EXPECT_EQ(jobs[0].profile.name, "batch+web");
  EXPECT_EQ(jobs[0].tenant_mapping, comet::config::TenantMapping::kPartition);
  ASSERT_TRUE(jobs[0].controller.has_value());
  EXPECT_EQ(jobs[0].controller->policy,
            comet::sched::Policy::kFrFcfsCap);
}

// ----------------------------------------------------------- knob table

using comet::config::ExperimentSpec;
using comet::config::Knob;
using comet::config::KnobKind;
using comet::sched::Policy;
namespace toml = comet::config::toml;

/// One knob-table row under test. `base` flags (and the `experiment`
/// lines spelling them) give the run devices and demand; `needs` (and
/// `section_lines`, written after the knob's key) are what the knob
/// refines. "{trace}" stands for a readable trace file.
struct KnobCase {
  std::string flag;
  std::string valid;  ///< A non-default value the row accepts.
  std::vector<std::pair<std::string, bool>> bounds;  ///< Value, accepted?
  std::function<bool(const ExperimentSpec&)> landed;
  std::vector<std::string> needs = {};
  std::string section_lines = "";
  std::vector<std::string> base = {"--device", "comet", "--workload",
                                   "gcc_like"};
  std::string experiment =
      "devices = [\"comet\"]\nworkloads = [\"gcc_like\"]\n";
};

void PrintTo(const KnobCase& knob_case, std::ostream* os) {
  *os << knob_case.flag;
}

std::vector<KnobCase> knob_cases() {
  const std::vector<std::string> device_only = {"--device", "comet"};
  const std::string device_line = "devices = [\"comet\"]\n";
  return {
      {.flag = "--device",
       .valid = "epcm",
       .bounds = {{"ddr4", true}, {"optane", false}, {"", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.devices.size() == 1 &&
                    spec.devices[0].name ==
                        comet::driver::make_device_spec("epcm").name;
           },
       .base = {"--workload", "gcc_like"},
       .experiment = "workloads = [\"gcc_like\"]\n"},
      {.flag = "--workload",
       .valid = "mcf_like",
       .bounds = {{"all", true}, {"nope_like", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.workloads.size() == 1 &&
                    spec.workloads[0].name == "mcf_like";
           },
       .base = device_only,
       .experiment = device_line},
      // 0 keeps each device's topology, as in [experiment] channels.
      {.flag = "--channels",
       .valid = "4",
       .bounds = {{"0", true}, {"-1", false}, {"2147483648", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.channels == std::vector<int>{4};
           }},
      {.flag = "--requests",
       .valid = "1234",
       .bounds = {{"0", false}, {"1", true}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.requests == std::vector<std::uint64_t>{1234};
           }},
      {.flag = "--seed",
       .valid = "7",
       .bounds = {{"0", true},
                  {"9223372036854775807", true},
                  {"9223372036854775808", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.seeds == std::vector<std::uint64_t>{7};
           }},
      {.flag = "--line-bytes",
       .valid = "64",
       .bounds = {{"0", false}, {"4294967295", true}, {"4294967296", false}},
       .landed =
           [](const ExperimentSpec& spec) { return spec.line_bytes == 64u; }},
      {.flag = "--trace-file",
       .valid = "{trace}",
       .bounds = {{"", false}, {"/no/such.nvt", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.trace_file.find("test_driver_tmp_") == 0;
           },
       .base = device_only,
       .experiment = device_line},
      // Capped at 1e6 GHz, as in [experiment] cpu_ghz.
      {.flag = "--cpu-ghz",
       .valid = "3.5",
       .bounds = {{"0", false}, {"1000000", true}, {"2000000", false}},
       .landed =
           [](const ExperimentSpec& spec) { return spec.cpu_ghz == 3.5; },
       .base = {"--device", "comet", "--trace-file", "{trace}"},
       .experiment = device_line + "trace_file = \"{trace}\"\n"},
      {.flag = "--run-threads",
       .valid = "2",
       .bounds = {{"0", true}, {"2147483648", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.run_threads == std::vector<int>{2};
           }},
      {.flag = "--schedule",
       .valid = "frfcfs",
       .bounds = {{"read-first", true}, {"lifo", false}, {"", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.policies == std::vector<Policy>{Policy::kFrFcfs};
           }},
      {.flag = "--read-q",
       .valid = "16",
       .bounds = {{"0", true}, {"2147483648", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.controller.read_queue_depth == 16;
           },
       .needs = {"--schedule", "fcfs"},
       .section_lines = "policy = \"fcfs\"\n"},
      {.flag = "--write-q",
       .valid = "16",
       .bounds = {{"0", true}, {"2147483648", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.controller.write_queue_depth == 16;
           },
       .needs = {"--schedule", "frfcfs"},
       .section_lines = "policy = \"frfcfs\"\n"},
      {.flag = "--drain-high",
       .valid = "20",
       .bounds = {{"0", false}, {"12", true}, {"32", true}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.controller.drain_high_watermark == 20;
           },
       .needs = {"--schedule", "read-first"},
       .section_lines = "policy = \"read-first\"\n"},
      {.flag = "--drain-low",
       .valid = "4",
       .bounds = {{"0", true}, {"-1", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.controller.drain_low_watermark == 4;
           },
       .needs = {"--schedule", "read-first"},
       .section_lines = "policy = \"read-first\"\n"},
      {.flag = "--tenant-tokens",
       .valid = "8",
       .bounds = {{"0", false}, {"1", true}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.controller.tenant_tokens == 8;
           },
       .needs = {"--schedule", "token-budget"},
       .section_lines = "policy = \"token-budget\"\n"},
      {.flag = "--starvation-cap",
       .valid = "4",
       .bounds = {{"0", false}, {"1", true}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.controller.starvation_cap == 4;
           },
       .needs = {"--schedule", "frfcfs-cap"},
       .section_lines = "policy = \"frfcfs-cap\"\n"},
      {.flag = "--tenant-mapping",
       .valid = "interleave",
       .bounds = {{"partition", true}, {"striped", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.tenant_mapping ==
                    comet::config::TenantMapping::kInterleave;
           },
       .section_lines = "[tenant.web]\nworkload = \"gcc_like\"\n",
       .base = {"--device", "comet", "--tenants", "web=gcc_like"},
       .experiment = device_line},
      {.flag = "--trace-out",
       .valid = "t.json",
       .bounds = {{"", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.telemetry.trace_path == "t.json";
           }},
      {.flag = "--trace-limit",
       .valid = "500",
       .bounds = {{"0", true}, {"-1", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.telemetry.trace_limit == 500u;
           },
       .needs = {"--trace-out", "t.json"},
       .section_lines = "trace_out = \"t.json\"\n"},
      {.flag = "--metrics-interval",
       .valid = "1000",
       .bounds = {{"0", false},
                  {"1", true},
                  {"18446744073709551", true},
                  {"18446744073709552", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.telemetry.metrics_interval_ps == 1'000'000u;
           }},
      {.flag = "--metrics-csv",
       .valid = "t.csv",
       .bounds = {{"", false}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.telemetry.metrics_csv == "t.csv";
           },
       .needs = {"--metrics-interval", "1000"},
       .section_lines = "metrics_interval_ns = 1000\n"},
      {.flag = "--profile",
       .valid = "",
       .bounds = {},
       .landed =
           [](const ExperimentSpec& spec) { return spec.profile.profile; }},
      {.flag = "--progress",
       .valid = "250",
       .bounds = {{"0", false}, {"1", true}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.profile.progress_ms == 250u;
           }},
      {.flag = "--assert-slo",
       .valid = "p99_read_latency_ns<=2500",
       .bounds = {{"", false}, {"nope<=1", false}, {"wall_s<=3600", true}},
       .landed =
           [](const ExperimentSpec& spec) {
             return spec.profile.slo.size() == 1;
           }},
  };
}

class KnobRow : public ::testing::TestWithParam<KnobCase> {
 protected:
  const Knob& knob() const {
    const Knob* row = comet::config::find_knob(GetParam().flag);
    if (!row) throw std::logic_error("no knob row for " + GetParam().flag);
    return *row;
  }

  std::string fill(std::string text) const {
    const std::string marker = "{trace}";
    const auto at = text.find(marker);
    if (at != std::string::npos) text.replace(at, marker.size(), trace_.path());
    return text;
  }

  /// The row spelled as flags: base, needs, then the knob itself.
  std::vector<std::string> flags(const std::string& value) const {
    std::vector<std::string> out;
    for (const auto& arg : GetParam().base) out.push_back(fill(arg));
    for (const auto& arg : GetParam().needs) out.push_back(arg);
    if (knob().kind == KnobKind::kFlag) {
      out.push_back(knob().flag);
    } else if (knob().kind == KnobKind::kOptional) {
      out.push_back(std::string(knob().flag) + "=" + value);
    } else {
      out.push_back(knob().flag);
      out.push_back(fill(value));
    }
    return out;
  }

  /// The same run spelled as a config document.
  std::string document(const std::string& value) const {
    std::string literal = value;
    if (knob().kind == KnobKind::kString) {
      literal = toml::format_string(fill(value));
    }
    if (knob().kind == KnobKind::kFlag) literal = "true";
    const std::string line = std::string(knob().key) + " = " + literal + "\n";
    std::string text = "[experiment]\n" + fill(GetParam().experiment);
    if (std::string(knob().section) != "experiment") {
      text += "[" + std::string(knob().section) + "]\n";
    }
    return text + line + GetParam().section_lines;
  }

 private:
  TempTraceFile trace_;
};

// (a) flag -> write_experiment -> parse_experiment -> write_experiment
// reaches a fixpoint, with the value in its spec field throughout.
TEST_P(KnobRow, FlagRoundTripsThroughTheDocument) {
  const Options opt = parse_args(flags(GetParam().valid));
  EXPECT_TRUE(GetParam().landed(opt.spec));
  const std::string written = comet::config::experiment_to_toml(opt.spec);
  const auto reparsed = comet::config::parse_experiment(
      toml::parse_string(written, "dump.toml"),
      comet::driver::registry_resolver());
  EXPECT_TRUE(GetParam().landed(reparsed)) << written;
  EXPECT_EQ(comet::config::experiment_to_toml(reparsed), written);
}

// (b) Boundary values get the same verdict as a flag and as a key. Flag
// errors are std::invalid_argument naming the flag; document errors
// name the file (and the line, for schema errors).
TEST_P(KnobRow, BoundsAgreeAcrossSpellings) {
  for (const auto& [value, accepted] : GetParam().bounds) {
    bool flag_accepted = true;
    try {
      (void)parse_args(flags(value));
    } catch (const std::invalid_argument& e) {
      flag_accepted = false;
      EXPECT_NE(std::string(e.what()).find(knob().flag), std::string::npos)
          << e.what();
    }
    const TempTomlFile file(document(value));
    bool key_accepted = true;
    try {
      (void)parse_args({"--config", file.path()});
    } catch (const toml::ParseError& e) {
      key_accepted = false;
      EXPECT_GT(e.line(), 0u) << e.what();
      EXPECT_NE(std::string(e.what()).find(file.path() + ":" +
                                           std::to_string(e.line())),
                std::string::npos)
          << e.what();
    } catch (const std::invalid_argument& e) {
      key_accepted = false;
      EXPECT_NE(std::string(e.what()).find(file.path()), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(flag_accepted, accepted) << "'" << value << "' as a flag";
    EXPECT_EQ(key_accepted, accepted) << "'" << value << "' as a key";
  }
}

// (c) Every row's flag is in --help.
TEST_P(KnobRow, FlagAppearsInUsage) {
  EXPECT_NE(comet::driver::usage().find("  " + GetParam().flag),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    KnobTable, KnobRow, ::testing::ValuesIn(knob_cases()),
    [](const ::testing::TestParamInfo<KnobCase>& info) {
      std::string name = info.param.flag.substr(2);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(KnobTableTest, EveryRowHasAPropertyCase) {
  const auto cases = knob_cases();
  EXPECT_EQ(cases.size(), comet::config::knobs().size());
  for (const Knob& knob : comet::config::knobs()) {
    const bool covered =
        std::any_of(cases.begin(), cases.end(), [&](const KnobCase& c) {
          return c.flag == knob.flag;
        });
    EXPECT_TRUE(covered) << knob.flag;
  }
}

// ------------------------------------------------------ metric table
//
// One case per row of memsim::metrics(): the row's JSON placement, its
// --assert-slo spelling, its applicability and its degenerate value are
// checked against real write_json records.

namespace ms = comet::memsim;

/// One written record and the inputs that produced it.
struct MetricRecord {
  std::string label;
  ms::SimStats stats;
  std::unique_ptr<comet::prof::Profiler> host;
  std::string json;

  /// The text between `begin` and `end` (empty when `begin` is absent).
  std::string region(const std::string& begin, const std::string& end) const {
    const auto from = json.find(begin);
    if (from == std::string::npos) return "";
    return json.substr(from, json.find(end, from) - from);
  }

  /// The `"key": ` pairs written at `place`: the top-level metric block
  /// between the provenance fields and "sched", the tenants object
  /// before "streams" and the host object before "stages".
  std::string at(ms::MetricPlace place) const {
    switch (place) {
      case ms::MetricPlace::kRecord:
        return region("\"config_file\"", "\"sched\"");
      case ms::MetricPlace::kTenants:
        return region("\"tenants\": {", "\"streams\"");
      case ms::MetricPlace::kHost:
        return region("\"host\": {", "\"stages\"");
      case ms::MetricPlace::kNone: return "";
    }
    return "";
  }
};

/// A flat, a hybrid, a multi-tenant and a profiled record.
const std::vector<MetricRecord>& metric_records() {
  static const std::vector<MetricRecord> records = [] {
    const std::pair<const char*, std::vector<std::string>> runs[] = {
        {"flat", {"--device", "comet", "--workload", "gcc_like"}},
        {"hybrid", {"--device", "hybrid-comet", "--workload", "gcc_like"}},
        {"tenants",
         {"--device", "comet", "--tenants", "a=gcc_like,b=lbm_like"}},
        {"profiled",
         {"--device", "comet", "--workload", "gcc_like", "--profile"}},
    };
    std::vector<MetricRecord> out;
    for (auto [label, args] : runs) {
      args.insert(args.end(), {"--requests", "300"});
      const auto jobs = build_matrix(parse_args(args).spec);
      auto profilers = comet::driver::make_profilers(jobs);
      const auto results = run_sweep(jobs, 1, nullptr, &profilers);
      std::ostringstream os;
      comet::driver::write_json(os, jobs, results, nullptr, &profilers);
      out.push_back({label, results.front(), std::move(profilers.front()),
                     os.str()});
    }
    return out;
  }();
  return records;
}

std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

class MetricRow : public ::testing::TestWithParam<std::string> {
 protected:
  const ms::Metric& metric() const { return ms::metric_by_name(GetParam()); }
};

// (a) Written exactly once at its place, and at no other place.
TEST_P(MetricRow, JsonWritesItOnceAtItsPlace) {
  const std::string key = "\"" + GetParam() + "\": ";
  bool written = false;
  for (const MetricRecord& record : metric_records()) {
    const ms::MetricInput in{record.stats, record.host.get()};
    for (const auto place : {ms::MetricPlace::kRecord,
                             ms::MetricPlace::kTenants,
                             ms::MetricPlace::kHost}) {
      const std::string region = record.at(place);
      if (place != metric().place) {
        EXPECT_EQ(occurrences(region, key), 0u) << record.label;
      } else if (!region.empty()) {
        EXPECT_EQ(occurrences(region, key), 1u) << record.label;
        EXPECT_NE(region.find(key + metric().json(in)), std::string::npos)
            << record.label;
        written = true;
      }
    }
    // Where the row applies, its object is in the record.
    if (metric().place != ms::MetricPlace::kNone && metric().applies(in)) {
      EXPECT_FALSE(record.at(metric().place).empty()) << record.label;
    }
  }
  EXPECT_EQ(written, metric().place != ms::MetricPlace::kNone);
}

// (b) --assert-slo accepts the JSON name.
TEST_P(MetricRow, AssertSloAcceptsTheName) {
  const auto spec = parse_args({"--assert-slo", GetParam() + ">=0"}).spec;
  ASSERT_EQ(spec.profile.slo.size(), 1u);
  EXPECT_EQ(spec.profile.slo[0].metric, GetParam());
}

// (c) Outside its scope a predicate is skipped, not failed; inside it
// the same impossible predicate fails.
TEST_P(MetricRow, InapplicableRecordsSkipThePredicate) {
  const auto impossible = comet::prof::parse_slo(GetParam() + "==-12345.5");
  bool applied = false;
  for (const MetricRecord& record : metric_records()) {
    const auto outcome =
        ms::evaluate_slo(impossible, {record.stats, record.host.get()}).front();
    EXPECT_EQ(outcome.pass, !outcome.applicable) << record.label;
    applied = applied || outcome.applicable;
  }
  EXPECT_TRUE(applied) << "no record in scope";
  const ms::SimStats empty;
  const auto outcome = ms::evaluate_slo(impossible, {empty}).front();
  EXPECT_EQ(outcome.applicable,
            metric().scope == ms::MetricScope::kAlways);
  EXPECT_EQ(outcome.pass, !outcome.applicable);
}

// (d) Empty stats with zero wall time give finite values everywhere.
TEST_P(MetricRow, EmptyStatsGiveFiniteValues) {
  const ms::SimStats empty;
  comet::prof::Profiler untimed{comet::prof::ProfSpec{}};
  untimed.set_run_totals(0.0, 0);
  for (const ms::MetricInput& in :
       {ms::MetricInput{empty}, ms::MetricInput{empty, &untimed}}) {
    EXPECT_TRUE(std::isfinite(metric().number(in)));
    const std::string json = metric().json(in);
    EXPECT_EQ(json.find_first_of("ni"), std::string::npos) << json;
    EXPECT_FALSE(metric().cell(in).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricTable, MetricRow,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const ms::Metric& metric : ms::metrics()) {
        names.emplace_back(metric.name);
      }
      return names;
    }()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(MetricTableTest, NamesAreUniqueAndConsoleColumnsAreOrdered) {
  std::vector<std::string> names;
  for (const ms::Metric& metric : ms::metrics()) {
    names.emplace_back(metric.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());

  // The console tables keep their headers: the per-run table and the
  // hybrid tier table read the rows' columns.
  std::ostringstream os;
  const MetricRecord& flat = metric_records()[0];
  const MetricRecord& hybrid = metric_records()[1];
  comet::driver::SweepJob job;
  job.device = comet::driver::make_device_spec("hybrid-comet");
  job.profile = comet::memsim::profile_by_name("gcc_like");
  comet::driver::print_report(os, {job, job}, {flat.stats, hybrid.stats},
                              /*csv=*/true);
  EXPECT_NE(os.str().find("device,workload,BW (GB/s),EPB (pJ/bit),"
                          "read lat (ns),write lat (ns),queue (ns)\n"),
            std::string::npos)
      << os.str();
  EXPECT_NE(os.str().find("device,workload,hit rate,writebacks,"
                          "DRAM tier (pJ),backend tier (pJ)\n"),
            std::string::npos)
      << os.str();
}

}  // namespace
