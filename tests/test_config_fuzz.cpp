// Fuzzer for the config readers. Seeded mutants of full experiment
// documents go through toml::parse_string and config::parse_experiment;
// mutants of the --tenants, --assert-slo and --cache-* values go through
// driver::parse_args. Every input must either succeed or throw a
// std::exception. An accepted spec must dump (experiment_to_toml) a
// document that reads back to the same dump: the --dump-config
// invariant.
//
// Stdlib only (no libFuzzer on a gcc toolchain); the sanitizer lane runs
// it under ASan+UBSan like every other gtest.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "config/experiment.hpp"
#include "config/toml.hpp"
#include "driver/options.hpp"
#include "driver/registry.hpp"

namespace config = comet::config;

namespace {

constexpr int kDocumentMutants = 4000;
constexpr int kFlagMutants = 2000;

/// Valid documents covering every section the reader knows, the three
/// cache_* keys and an inline hybrid [[device]] with [device.cache].
const char* const kDocuments[] = {
    R"([experiment]
name = "fuzz"
devices = ["comet", "hybrid-comet"]
workloads = ["gcc_like"]
requests = [1000, 2000]
seed = 7
channels = [0, 4]
line_bytes = 128
cache_mb = 32
cache_ways = 4
cache_policy = "write-no-allocate"

[controller]
policy = ["frfcfs", "read-first"]
read_queue_depth = 16
write_queue_depth = 16
drain_high_watermark = 12
drain_low_watermark = 4
run_threads = [1, 2]

[telemetry]
trace_out = "t.json"
trace_limit = 100
metrics_interval_ns = 1000
metrics_csv = "t.csv"

[profile]
enabled = true
progress_ms = 250

[slo]
assert = "p99_read_latency_ns<=2500,requests_per_s>=5e6"

[[device]]
base = "comet"
name = "comet-cached"
[device.cache]
capacity_mb = 16
ways = 4
policy = "write-allocate"
[device.dram.timing]
read_occupancy_ps = 99000

[[workload]]
name = "scan"
pattern = "streaming"
read_fraction = 0.5
)",
    R"([experiment]
name = "tenants"
devices = ["hybrid-comet"]
cache_ways = 16

[tenant]
mapping = "interleave"
[tenant.web]
workload = "gcc_like"
interarrival_ns = 50.0
burstiness = 0.5
[tenant.batch]
workload = "lbm_like"
requests = 500

[controller]
policy = "token-budget"
tenant_tokens = 8
)",
    R"([experiment]
devices = ["epcm"]
trace_file = "replay.nvt"
cpu_ghz = 3.5
cache_mb = 8

[[device]]
name = "explicit"
kind = "hybrid"
[device.cache]
capacity_bytes = 1048576
line_bytes = 1024
[device.backend]
base = "epcm"
[device.backend.timing]
channels = 2

[controller]
policy = "frfcfs-cap"
starvation_cap = 4
)",
};

/// Literals that sit on a reader's bounds or outside its types.
const char* const kNumbers[] = {
    "0", "-1", "1", "4", "2147483648", "1e308", "9223372036854775807",
    "9223372036854775808", "1073741824", "1073741825", "0.5", "nan", "inf",
    "-0.0", "18446744073709551616", "true", "[]", "[1, \"a\"]", "\"\""};

const char* const kStrings[] = {
    "\"all\"", "\"hybrid-all\"", "\"comet\"", "\"hybrid-comet\"",
    "\"hybrid-epcm\"", "\"write-through\"", "\"write-allocate\"", "\"\"",
    "\"frfcfs\"", "\"lifo\"", "\"gcc_like\"", "\"a\\\"b\"",
    "[\"comet\", \"all\"]", "7"};

/// Keys that may land in a section they do not belong to.
const char* const kKeys[] = {
    "cache_mb", "cache_ways", "cache_policy", "devices", "base", "kind",
    "capacity_mb", "capacity_bytes", "ways", "policy", "channels", "requests",
    "run_threads", "write_queue_depth", "drain_high_watermark", "progress_ms",
    "assert", "mapping", "workload", "trace_file", "name"};

/// Characters the TOML subset gives meaning to, plus a few it rejects.
const std::string kAlphabet = "[]=\"#.,\n -+_0123456789eExaz{}'\\\t:@<>!";

template <typename T, std::size_t N>
const T& pick(std::mt19937_64& rng, const T (&items)[N]) {
  return items[rng() % N];
}

const char* edge_literal(std::mt19937_64& rng) {
  return rng() % 2 ? pick(rng, kNumbers) : pick(rng, kStrings);
}

/// 1 edit mostly, so a share of the mutants stay valid and reach the
/// round trip; 2-3 now and then.
int edit_count(std::mt19937_64& rng) {
  return rng() % 4 == 0 ? 2 + rng() % 2 : 1;
}

/// The [begin, end) span of the token at `pos` (a run of characters
/// that are not separators); empty when `pos` is on a separator.
std::pair<std::size_t, std::size_t> token_at(const std::string& text,
                                             std::size_t pos) {
  const std::string separators = " \n=,[]";
  const auto inside = [&](std::size_t at) {
    return separators.find(text[at]) == std::string::npos;
  };
  if (pos >= text.size() || !inside(pos)) return {pos, pos};
  std::size_t begin = pos, end = pos;
  while (begin > 0 && inside(begin - 1)) --begin;
  while (end < text.size() && inside(end)) ++end;
  return {begin, end};
}

/// One random edit: a character, a token, or a whole line.
void mutate(std::string& text, std::mt19937_64& rng) {
  const std::size_t pos = rng() % (text.size() + 1);
  const std::size_t line = pos ? text.rfind('\n', pos - 1) : std::string::npos;
  const std::size_t line_begin = line == std::string::npos ? 0 : line + 1;
  const std::size_t line_end = text.find('\n', line_begin);
  switch (rng() % 8) {
    case 0:  // Insert a character.
      text.insert(pos, 1, kAlphabet[rng() % kAlphabet.size()]);
      break;
    case 1:  // Delete a short run.
      if (pos < text.size()) text.erase(pos, 1 + rng() % 4);
      break;
    case 2:
    case 3: {  // Replace a token with an edge literal.
      const auto [begin, end] = token_at(text, pos);
      if (begin != end) text.replace(begin, end - begin, edge_literal(rng));
      break;
    }
    case 4: {  // Add a key line after this line.
      if (line_end == std::string::npos) break;
      const std::string key = pick(rng, kKeys);
      text.insert(line_end + 1, key + " = " + edge_literal(rng) + "\n");
      break;
    }
    case 5:  // Duplicate this line.
      if (line_end == std::string::npos) break;
      text.insert(line_begin, text, line_begin, line_end - line_begin + 1);
      break;
    case 6:  // Drop this line.
      if (line_end == std::string::npos) break;
      text.erase(line_begin, line_end - line_begin + 1);
      break;
    default:  // Truncate, mid-line or after a whole line.
      if (rng() % 2 == 0 && line_end != std::string::npos) {
        text.resize(line_end + 1);
      } else {
        text.resize(pos);
      }
      break;
  }
}

/// The --dump-config invariant: the dump of `spec` reads back to a spec
/// whose dump is the same text. Returns what broke it, or "".
std::string round_trip_failure(const config::ExperimentSpec& spec) {
  const std::string written = config::experiment_to_toml(spec);
  try {
    const auto reparsed = config::parse_experiment(
        config::toml::parse_string(written, "dump.toml"),
        comet::driver::resolve_device_specs);
    const std::string rewritten = config::experiment_to_toml(reparsed);
    if (rewritten == written) return "";
    return "the dump changed on re-read:\n" + written + "--- vs ---\n" +
           rewritten;
  } catch (const std::exception& e) {
    return "the dump does not read back (" + std::string(e.what()) +
           "):\n" + written;
  }
}

/// Runs inputs through their readers: counts the accepted ones and
/// reports the first few broken contracts (a throw that is not a
/// std::exception, or a dump that is not a fixpoint).
class Tally {
 public:
  template <typename Read>
  void add(const std::string& input, Read&& read) {
    std::string failure;
    try {
      const config::ExperimentSpec spec = read();
      ++accepted_;
      failure = round_trip_failure(spec);
    } catch (const std::exception&) {
      return;
    } catch (...) {
      failure = "threw something that is not a std::exception";
    }
    if (!failure.empty() && ++failures_ <= 5) {
      ADD_FAILURE() << failure << "\ninput:\n" << input;
    }
  }
  int accepted() const { return accepted_; }
  int failures() const { return failures_; }

 private:
  int accepted_ = 0;
  int failures_ = 0;
};

config::ExperimentSpec read_document(const std::string& text) {
  return config::parse_experiment(config::toml::parse_string(text, "f.toml"),
                                  comet::driver::resolve_device_specs);
}

TEST(ConfigFuzz, DocumentMutantsParseOrThrowAndDumpsAreFixpoints) {
  std::mt19937_64 rng(0xC0FF1C);
  Tally tally;
  for (const char* seed : kDocuments) {
    tally.add(seed, [&] { return read_document(seed); });
  }
  ASSERT_EQ(tally.accepted(), 3) << "every seed document must parse";
  for (int i = 0; i < kDocumentMutants; ++i) {
    std::string text = pick(rng, kDocuments);
    for (int edits = edit_count(rng); edits > 0; --edits) mutate(text, rng);
    tally.add(text, [&] { return read_document(text); });
  }
  EXPECT_EQ(tally.failures(), 0);
  // A fuzzer whose mutants all fail tests nothing past the first error.
  EXPECT_GT(tally.accepted(), kDocumentMutants / 20);
}

TEST(ConfigFuzz, FlagValueMutantsParseOrThrowAndDumpsAreFixpoints) {
  const std::pair<std::string, std::string> seeds[] = {
      {"--tenants", "web=gcc_like:50:0.5,batch=lbm_like"},
      {"--tenants", "a=mcf_like,b=@replay.nvt"},
      {"--assert-slo", "p99_read_latency_ns<=2500,requests_per_s>=5e6"},
      {"--assert-slo", "wall_s<=3600"},
      {"--cache-mb", "32"},
      {"--cache-ways", "16"},
      {"--cache-policy", "write-no-allocate"},
  };
  std::mt19937_64 rng(0xF1A65);
  Tally tally;
  for (int i = 0; i < kFlagMutants; ++i) {
    const auto& [flag, seed] = pick(rng, seeds);
    std::string value = seed;
    for (int edits = edit_count(rng); edits > 0; --edits) mutate(value, rng);
    std::vector<std::string> args = {"--device", "hybrid-comet", flag, value};
    if (flag != "--tenants") {
      args.insert(args.end(), {"--workload", "gcc_like"});
    }
    tally.add(flag + " '" + value + "'",
              [&] { return comet::driver::parse_args(args).spec; });
  }
  EXPECT_EQ(tally.failures(), 0);
  EXPECT_GT(tally.accepted(), kFlagMutants / 20);
}

}  // namespace
