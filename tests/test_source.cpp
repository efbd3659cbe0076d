// Streaming API tests: RequestSource implementations (vector, lazy
// generator, on-disk trace file), the polymorphic Engine seam, and the
// acceptance criterion that streamed replay is bit-identical to the
// materialized-vector path for every registry device, flat and hybrid.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/registry.hpp"
#include "memsim/engine.hpp"
#include "memsim/source.hpp"
#include "memsim/system.hpp"
#include "memsim/trace.hpp"
#include "memsim/trace_gen.hpp"

namespace ms = comet::memsim;

namespace {

/// Writes `content` to a fresh temp file and deletes it on scope exit.
/// Pid-qualified so parallel ctest invocations never collide.
class TempTrace {
 public:
  explicit TempTrace(const std::string& content)
      : path_("test_source_tmp_" + std::to_string(::getpid()) + "_" +
              std::to_string(next_serial()++) + ".trace") {
    std::ofstream out(path_);
    out << content;
  }
  ~TempTrace() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static int& next_serial() {
    static int serial = 0;
    return serial;
  }
  std::string path_;
};

std::vector<std::string> all_registry_tokens() {
  std::vector<std::string> tokens = comet::driver::known_devices();
  for (const auto& token : comet::driver::known_hybrid_devices()) {
    tokens.push_back(token);
  }
  return tokens;
}

}  // namespace

// ------------------------------------------------------ VectorSource

TEST(VectorSource, DrainsInOrderThenStaysEmpty) {
  const auto trace =
      ms::TraceGenerator(ms::profile_by_name("gcc_like"), 1).generate(10, 64);
  ms::VectorSource source(trace);
  for (const auto& expected : trace) {
    const auto req = source.next();
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->id, expected.id);
    EXPECT_EQ(req->address, expected.address);
  }
  EXPECT_FALSE(source.next().has_value());
  EXPECT_FALSE(source.next().has_value());
}

TEST(VectorSource, OwningConstructorMovesTheVector) {
  auto trace =
      ms::TraceGenerator(ms::profile_by_name("gcc_like"), 2).generate(5, 64);
  const std::size_t count = trace.size();
  ms::VectorSource source(std::move(trace));
  std::size_t drained = 0;
  while (source.next()) ++drained;
  EXPECT_EQ(drained, count);
}

// --------------------------------------------------- GeneratorSource

TEST(GeneratorSource, BitIdenticalToMaterializedGenerate) {
  for (const auto& profile : ms::spec_like_profiles()) {
    const ms::TraceGenerator gen(profile, 7);
    const auto materialized = gen.generate(800, 128);
    auto source = gen.stream(800, 128);
    for (const auto& expected : materialized) {
      const auto req = source.next();
      ASSERT_TRUE(req.has_value()) << profile.name;
      EXPECT_EQ(req->id, expected.id) << profile.name;
      EXPECT_EQ(req->arrival_ps, expected.arrival_ps) << profile.name;
      EXPECT_EQ(req->op, expected.op) << profile.name;
      EXPECT_EQ(req->address, expected.address) << profile.name;
      EXPECT_EQ(req->size_bytes, expected.size_bytes) << profile.name;
    }
    EXPECT_FALSE(source.next().has_value()) << profile.name;
  }
}

TEST(GeneratorSource, RemainingCountsDown) {
  auto source = ms::TraceGenerator(ms::profile_by_name("lbm_like"), 3)
                    .stream(4, 128);
  EXPECT_EQ(source.remaining(), 4u);
  (void)source.next();
  EXPECT_EQ(source.remaining(), 3u);
  while (source.next()) {
  }
  EXPECT_EQ(source.remaining(), 0u);
}

TEST(GeneratorSource, RejectsBadLineSizeAndProfile) {
  const auto profile = ms::profile_by_name("gcc_like");
  EXPECT_THROW(ms::GeneratorSource(profile, 1, 10, 0), std::invalid_argument);
  EXPECT_THROW(ms::GeneratorSource(profile, 1, 10, 100),
               std::invalid_argument);
  auto bad = profile;
  bad.read_fraction = 1.5;
  EXPECT_THROW(ms::GeneratorSource(bad, 1, 10, 64), std::invalid_argument);
  // Degenerate geometries that would divide by zero inside next():
  // a line wider than the 4 KB row, or a working set below one line.
  EXPECT_THROW(ms::GeneratorSource(profile, 1, 10, 8192),
               std::invalid_argument);
  auto tiny = profile;
  tiny.working_set_bytes = 64;
  EXPECT_THROW(ms::GeneratorSource(tiny, 1, 10, 128), std::invalid_argument);
}

// ----------------------------------------------------- ReplaySession

TEST(ReplaySession, FeedAfterFinishThrows) {
  const ms::MemorySystem system(comet::driver::make_device("comet"));
  ms::ReplaySession session(system, "test");
  session.feed(ms::Request{});
  EXPECT_EQ(session.fed(), 1u);
  (void)session.finish();
  EXPECT_THROW(session.feed(ms::Request{}), std::logic_error);
  EXPECT_THROW(session.finish(), std::logic_error);
}

TEST(ReplaySession, RejectsOutOfOrderFeeds) {
  const ms::MemorySystem system(comet::driver::make_device("comet"));
  ms::ReplaySession session(system, "test");
  session.feed(ms::Request{.arrival_ps = 1000});
  try {
    session.feed(ms::Request{.arrival_ps = 500});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("index 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("500"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1000"), std::string::npos) << msg;
  }
}

// -------------------------------------- Engine: streamed == vector

// Acceptance criterion: streaming replay of a generator-backed source is
// bit-identical to the materialized-vector path for every registry
// device, flat and hybrid.
TEST(Engine, GeneratorSourceMatchesVectorPathForEveryRegistryDevice) {
  const auto profile = ms::profile_by_name("gcc_like");
  const ms::TraceGenerator gen(profile, 42);
  const auto trace = gen.generate(1500, 128);
  for (const auto& token : all_registry_tokens()) {
    const auto spec = comet::driver::make_device_spec(token);
    const auto engine = spec.make_engine();
    const auto materialized = engine->run(trace, profile.name);
    auto source = gen.stream(1500, 128);
    const auto streamed = engine->run(source, profile.name);
    EXPECT_TRUE(streamed == materialized) << token;
  }
}

TEST(Engine, VectorAdapterMatchesExplicitVectorSource) {
  const auto spec = comet::driver::make_device_spec("comet");
  const auto engine = spec.make_engine();
  const auto trace =
      ms::TraceGenerator(ms::profile_by_name("mcf_like"), 9).generate(600, 64);
  ms::VectorSource source(trace);
  EXPECT_TRUE(engine->run(source, "w") == engine->run(trace, "w"));
}

// ----------------------------------------------------- TraceFileSource

TEST(TraceFileSource, MissingFileThrowsNamingThePath) {
  try {
    ms::TraceFileSource source("/no/such/dir/missing.trace",
                               ms::TraceConfig{});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/dir/missing.trace"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceFileSource, StreamsRecordsWithConfigApplied) {
  const TempTrace file(
      "# header comment\n"
      "100 R 0x1000\n"
      "\n"
      "200 W 0x2040 0xdeadbeef 3\n");  // NVMain data payload ignored
  ms::TraceFileSource source(file.path(),
                             ms::TraceConfig{.cpu_clock_ghz = 2.0,
                                             .line_bytes = 64});
  const auto first = source.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->op, ms::Op::kRead);
  EXPECT_EQ(first->address, 0x1000u);
  EXPECT_EQ(first->arrival_ps, 50000u);  // 100 cycles at 2 GHz
  EXPECT_EQ(first->size_bytes, 64u);
  const auto second = source.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->op, ms::Op::kWrite);
  EXPECT_FALSE(source.next().has_value());
}

TEST(TraceFileSource, MalformedLineNamesNumberAndText) {
  const TempTrace file("100 R 0x1000\nnot a record\n");
  ms::TraceFileSource source(file.path(), ms::TraceConfig{});
  ASSERT_TRUE(source.next().has_value());
  try {
    (void)source.next();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("not a record"), std::string::npos) << msg;
    EXPECT_NE(msg.find(file.path()), std::string::npos) << msg;
  }
}

TEST(TraceFileSource, NonMonotonicCycleRejectedIncrementally) {
  const TempTrace file("100 R 0x0\n200 R 0x40\n150 W 0x80\n");
  ms::TraceFileSource source(file.path(), ms::TraceConfig{});
  ASSERT_TRUE(source.next().has_value());
  ASSERT_TRUE(source.next().has_value());
  try {
    (void)source.next();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("non-monotonic"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("150"), std::string::npos) << msg;
    EXPECT_NE(msg.find("200"), std::string::npos) << msg;
  }
}

// Round-trip acceptance: a trace written to disk replays bit-identically
// whether materialized through read_trace or streamed through
// TraceFileSource — flat and hybrid.
TEST(TraceFileSource, RoundTrippedFileMatchesMaterializedReplay) {
  const ms::TraceConfig config{.cpu_clock_ghz = 3.0, .line_bytes = 64};
  const auto trace = ms::TraceGenerator(ms::profile_by_name("omnetpp_like"), 5)
                         .generate(2000, 64);
  std::ostringstream text;
  ms::write_trace(text, trace, config);
  const TempTrace file(text.str());

  std::ifstream in(file.path());
  const auto materialized = ms::read_trace(in, config);
  for (const char* token : {"comet", "hybrid-comet"}) {
    const auto engine = comet::driver::make_device_spec(token).make_engine();
    const auto from_vector = engine->run(materialized, "trace");
    ms::TraceFileSource source(file.path(), config);
    const auto streamed = engine->run(source, "trace");
    EXPECT_TRUE(streamed == from_vector) << token;
  }
}

// ------------------------------------------------- streaming write

TEST(WriteTrace, StreamingOverloadMatchesVectorOverload) {
  const ms::TraceGenerator gen(ms::profile_by_name("milc_like"), 11);
  const ms::TraceConfig config{};
  std::ostringstream from_vector;
  ms::write_trace(from_vector, gen.generate(300, 128), config);
  std::ostringstream from_stream;
  auto source = gen.stream(300, 128);
  ms::write_trace(from_stream, source, config);
  EXPECT_EQ(from_vector.str(), from_stream.str());
}

// ------------------------------------------------- next_batch contract

namespace {

/// Drains `batched` through next_batch with an awkward non-divisor
/// batch size (and one interleaved next() to prove mixing is safe) and
/// checks it yields exactly the `reference` stream of next() calls.
void expect_batches_match_next(ms::RequestSource& reference,
                               ms::RequestSource& batched,
                               const std::string& context) {
  std::vector<ms::Request> expected;
  while (const auto req = reference.next()) expected.push_back(*req);

  std::vector<ms::Request> got;
  ms::Request block[7];  // deliberately not a divisor of typical sizes
  bool interleaved = false;
  for (;;) {
    if (!interleaved && got.size() >= 3) {
      interleaved = true;  // one scalar pull mid-stream
      if (const auto req = batched.next()) got.push_back(*req);
      continue;
    }
    const std::size_t pulled = batched.next_batch(block, 7);
    if (pulled == 0) break;
    ASSERT_LE(pulled, 7u) << context;
    got.insert(got.end(), block, block + pulled);
  }
  EXPECT_EQ(batched.next_batch(block, 7), 0u) << context;  // stays drained

  ASSERT_EQ(got.size(), expected.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id) << context << " #" << i;
    EXPECT_EQ(got[i].arrival_ps, expected[i].arrival_ps)
        << context << " #" << i;
    EXPECT_EQ(got[i].op, expected[i].op) << context << " #" << i;
    EXPECT_EQ(got[i].address, expected[i].address) << context << " #" << i;
    EXPECT_EQ(got[i].size_bytes, expected[i].size_bytes)
        << context << " #" << i;
  }
}

}  // namespace

TEST(NextBatch, VectorSourceMatchesScalarPulls) {
  const auto trace =
      ms::TraceGenerator(ms::profile_by_name("gcc_like"), 13).generate(100, 64);
  ms::VectorSource reference(trace);
  ms::VectorSource batched(trace);
  expect_batches_match_next(reference, batched, "VectorSource");
}

TEST(NextBatch, GeneratorSourceMatchesScalarPulls) {
  for (const auto& profile : ms::spec_like_profiles()) {
    const ms::TraceGenerator gen(profile, 17);
    auto reference = gen.stream(100, 64);
    auto batched = gen.stream(100, 64);
    expect_batches_match_next(reference, batched, profile.name);
  }
}

TEST(NextBatch, TraceFileSourceMatchesScalarPulls) {
  const ms::TraceConfig config{.cpu_clock_ghz = 2.0, .line_bytes = 64};
  std::ostringstream text;
  ms::write_trace(
      text,
      ms::TraceGenerator(ms::profile_by_name("lbm_like"), 19).generate(100, 64),
      config);
  const TempTrace file(text.str());
  ms::TraceFileSource reference(file.path(), config);
  ms::TraceFileSource batched(file.path(), config);
  expect_batches_match_next(reference, batched, "TraceFileSource");
}

TEST(NextBatch, ZeroCapacityReturnsZeroWithoutConsuming) {
  const auto trace =
      ms::TraceGenerator(ms::profile_by_name("gcc_like"), 23).generate(5, 64);
  ms::VectorSource source(trace);
  EXPECT_EQ(source.next_batch(nullptr, 0), 0u);
  std::size_t drained = 0;
  while (source.next()) ++drained;
  EXPECT_EQ(drained, trace.size());  // nothing was lost
}
