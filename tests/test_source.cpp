// Streaming API tests: RequestSource implementations (vector, lazy
// generator, on-disk trace file, the tenant pacer and merge), the
// polymorphic Engine seam, and the acceptance criterion that streamed
// replay is bit-identical to the materialized-vector path for every
// registry device, flat and hybrid.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "driver/registry.hpp"
#include "memsim/engine.hpp"
#include "memsim/source.hpp"
#include "memsim/system.hpp"
#include "memsim/trace.hpp"
#include "memsim/trace_gen.hpp"
#include "place_request_reference.hpp"
#include "tenant/multi_source.hpp"
#include "trace_reader_reference.hpp"
#include "util/rng.hpp"

namespace ct = comet::test;
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
  const ms::MemorySystem system(
      *comet::driver::make_device_spec("comet").flat);
  ms::ReplaySession session(system, "test");
  session.feed(ms::Request{});
  EXPECT_EQ(session.finish_slice().fed, 1u);
  EXPECT_THROW(session.feed(ms::Request{}), std::logic_error);
  EXPECT_THROW(session.finish_slice(), std::logic_error);
}

TEST(ReplaySession, RejectsOutOfOrderFeeds) {
  const ms::MemorySystem system(
      *comet::driver::make_device_spec("comet").flat);
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

TEST(ReplaySession, RejectsASecondChannel) {
  const ms::MemorySystem system(
      *comet::driver::make_device_spec("comet").flat);
  const ms::Request first{.arrival_ps = 0, .address = 0};
  ms::Request other{.arrival_ps = 1000, .address = 64};
  while (system.address_map().channel(other) ==
         system.address_map().channel(first)) {
    other.address += 64;
  }
  ms::ReplaySession session(system, "test");
  session.feed(first);
  EXPECT_THROW(session.feed(other), std::logic_error);
}

TEST(ReplaySession, FeedIssuedRejectsAStalePlacement) {
#ifdef NDEBUG
  GTEST_SKIP() << "the placement guard is compiled only without NDEBUG";
#else
  const ms::MemorySystem system(
      *comet::driver::make_device_spec("comet").flat);
  ms::ReplaySession session(system, "test");
  const ms::Request req{.arrival_ps = 1000, .address = 0x12345680};
  ms::RequestPlacement stale = system.address_map().place(req);
  stale.bank ^= 1;
  EXPECT_THROW(session.feed_issued(req, stale, 1000), std::logic_error);
  session.feed_issued(req, system.address_map().place(req), 1000);
  EXPECT_EQ(session.finish_slice().fed, 1u);
#endif
}

// ------------------------------------------------------- AddressMap

namespace {

struct Geometry {
  std::string name;
  ms::DeviceTiming timing;
};

/// Every registry device, both tiers of every hybrid, and COMET with
/// each divisor moved off a power of two (and all of them at once).
std::vector<Geometry> placement_geometries() {
  std::vector<Geometry> out;
  for (const auto& token : comet::driver::known_devices()) {
    out.push_back(
        {token, comet::driver::make_device_spec(token).flat->timing});
  }
  for (const auto& token : comet::driver::known_hybrid_devices()) {
    const auto spec = comet::driver::make_device_spec(token);
    out.push_back({token + " dram tier", spec.tiered->dram.timing});
    out.push_back({token + " backend tier", spec.tiered->backend.timing});
  }
  const ms::DeviceTiming base =
      comet::driver::make_device_spec("comet").flat->timing;
  const auto variant = [&](const std::string& name, auto edit) {
    ms::DeviceTiming t = base;
    edit(t);
    out.push_back({"comet, " + name, t});
  };
  variant("3 channels", [](ms::DeviceTiming& t) { t.channels = 3; });
  variant("6 channels", [](ms::DeviceTiming& t) { t.channels = 6; });
  variant("5 banks", [](ms::DeviceTiming& t) { t.banks_per_channel = 5; });
  variant("3000 B rows", [](ms::DeviceTiming& t) { t.row_size_bytes = 3000; });
  variant("no regions", [](ms::DeviceTiming& t) { t.region_size_bytes = 0; });
  variant("3 MiB regions",
          [](ms::DeviceTiming& t) { t.region_size_bytes = 3ull << 20; });
  variant("96 B lines", [](ms::DeviceTiming& t) { t.line_bytes = 96; });
  for (const std::uint64_t region :
       {std::uint64_t{0}, std::uint64_t{3} << 20}) {
    variant("every divisor odd, region " + std::to_string(region),
            [region](ms::DeviceTiming& t) {
              t.channels = 6;
              t.banks_per_channel = 5;
              t.row_size_bytes = 3000;
              t.region_size_bytes = region;
              t.line_bytes = 96;
            });
  }
  return out;
}

}  // namespace

TEST(AddressMap, MatchesTheOldPlacementOnEveryGeometry) {
  for (const Geometry& g : placement_geometries()) {
    const ms::AddressMap map(g.timing);
    comet::util::Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
      // Full-range addresses and sizes, then small ones near zero.
      const bool wide = i % 2 == 0;
      const ms::Request req{
          .address = wide ? rng.next_u64() : rng.next_below(1u << 20),
          .size_bytes = static_cast<std::uint32_t>(
              wide ? rng.next_u64() : rng.next_below(4096))};
      const ms::RequestPlacement want = ct::place_request(g.timing, req);
      ASSERT_EQ(map.place(req), want) << g.name << ", address " << req.address;
      ASSERT_EQ(map.channel(req), want.channel) << g.name;
      ASSERT_EQ(map.lines_needed(req.size_bytes),
                ct::lines_needed(g.timing, req))
          << g.name << ", size " << req.size_bytes;
    }
    // The largest sizes, where the rounded-up line count wraps.
    for (std::uint32_t k = 0; k <= g.timing.line_bytes; ++k) {
      const ms::Request req{.size_bytes = ~std::uint32_t{0} - k};
      ASSERT_EQ(map.lines_needed(req.size_bytes),
                ct::lines_needed(g.timing, req))
          << g.name << ", size " << req.size_bytes;
    }
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

TEST(TraceFileSource, OverflowingArrivalRejectedWithLineAndClock) {
  const TempTrace file("100 R 0x10\n18446744073709551615 W 0x20\n");
  ms::TraceFileSource source(file.path(), ms::TraceConfig{});
  ASSERT_TRUE(source.next().has_value());
  try {
    (void)source.next();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              file.path() +
                  ": arrival overflow at line 2: '18446744073709551615 W "
                  "0x20' arrives at cycle 18446744073709551615, which at 2 "
                  "GHz is past 2^64 ps");
  }
  // The same cycle fits at a clock fast enough to keep it below 2^64 ps.
  std::istringstream fast("18446744073709551615 W 0x20\n");
  const auto reqs =
      ms::read_trace(fast, ms::TraceConfig{.cpu_clock_ghz = 1e6});
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].arrival_ps, 18446744073709552u);
}

namespace {

/// Reads every record of `text` through a TraceFileSource on a file.
std::vector<ms::Request> read_file(const std::string& text,
                                   std::uint64_t* lines = nullptr) {
  const TempTrace file(text);
  ms::TraceFileSource source(file.path(), ms::TraceConfig{});
  std::vector<ms::Request> out;
  while (const auto req = source.next()) out.push_back(*req);
  if (lines != nullptr) *lines = source.line_number();
  return out;
}

/// Serves `data` from its get area, then throws from underflow, like a
/// disk that faults after handing over part of a file.
class FaultingBuf : public std::streambuf {
 public:
  explicit FaultingBuf(std::string data) : data_(std::move(data)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 protected:
  int_type underflow() override { throw std::runtime_error("disk fault"); }

 private:
  std::string data_;
};

}  // namespace

TEST(TraceFileSource, RecordStraddlingARefillParsesWhole) {
  constexpr std::size_t kBlock = ms::TraceFileSource::kBlockBytes;
  const std::string record = "12345 W 0xabcdef\n";
  for (std::size_t cut = 1; cut < record.size(); ++cut) {
    // A comment line ends `cut` bytes before the block boundary, so the
    // record's first `cut` bytes come from the first fill.
    std::string text(kBlock - cut - 1, 'x');
    text[0] = '#';
    text += '\n' + record + "12346 R 0x10\n";
    std::uint64_t lines = 0;
    const auto reqs = read_file(text, &lines);
    ASSERT_EQ(reqs.size(), 2u) << cut;
    EXPECT_EQ(reqs[0].arrival_ps, 12345u * 500) << cut;
    EXPECT_EQ(reqs[0].op, ms::Op::kWrite) << cut;
    EXPECT_EQ(reqs[0].address, 0xabcdefu) << cut;
    EXPECT_EQ(reqs[1].address, 0x10u) << cut;
    EXPECT_EQ(lines, 3u) << cut;
  }
}

TEST(TraceFileSource, LinesLongerThanTheBlockGrowTheCarry) {
  const std::size_t n = 200 * 1024;
  const std::string text = "# " + std::string(n, 'c') + "\n" +
                           "100 R 0x40\n" +
                           "200 W 0x80 " + std::string(n, 'f') + "\n" +
                           "300 R 0xc0";  // No final newline.
  std::uint64_t lines = 0;
  const auto reqs = read_file(text, &lines);
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_EQ(reqs[0].address, 0x40u);
  EXPECT_EQ(reqs[1].address, 0x80u);
  EXPECT_EQ(reqs[1].op, ms::Op::kWrite);
  EXPECT_EQ(reqs[2].address, 0xc0u);
  EXPECT_EQ(reqs[2].arrival_ps, 300u * 500);
  EXPECT_EQ(lines, 4u);
}

TEST(TraceFileSource, CrlfAcceptedButABareCarriageReturnLineIsNot) {
  const auto reqs = read_file("100 R 0x40\r\n200 W 0x80\r\n");
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[1].address, 0x80u);

  const TempTrace file("100 R 0x40\n\r\n200 W 0x80\n");
  ms::TraceFileSource source(file.path(), ms::TraceConfig{});
  ASSERT_TRUE(source.next().has_value());
  try {
    (void)source.next();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              file.path() + ": malformed line 2: '\r' (expected '<cycle> "
                            "<R|W> <hex address>')");
  }
}

// stoull negates a leading '-', so "-1" has always read as 2^64 - 1.
TEST(TraceFileSource, MinusOneAddressReadsAsTheLargestAddress) {
  const auto reqs = read_file("100 R -1\n");
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].address, ~std::uint64_t{0});
}

// A fault mid-read yields every complete line before it, drops the
// partial line it cut, then throws; the old getline reader agrees.
TEST(TraceFileSource, ReadFaultAfterTwoLinesNamesLineTwo) {
  const std::string data = "100 R 0x1\n200 W 0x2\n300 R 0x";
  for (const bool reference : {false, true}) {
    FaultingBuf buf(data);
    std::istream in(&buf);
    ms::TraceFileSource source(in, ms::TraceConfig{}, "faulty");
    comet::test::ReferenceTraceReader old(in, ms::TraceConfig{}, "faulty");
    const auto next = [&] { return reference ? old.next() : source.next(); };
    const auto first = next();
    ASSERT_TRUE(first.has_value()) << reference;
    EXPECT_EQ(first->address, 0x1u);
    const auto second = next();
    ASSERT_TRUE(second.has_value()) << reference;
    EXPECT_EQ(second->address, 0x2u);
    try {
      (void)next();
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "faulty: read error after line 2")
          << reference;
    }
  }
}

TEST(TraceFileSource, DirectoryReadsAsAReadErrorAfterLineZero) {
  const std::string dir =
      "test_source_dir_" + std::to_string(::getpid()) + ".trace";
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  std::string what;
  try {
    ms::TraceFileSource source(dir, ms::TraceConfig{});
    (void)source.next();
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  ::rmdir(dir.c_str());
  EXPECT_EQ(what, dir + ": read error after line 0");
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

/// Fields a RequestSource yields, compared in one go.
bool same_request(const ms::Request& a, const ms::Request& b) {
  return a.id == b.id && a.arrival_ps == b.arrival_ps && a.op == b.op &&
         a.address == b.address && a.size_bytes == b.size_bytes &&
         a.tenant == b.tenant;
}

/// Drains `source` in blocks of `block_size`, taking a scalar next()
/// instead of a block at every step where `scalar_every` divides the
/// step number (0: blocks only). Then checks it stays exhausted.
std::vector<ms::Request> drain_mixed(ms::RequestSource& source,
                                     std::size_t block_size,
                                     std::size_t scalar_every) {
  std::vector<ms::Request> got;
  std::vector<ms::Request> block(block_size);
  for (std::size_t step = 1;; ++step) {
    if (scalar_every != 0 && step % scalar_every == 0) {
      const auto req = source.next();
      if (!req) break;
      got.push_back(*req);
      continue;
    }
    const std::size_t pulled = source.next_batch(block.data(), block_size);
    EXPECT_LE(pulled, block_size);
    if (pulled == 0) break;
    got.insert(got.end(), block.begin(),
               block.begin() + static_cast<std::ptrdiff_t>(pulled));
  }
  EXPECT_FALSE(source.next().has_value());  // stays drained
  EXPECT_EQ(source.next_batch(block.data(), block_size), 0u);
  return got;
}

/// A fresh source per call: the same stream every time.
using SourceFactory = std::function<std::unique_ptr<ms::RequestSource>()>;

/// next_batch at block sizes 1, 7 and 1024, alone and interleaved with
/// next() every 2nd or 3rd step, must yield exactly the stream of
/// repeated next() calls.
void expect_every_pull_pattern_matches_next(const SourceFactory& make,
                                            const std::string& context) {
  std::vector<ms::Request> expected;
  {
    const auto reference = make();
    while (const auto req = reference->next()) expected.push_back(*req);
  }
  for (const std::size_t block_size : {1u, 7u, 1024u}) {
    for (const std::size_t scalar_every : {0u, 2u, 3u}) {
      const auto source = make();
      const std::string label = context + " block " +
                                std::to_string(block_size) + " next every " +
                                std::to_string(scalar_every);
      const auto got = drain_mixed(*source, block_size, scalar_every);
      ASSERT_EQ(got.size(), expected.size()) << label;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(same_request(got[i], expected[i])) << label << " #" << i;
      }
    }
  }
}

}  // namespace

TEST(NextBatch, VectorSourceMatchesScalarPulls) {
  const auto trace =
      ms::TraceGenerator(ms::profile_by_name("gcc_like"), 13).generate(100, 64);
  expect_every_pull_pattern_matches_next(
      [&] { return std::make_unique<ms::VectorSource>(trace); },
      "VectorSource");
}

TEST(NextBatch, GeneratorSourceMatchesScalarPulls) {
  for (const auto& profile : ms::spec_like_profiles()) {
    const ms::TraceGenerator gen(profile, 17);
    expect_every_pull_pattern_matches_next(
        [&] {
          return std::make_unique<ms::GeneratorSource>(gen.stream(100, 64));
        },
        profile.name);
  }
}

// 100k records span many reader blocks, so batch boundaries and
// refills interleave.
TEST(NextBatch, TraceFileSourceMatchesScalarPulls) {
  const ms::TraceConfig config{.cpu_clock_ghz = 2.0, .line_bytes = 64};
  std::ostringstream text;
  ms::write_trace(text,
                  ms::TraceGenerator(ms::profile_by_name("lbm_like"), 19)
                      .generate(100'000, 64),
                  config);
  ASSERT_GT(text.str().size(), 10 * ms::TraceFileSource::kBlockBytes);
  const TempTrace file(text.str());
  expect_every_pull_pattern_matches_next(
      [&] {
        return std::make_unique<ms::TraceFileSource>(file.path(), config);
      },
      "TraceFileSource");
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

// ------------------------------ next_batch contract: tenant sources

namespace {

std::unique_ptr<ms::RequestSource> generator(const char* profile,
                                             std::uint64_t seed,
                                             std::uint64_t count) {
  return std::make_unique<ms::GeneratorSource>(
      ms::TraceGenerator(ms::profile_by_name(profile), seed).stream(count,
                                                                     64));
}

std::unique_ptr<ms::RequestSource> vector_source(
    std::vector<ms::Request> requests) {
  return std::make_unique<ms::VectorSource>(std::move(requests));
}

/// Tenant `tenant` of `count` around `inner`.
std::unique_ptr<ms::RequestSource> paced(
    std::unique_ptr<ms::RequestSource> inner, std::uint16_t tenant,
    std::uint16_t count, comet::config::TenantMapping mapping,
    double mean_ns, double burstiness) {
  return std::make_unique<comet::tenant::PacedSource>(
      std::move(inner), tenant, count, mapping, mean_ns, burstiness,
      /*seed=*/1000 + tenant, /*line_bytes=*/64);
}

/// `count` requests arriving in pairs at 0, 0, 10, 10, 20, 20, ...
std::vector<ms::Request> tied_requests(std::uint64_t count,
                                       std::uint64_t address) {
  std::vector<ms::Request> out;
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(ms::Request{.id = i, .arrival_ps = i / 2 * 10,
                              .op = i % 3 ? ms::Op::kRead : ms::Op::kWrite,
                              .address = address + i * 64,
                              .size_bytes = 64});
  }
  return out;
}

/// The per-request k-way merge MultiSource must reproduce, on streams
/// drained up front: the earliest head, ties to the lower index, ids
/// re-stamped in output order.
std::vector<ms::Request> merge_reference(
    const std::vector<std::vector<ms::Request>>& streams) {
  std::vector<std::size_t> pos(streams.size(), 0);
  std::vector<ms::Request> out;
  for (;;) {
    std::size_t best = streams.size();
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (pos[i] == streams[i].size()) continue;
      if (best == streams.size() ||
          streams[i][pos[i]].arrival_ps <
              streams[best][pos[best]].arrival_ps) {
        best = i;
      }
    }
    if (best == streams.size()) return out;
    out.push_back(streams[best][pos[best]++]);
    out.back().id = out.size() - 1;
  }
}

}  // namespace

TEST(NextBatch, PacedSourceMatchesScalarPulls) {
  using comet::config::TenantMapping;
  for (const auto mapping :
       {TenantMapping::kPartition, TenantMapping::kInterleave}) {
    for (const double burstiness : {0.0, 0.5}) {
      expect_every_pull_pattern_matches_next(
          [=] {
            return paced(generator("mcf_like", 31, 3000), 2, 3, mapping, 40.0,
                         burstiness);
          },
          std::string("paced ") + comet::config::tenant_mapping_name(mapping) +
              " burstiness " + std::to_string(burstiness));
    }
  }
}

TEST(NextBatch, PacedSourceOverEmptyAndShortInnerStreams) {
  for (const std::uint64_t count : {0u, 1u, 6u}) {
    expect_every_pull_pattern_matches_next(
        [=] {
          return paced(generator("gcc_like", 33, count), 1, 1,
                       comet::config::TenantMapping::kPartition, 25.0, 0.0);
        },
        "paced over " + std::to_string(count) + " requests");
  }
}

// A trace tenant keeps its native timing: mean 0 passes the trace's
// arrivals through untouched, in next() and next_batch alike.
TEST(NextBatch, PacedTraceTenantWithMeanZeroKeepsNativeTiming) {
  const ms::TraceConfig config{.cpu_clock_ghz = 2.0, .line_bytes = 64};
  std::ostringstream text;
  const auto trace = ms::TraceGenerator(ms::profile_by_name("lbm_like"), 35)
                         .generate(5000, 64);
  ms::write_trace(text, trace, config);
  const TempTrace file(text.str());
  const auto make = [&] {
    return paced(std::make_unique<ms::TraceFileSource>(file.path(), config), 1,
                 2, comet::config::TenantMapping::kInterleave, 0.0, 0.5);
  };
  expect_every_pull_pattern_matches_next(make, "paced trace tenant");

  ms::TraceFileSource native(file.path(), config);
  const auto source = make();
  const auto got = drain_mixed(*source, 1024, 0);
  ASSERT_EQ(got.size(), trace.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto want = native.next();
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(got[i].arrival_ps, want->arrival_ps) << i;
    EXPECT_EQ(got[i].tenant, 1u) << i;
  }
}

TEST(NextBatch, MultiSourceMatchesScalarPulls) {
  const auto tenant = [](std::uint16_t id) {
    return id == 1 ? paced(generator("mcf_like", 41, 2500), 1, 2,
                           comet::config::TenantMapping::kPartition, 30.0, 0.0)
                   : paced(generator("lbm_like", 43, 2000), 2, 2,
                           comet::config::TenantMapping::kPartition, 20.0, 0.5);
  };
  const auto make = [&] {
    std::vector<std::unique_ptr<ms::RequestSource>> tenants;
    tenants.push_back(tenant(1));
    tenants.push_back(tenant(2));
    return std::make_unique<comet::tenant::MultiSource>(std::move(tenants));
  };
  expect_every_pull_pattern_matches_next(make, "two paced tenants");

  std::vector<std::vector<ms::Request>> streams;
  for (const std::uint16_t id : {1, 2}) {
    const auto alone = tenant(id);
    streams.push_back(drain_mixed(*alone, 1, 0));
  }
  const auto want = merge_reference(streams);
  const auto source = make();
  const auto got = drain_mixed(*source, 1024, 0);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_request(got[i], want[i])) << i;
  }
}

// Three tenants whose arrivals tie pairwise within and across streams:
// every tie goes to the lower tenant index, as in the per-request merge.
TEST(NextBatch, MultiSourceThreeTenantsWithTiedArrivals) {
  const std::vector<std::vector<ms::Request>> streams = {
      tied_requests(2100, 0), tied_requests(1500, 1u << 20),
      tied_requests(2050, 2u << 20)};
  const auto make = [&] {
    std::vector<std::unique_ptr<ms::RequestSource>> tenants;
    for (const auto& stream : streams) tenants.push_back(vector_source(stream));
    return std::make_unique<comet::tenant::MultiSource>(std::move(tenants));
  };
  expect_every_pull_pattern_matches_next(make, "three tied tenants");

  const auto want = merge_reference(streams);
  const auto source = make();
  const auto got = drain_mixed(*source, 1024, 0);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_request(got[i], want[i])) << i;
  }
}

TEST(NextBatch, MultiSourceWithEmptyAndExhaustedInputs) {
  const std::vector<std::vector<ms::Request>> streams = {
      {}, tied_requests(7, 0), {}, tied_requests(1, 1u << 20)};
  const auto make = [&] {
    std::vector<std::unique_ptr<ms::RequestSource>> tenants;
    for (const auto& stream : streams) tenants.push_back(vector_source(stream));
    return std::make_unique<comet::tenant::MultiSource>(std::move(tenants));
  };
  expect_every_pull_pattern_matches_next(make, "empty inputs");
  const auto source = make();
  EXPECT_EQ(drain_mixed(*source, 7, 0).size(), 8u);

  const auto all_empty = [] {
    std::vector<std::unique_ptr<ms::RequestSource>> tenants;
    tenants.push_back(vector_source({}));
    tenants.push_back(vector_source({}));
    return std::make_unique<comet::tenant::MultiSource>(std::move(tenants));
  };
  expect_every_pull_pattern_matches_next(all_empty, "all inputs empty");
}
