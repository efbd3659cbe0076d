// Sharded per-channel parallel replay tests. The load-bearing gate is
// bit-identity against a reference built by hand: for every flat
// registry device and every controller option (none, then every policy
// with bounded queues, so admit stalls and write drains actually fire),
// one lane per channel at thread counts {1, 2, 8} — fed through
// run_sharded directly and through the engines — must reproduce one
// ReplaySession or one Controller per channel, each fed its channel's
// requests directly, with the slices merged in channel order: exact
// SimStats ==, no tolerances, on every counter, every latency
// distribution and every energy sum. Hybrid engines have no such
// reference and are pinned across thread counts instead.
// Plus the replay-loop contracts and the LanePool mechanics: inline
// mode, worker-error propagation, the run_threads resolution rules, the
// failure paths of the pipelined (threaded) replay, and the BlockRing
// that hands blocks between its threads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "config/device_spec.hpp"
#include "driver/registry.hpp"
#include "memsim/sharded.hpp"
#include "memsim/system.hpp"
#include "memsim/trace_gen.hpp"
#include "prof/profiler.hpp"
#include "sched/controller.hpp"

namespace ms = comet::memsim;
namespace sc = comet::sched;
namespace dr = comet::driver;

namespace {

/// A shared demand trace: the mixed profile exercises bursts, Zipf-hot
/// jumps and both ops, so transaction queues, drains and both latency
/// distributions all see traffic.
const std::vector<ms::Request>& shared_trace() {
  static const std::vector<ms::Request> trace =
      ms::TraceGenerator(ms::profile_by_name("gcc_like"), 7).generate(2500,
                                                                      64);
  return trace;
}

/// The controller axis under test: no controller, plus every policy
/// with tightly bounded queues (depth 8) so backpressure paths —
/// admit stalls, write-drain hysteresis — execute, not just the happy
/// path.
std::vector<std::optional<sc::ControllerConfig>> controller_axis() {
  std::vector<std::optional<sc::ControllerConfig>> axis;
  axis.push_back(std::nullopt);
  for (const auto& info : sc::known_policies()) {
    axis.push_back(sc::ControllerConfig::with_depths(info.policy, 8, 8));
  }
  return axis;
}

std::string axis_name(const std::optional<sc::ControllerConfig>& controller) {
  return controller ? sc::policy_name(controller->policy) : "none";
}

/// One ReplaySession, or one Controller, per channel, each fed its
/// channel's requests of the whole trace by hand, the slices merged in
/// channel order — no replay loop, no lanes, no pool.
ms::SimStats whole_stream_reference(
    const ms::MemorySystem& system,
    const std::optional<sc::ControllerConfig>& controller) {
  ms::ReplaySlice merged;
  for (int c = 0; c < system.model().timing.channels; ++c) {
    const auto feed_channel = [&](auto& replay) {
      for (const ms::Request& req : shared_trace()) {
        if (system.address_map().channel(req) == c) replay.feed(req);
      }
      ms::merge_slice(merged, replay.finish_slice());
    };
    if (controller) {
      sc::Controller channel(system, *controller, "gcc_like");
      feed_channel(channel);
    } else {
      ms::ReplaySession channel(system, "gcc_like");
      feed_channel(channel);
    }
  }
  return ms::finalize_slice(std::move(merged), system.model());
}

/// make_lanes' lanes (a ReplaySession or a Controller per channel)
/// through run_sharded.
ms::SimStats run_channel_lanes(
    const ms::MemorySystem& system,
    const std::optional<sc::ControllerConfig>& controller, int threads) {
  auto lanes = sc::make_lanes(system, controller, "gcc_like");
  ms::VectorSource source(shared_trace());
  return ms::run_sharded(system, std::move(lanes), threads, source);
}

ms::SimStats run_spec(const dr::DeviceSpec& spec,
                      const std::optional<sc::ControllerConfig>& controller,
                      int threads) {
  const auto engine = spec.make_engine(controller, threads);
  return engine->run(shared_trace(), "gcc_like");
}

}  // namespace

// ------------------------------------------------ bit-identity matrix

TEST(ShardedBitIdentity, EveryFlatRegistryDeviceEveryPolicyEveryThreadCount) {
  for (const auto& token : dr::known_devices()) {
    const dr::DeviceSpec spec = dr::make_device_spec(token);
    const ms::MemorySystem system(*spec.flat);
    for (const auto& controller : controller_axis()) {
      const ms::SimStats reference = whole_stream_reference(system, controller);
      for (const int threads : {1, 2, 8}) {
        const std::string label = token + "/" + axis_name(controller) +
                                  "/t" + std::to_string(threads);
        EXPECT_TRUE(run_channel_lanes(system, controller, threads) ==
                    reference)
            << label << " (run_sharded)";
        EXPECT_TRUE(run_spec(spec, controller, threads) == reference)
            << label << " (engine)";
      }
    }
  }
}

TEST(ShardedBitIdentity, EveryHybridRegistryDeviceEveryPolicyEveryThreadCount) {
  for (const auto& token : dr::known_hybrid_devices()) {
    const dr::DeviceSpec spec = dr::make_device_spec(token);
    for (const auto& controller : controller_axis()) {
      const ms::SimStats inline_lanes = run_spec(spec, controller, 1);
      for (const int threads : {2, 8}) {
        EXPECT_TRUE(run_spec(spec, controller, threads) == inline_lanes)
            << token << "/" << axis_name(controller) << "/t" << threads;
      }
    }
  }
}

TEST(ShardedBitIdentity, MemorySystemMatchesWholeStreamSession) {
  const ms::DeviceModel model = dr::make_device("comet");
  const ms::SimStats reference =
      whole_stream_reference(ms::MemorySystem(model), std::nullopt);
  for (const int threads : {1, 2, 8}) {
    const sc::FlatSystem engine(model, std::nullopt, threads);
    EXPECT_TRUE(engine.run(shared_trace(), "gcc_like") == reference)
        << "comet/t" << threads;
  }
}

// --------------------------------------------------------- contracts

TEST(ShardedContract, UnsortedStreamThrowsWithSerialDiagnostics) {
  // The replay loop owns the global order check, so every engine kind
  // names the global index, whichever lane the request would reach.
  const std::vector<ms::Request> requests = {
      ms::Request{.id = 0, .arrival_ps = 100, .op = ms::Op::kRead,
                  .address = 0, .size_bytes = 64},
      ms::Request{.id = 1, .arrival_ps = 50, .op = ms::Op::kRead,
                  .address = 4096, .size_bytes = 64},
  };
  struct Kind {
    const char* token;
    std::optional<sc::ControllerConfig> controller;
    int threads;
  };
  const Kind kinds[] = {
      {"comet", std::nullopt, 1},
      {"comet", std::nullopt, 2},
      {"comet", sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 8, 8),
       1},
      {"hybrid-comet", std::nullopt, 1},
  };
  for (const Kind& kind : kinds) {
    const auto engine =
        dr::make_device_spec(kind.token).make_engine(kind.controller,
                                                     kind.threads);
    const std::string label = std::string(kind.token) + "/" +
                              axis_name(kind.controller) + "/t" +
                              std::to_string(kind.threads);
    try {
      engine->run(requests, "unsorted");
      ADD_FAILURE() << label << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("index 1"), std::string::npos) << label << what;
      EXPECT_NE(what.find("arrives at 50 ps"), std::string::npos)
          << label << what;
    }
  }
}

TEST(ShardedContract, ResolveRunThreads) {
  EXPECT_EQ(ms::resolve_run_threads(1), 1);
  EXPECT_EQ(ms::resolve_run_threads(7), 7);
  EXPECT_GE(ms::resolve_run_threads(0), 1);  // hardware concurrency
  EXPECT_THROW(ms::resolve_run_threads(-1), std::invalid_argument);
}

TEST(ShardedContract, RunShardedRejectsLaneCountMismatch) {
  const ms::MemorySystem system(dr::make_device("comet"));  // 8 channels
  for (const int threads : {1, 2}) {
    std::vector<std::unique_ptr<ms::ShardLane>> lanes;
    lanes.push_back(std::make_unique<ms::ReplaySession>(system, "w"));
    ms::VectorSource source(shared_trace());
    EXPECT_THROW(ms::run_sharded(system, std::move(lanes), threads, source),
                 std::invalid_argument)
        << "threads=" << threads;
  }
}

// ------------------------------------------------------ lane pool

namespace {

/// Lane that fails deterministically partway through its stream.
class ThrowingLane final : public ms::ShardLane {
 public:
  explicit ThrowingLane(std::uint64_t boom_at) : boom_at_(boom_at) {}
  void feed(const ms::Request&) override {
    if (++fed_ == boom_at_) throw std::runtime_error("lane boom");
  }
  ms::ReplaySlice finish_slice() override { return {}; }

 private:
  std::uint64_t boom_at_;
  std::uint64_t fed_ = 0;
};

}  // namespace

TEST(LanePool, WorkerExceptionReachesTheProducer) {
  for (const int threads : {1, 2}) {
    ms::LanePool pool(
        [] {
          std::vector<std::unique_ptr<ms::ShardLane>> lanes;
          lanes.push_back(std::make_unique<ThrowingLane>(100));
          lanes.push_back(std::make_unique<ThrowingLane>(1u << 30));
          return lanes;
        }(),
        threads);
    const auto drive = [&] {
      ms::Request req;
      req.size_bytes = 64;
      // Far more than the failure point, so the error surfaces either
      // during feed (bounded queues backpressure the producer) or at
      // the latest from finish().
      for (int i = 0; i < 200000; ++i) pool.feed(i % 2, req);
      pool.finish();
    };
    EXPECT_THROW(drive(), std::runtime_error) << "threads=" << threads;
  }
}

TEST(LanePool, RejectsEmptyLaneSet) {
  EXPECT_THROW(ms::LanePool({}, 2), std::invalid_argument);
}

// ------------------------------------------ pipelined failure paths
//
// A threaded replay runs the source on a producer thread and finishes
// lanes on their workers. Whatever fails there must reach the caller as
// the serial run's exception (same type, same message) with every
// thread joined: these cases would hang, leak a thread or terminate the
// process otherwise, and the suite runs under a ctest timeout.

namespace {

/// Threads of this process (Linux /proc/self/status), or 0 if unknown.
int live_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

/// Waits briefly for the thread count to settle back to `want`: a
/// joined thread may leave the count a moment after join() returns.
int settled_threads(int want) {
  int now = live_threads();
  for (int i = 0; i < 200 && now != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    now = live_threads();
  }
  return now;
}

/// Threads of this process before a case starts its own. A probe
/// thread is started first: ThreadSanitizer's runtime starts a helper
/// thread along with the process's first thread, and that one is not a
/// thread the case left running. The probe counts the threads while it
/// runs, and the baseline is that count without the probe, once the
/// joined probe has left it.
int threads_before() {
  int with_probe = 0;
  std::thread([&with_probe] { with_probe = live_threads(); }).join();
  return settled_threads(with_probe - 1);
}

/// What a failed run threw: its dynamic type and message.
struct Failure {
  std::string type;
  std::string what;
  bool operator==(const Failure&) const = default;
};

/// Runs `run` expecting an exception; empty type when none came.
template <typename Run>
Failure failure_of(Run&& run) {
  try {
    run();
  } catch (const std::exception& e) {
    return {typeid(e).name(), e.what()};
  }
  return {};
}

/// Serves `trace` in blocks, then throws after handing over `blocks`
/// full blocks: a disk or generator fault mid-stream.
class FailingSource final : public ms::RequestSource {
 public:
  FailingSource(const std::vector<ms::Request>& trace, std::size_t blocks)
      : inner_(trace), blocks_left_(blocks) {}

  std::size_t next_batch(ms::Request* out, std::size_t max) override {
    if (blocks_left_ == 0) throw std::runtime_error("source fault at block");
    --blocks_left_;
    return inner_.next_batch(out, max);
  }

 private:
  ms::VectorSource inner_;
  std::size_t blocks_left_;
};

/// A long demand stream: many blocks, so the producer runs ahead.
const std::vector<ms::Request>& long_trace() {
  static const std::vector<ms::Request> trace =
      ms::TraceGenerator(ms::profile_by_name("lbm_like"), 11).generate(60000,
                                                                       64);
  return trace;
}

/// The engine kinds a threaded run pipelines: direct lanes, controller
/// lanes and the hybrid filter feeding both tiers' lanes.
struct EngineKind {
  const char* token;
  std::optional<sc::ControllerConfig> controller;
};

std::vector<EngineKind> engine_kinds() {
  return {
      {"comet", std::nullopt},
      {"comet", sc::ControllerConfig::with_depths(sc::Policy::kFrFcfs, 8, 8)},
      {"hybrid-comet",
       sc::ControllerConfig::with_depths(sc::Policy::kFrFcfsCap, 8, 8)}};
}

std::string kind_name(const EngineKind& kind) {
  return std::string(kind.token) + "/" + axis_name(kind.controller);
}

/// Lane that fails at its `boom_at`-th request after stalling for
/// `stall`, so the caller backs up behind its full queue and the
/// producer behind the full ring before the failure lands.
class StallingThrowingLane final : public ms::ShardLane {
 public:
  StallingThrowingLane(std::uint64_t boom_at, std::chrono::milliseconds stall)
      : boom_at_(boom_at), stall_(stall) {}
  void feed(const ms::Request&) override {
    if (++fed_ != boom_at_) return;
    std::this_thread::sleep_for(stall_);
    throw std::logic_error("lane fault at request " + std::to_string(fed_));
  }
  ms::ReplaySlice finish_slice() override { return {}; }

 private:
  std::uint64_t boom_at_;
  std::chrono::milliseconds stall_;
  std::uint64_t fed_ = 0;
};

/// Lane whose finish_slice fails: a controller that cannot drain.
class FailingFinishLane final : public ms::ShardLane {
 public:
  explicit FailingFinishLane(int channel) : channel_(channel) {}
  void feed(const ms::Request&) override {}
  ms::ReplaySlice finish_slice() override {
    throw std::out_of_range("drain fault on lane " + std::to_string(channel_));
  }

 private:
  int channel_;
};

}  // namespace

TEST(PipelinedFailure, SourceThrowingAfterKBlocksReachesTheCaller) {
  for (const EngineKind& kind : engine_kinds()) {
    for (const std::size_t blocks : {0u, 1u, 5u}) {
      const std::string label =
          kind_name(kind) + " after " + std::to_string(blocks) + " blocks";
      // Every block pulled before the fault is fed first, as in a
      // serial run: the progress ticks count them.
      const auto run = [&](int threads, std::uint64_t& fed) {
        const auto engine = dr::make_device_spec(kind.token)
                                .make_engine(kind.controller, threads);
        comet::prof::Profiler profiler{comet::prof::ProfSpec{}};
        engine->attach_profiler(&profiler);
        FailingSource source(long_trace(), blocks);
        const Failure failure =
            failure_of([&] { engine->run(source, "failing"); });
        fed = profiler.progress();
        return failure;
      };
      std::uint64_t serial_fed = 0;
      const Failure serial = run(1, serial_fed);
      ASSERT_FALSE(serial.type.empty()) << label;
      EXPECT_EQ(serial_fed, blocks * ms::kFeedBlockRequests) << label;
      const int before = threads_before();
      std::uint64_t threaded_fed = 0;
      EXPECT_EQ(run(3, threaded_fed), serial) << label;
      EXPECT_EQ(threaded_fed, serial_fed) << label;
      EXPECT_EQ(settled_threads(before), before) << label;
    }
  }
}

TEST(PipelinedFailure, UnsortedStreamNamesTheSerialGlobalIndex) {
  // The violation sits in the fourth block, behind the producer's ring.
  std::vector<ms::Request> trace(long_trace().begin(),
                                 long_trace().begin() + 5000);
  const std::size_t bad = 3333;
  trace[bad].arrival_ps = trace[bad - 1].arrival_ps - 1;
  for (const EngineKind& kind : engine_kinds()) {
    const auto run = [&](int threads) {
      const auto engine = dr::make_device_spec(kind.token)
                              .make_engine(kind.controller, threads);
      return failure_of([&] { engine->run(trace, "unsorted"); });
    };
    const Failure serial = run(1);
    EXPECT_NE(serial.what.find("index " + std::to_string(bad)),
              std::string::npos)
        << kind_name(kind) << ": " << serial.what;
    const int before = threads_before();
    EXPECT_EQ(run(3), serial) << kind_name(kind);
    EXPECT_EQ(settled_threads(before), before) << kind_name(kind);
  }
}

TEST(PipelinedFailure, LaneThrowingWhileTheProducerWaitsOnAFullRing) {
  const ms::MemorySystem system(dr::make_device("comet"));
  const auto run = [&](int threads) {
    std::vector<std::unique_ptr<ms::ShardLane>> lanes;
    for (int c = 0; c < system.model().timing.channels; ++c) {
      lanes.push_back(std::make_unique<StallingThrowingLane>(
          c == 0 ? 2000 : std::uint64_t{1} << 40,
          std::chrono::milliseconds(threads > 1 ? 100 : 0)));
    }
    ms::VectorSource source(long_trace());
    return failure_of([&] {
      ms::run_sharded(system, std::move(lanes), threads, source);
    });
  };
  const Failure serial = run(1);
  EXPECT_EQ(serial.what, "lane fault at request 2000");
  const int before = threads_before();
  EXPECT_EQ(run(3), serial);
  EXPECT_EQ(settled_threads(before), before);
}

TEST(PipelinedFailure, LaneFailingToFinishOnItsWorker) {
  // Lanes 2 and 3 both fail; at 3 threads worker 0 owns lane 3 and
  // worker 2 owns lane 2. The serial run reports lane 2, the first to
  // finish, and so must the threaded one.
  const ms::MemorySystem system(dr::make_device("comet"));
  const auto run = [&](int threads) {
    std::vector<std::unique_ptr<ms::ShardLane>> lanes;
    for (int c = 0; c < system.model().timing.channels; ++c) {
      if (c == 2 || c == 3) {
        lanes.push_back(std::make_unique<FailingFinishLane>(c));
      } else {
        lanes.push_back(std::make_unique<ms::ReplaySession>(system, "w"));
      }
    }
    ms::VectorSource source(long_trace());
    return failure_of([&] {
      ms::run_sharded(system, std::move(lanes), threads, source);
    });
  };
  const Failure serial = run(1);
  EXPECT_EQ(serial.what, "drain fault on lane 2");
  const int before = threads_before();
  EXPECT_EQ(run(3), serial);
  EXPECT_EQ(settled_threads(before), before);
}

// ------------------------------------------------------ block ring
//
// The one handoff between the threaded replay's threads. Each case runs
// the other side of the ring on a thread of its own and checks that it
// is gone at the end.

namespace {

/// Commits one block whose single request carries `id`; false once the
/// consumer abandoned the ring.
bool commit_block(ms::BlockRing& ring, std::uint64_t id) {
  ms::RequestBlock* block = ring.reserve();
  if (!block) return false;
  block->requests.assign(1, ms::Request{});
  block->requests[0].id = id;
  ring.commit();
  return true;
}

/// Takes the next block and returns its id; the block is released.
std::uint64_t take_block(ms::BlockRing& ring) {
  const ms::RequestBlock* block = ring.take();
  EXPECT_NE(block, nullptr);
  if (!block) return ~std::uint64_t{0};
  const std::uint64_t id = block->requests.at(0).id;
  ring.release();
  return id;
}

/// Spins (sleeping) until `done()` holds; false after ~10 s.
template <typename Pred>
bool eventually(Pred done) {
  for (int i = 0; i < 2000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

}  // namespace

TEST(BlockRing, KeepsBlockOrderAcrossLaps) {
  const int before = threads_before();
  ms::BlockRing ring(4);
  constexpr std::uint64_t kBlocks = 4 * 3 + 1;  // Past a third lap.
  std::thread producer([&] {
    for (std::uint64_t id = 0; id < kBlocks; ++id) commit_block(ring, id);
    ring.close();
  });
  for (std::uint64_t id = 0; id < kBlocks; ++id) {
    EXPECT_EQ(take_block(ring), id);
  }
  EXPECT_EQ(ring.take(), nullptr);
  producer.join();
  EXPECT_EQ(ring.stats().commits, kBlocks);
  EXPECT_LE(ring.stats().high_water, 4u);
  EXPECT_EQ(settled_threads(before), before);
}

TEST(BlockRing, FullProducerSleepsUntilHalfTheSlotsAreReleased) {
  const int before = threads_before();
  ms::BlockRing ring(4);
  std::atomic<int> committed{0};
  std::thread producer([&] {
    for (std::uint64_t id = 0; id < 5; ++id) {
      commit_block(ring, id);
      committed.fetch_add(1);
    }
    ring.close();
  });
  ASSERT_TRUE(eventually([&] { return committed.load() == 4; }));
  // One slot free of four: the producer must stay asleep.
  EXPECT_EQ(take_block(ring), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(committed.load(), 4);
  // Two free, half the ring: it wakes and commits its fifth block.
  EXPECT_EQ(take_block(ring), 1u);
  EXPECT_TRUE(eventually([&] { return committed.load() == 5; }));
  for (std::uint64_t id = 2; id < 5; ++id) EXPECT_EQ(take_block(ring), id);
  EXPECT_EQ(ring.take(), nullptr);
  producer.join();
  EXPECT_EQ(ring.stats().full.count, 1u);
  EXPECT_EQ(settled_threads(before), before);
}

TEST(BlockRing, CloseDeliversEveryCommittedBlockThenTheError) {
  const int before = threads_before();
  ms::BlockRing ring(4);
  std::vector<std::uint64_t> taken;
  std::string error;
  std::thread consumer([&] {
    try {
      while (const ms::RequestBlock* block = ring.take()) {
        taken.push_back(block->requests.at(0).id);
        ring.release();
      }
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
  });
  for (std::uint64_t id = 0; id < 3; ++id) commit_block(ring, id);
  ring.close(std::make_exception_ptr(std::runtime_error("source fault")));
  consumer.join();
  EXPECT_EQ(taken, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(error, "source fault");
  EXPECT_THROW(ring.take(), std::runtime_error);  // It stays closed.
  EXPECT_EQ(settled_threads(before), before);
}

TEST(BlockRing, AbandonReleasesABlockedProducer) {
  const int before = threads_before();
  ms::BlockRing ring(2);
  std::atomic<int> committed{0};
  std::atomic<bool> released{false};
  std::thread producer([&] {
    for (std::uint64_t id = 0; commit_block(ring, id); ++id) {
      committed.fetch_add(1);
    }
    released = true;
  });
  ASSERT_TRUE(eventually([&] { return committed.load() == 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load());  // Asleep on the full ring.
  ring.abandon();
  producer.join();
  EXPECT_TRUE(released.load());
  EXPECT_EQ(committed.load(), 2);
  EXPECT_EQ(settled_threads(before), before);
}
