#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "memsim/source.hpp"
#include "memsim/system.hpp"

/// The replay pipeline: one loop for every engine, plus the sharded
/// per-channel lanes most engines feed through it.
///
/// run_replay is the only place a RequestSource is drained. It pulls
/// the stream in kFeedBlockRequests blocks (sources are single-pass),
/// enforces the global sorted-by-arrival contract, hands each block to
/// the engine's ReplayStage, times the stages and ticks progress for an
/// attached profiler, then drains the stage and merges its per-channel
/// slices into finalized per-tier results. Engines supply only the
/// stage that consumes the requests: one ReplaySession per channel fed
/// directly (run_sessions: flat, unscheduled, one thread), per-channel
/// lanes on a LanePool (run_sharded), or the hybrid cache filter
/// feeding both tiers' lanes. The lanes are the replay objects
/// themselves: ReplaySession and sched::Controller implement ShardLane,
/// and sched::make_lanes builds one of them per channel.
///
/// The channel is the unit of replay. The controller address hash makes
/// every channel an island: placement, bank timing, the outstanding
/// window, scheduling and all per-request statistics are channel-local,
/// and each ReplaySession or sched::Controller serves exactly one
/// channel. Every engine therefore produces one slice per channel and
/// merges them in channel order with merge_slice, whatever its thread
/// count, so results are bit-identical across thread counts. That
/// bit-identity is a hard test gate (tests/test_sharded.cpp), not a
/// best-effort property.
///
/// Threading model. The stream moves in blocks from the source's
/// next_batch to the stage's feed, through one feed loop on the
/// caller's thread: get a block, check its arrivals, feed it. Only
/// where the block comes from depends on the stage. A serial run
/// (run_threads <= 1) pulls it inline, and the LanePool feeds its lanes
/// inline too, so everything runs on the caller's thread. A threaded
/// run is a three-stage pipeline:
///   1. a source producer thread pulls next_batch blocks into a 16-slot
///      BlockRing, and the feed loop takes them in order (an exception
///      from the source closes the ring, so the caller receives it
///      after every block pulled before it);
///   2. the feed loop runs the stage's routing (the hybrid cache
///      filter, whose tag state is global) and commits
///      ~kFeedBlockRequests-sized per-lane blocks to each pool worker's
///      4-slot BlockRing (the caller is the pool's producer:
///      PoolProfile's push stalls are its waits);
///   3. the pool workers feed their lanes, and at the end each worker
///      runs finish_slice() on its own lanes before it exits.
/// Both handoffs are the one BlockRing and share its wake rule: a
/// producer that finds its ring full sleeps until half of it is free
/// (on a busy host a woken thread can wait for a CPU far longer than a
/// block takes, so each wake-up comes with half a ring of work in
/// hand), and a commit wakes a waiting consumer.
/// Lanes map to workers round-robin (lane % workers); each lane is only
/// ever touched by one thread, so lanes need no locking of their own.
/// The source is touched only by the producer while the loop runs.
namespace comet::prof {
class Profiler;
struct PoolProfile;
}

namespace comet::memsim {

/// Resolves a --run-threads request: 0 means one thread per hardware
/// thread (at least 1), any positive value is taken as-is. Throws
/// std::invalid_argument on negative values.
int resolve_run_threads(int requested);

/// The lane class's name before ReplaySession implemented ShardLane
/// itself; perfbench/harness.cpp still constructs lanes under it.
using SessionLane = ReplaySession;

/// One slot of a BlockRing: a request buffer that keeps its capacity
/// from lap to lap, so a ring in steady state allocates nothing.
struct RequestBlock {
  std::size_t lane = 0;  ///< The pool lane the block feeds.
  std::vector<Request> requests;
};

/// A bounded single-producer/single-consumer ring of RequestBlocks, the
/// one handoff between the replay's threads. The producer reserve()s
/// the next free slot, fills or swaps its buffer and commit()s it; the
/// consumer take()s committed blocks in order and release()s each one
/// once it is done with it. Wake rule: a producer that finds the ring
/// full sleeps until half of it is free, and a commit wakes a waiting
/// consumer. Stream end: close(error) lets the consumer receive every
/// committed block, then the error; abandon() is the consumer leaving
/// early, which wakes a blocked producer and makes its next reserve()
/// report it. Only waits that actually block are timed, so a ring
/// costs the same whether anyone reads its stats or not.
class BlockRing {
 public:
  /// Waits that blocked on one side of the ring, and their wall time.
  struct Waits {
    std::uint64_t count = 0;
    double wall_s = 0.0;
  };
  struct Stats {
    std::uint64_t commits = 0;
    std::size_t high_water = 0;  ///< Most blocks committed, unreleased.
    Waits full;   ///< The producer found the ring full.
    Waits empty;  ///< The consumer found the ring empty.
  };

  /// Each slot's buffer starts with room for kFeedBlockRequests.
  explicit BlockRing(std::size_t slots);

  BlockRing(const BlockRing&) = delete;
  BlockRing& operator=(const BlockRing&) = delete;

  /// Producer: waits for a free slot and returns it, holding whatever
  /// its last lap left; null once the consumer abandoned the ring.
  RequestBlock* reserve();
  /// Producer: hands the reserved slot to the consumer.
  void commit();
  /// Producer: ends the stream. A null error ends it cleanly.
  void close(std::exception_ptr error = nullptr);

  /// Consumer: waits for the next committed block; null at the end of
  /// a cleanly closed stream. Rethrows the close() error in its place.
  /// The block stays the consumer's until release().
  RequestBlock* take();
  /// Consumer: returns the taken block's slot to the producer.
  void release();
  /// Consumer: leaves early; the producer's reserve() returns null.
  void abandon();

  /// Thread-safe; totals are final once both sides are done.
  Stats stats() const;

 private:
  std::vector<RequestBlock> slots_;
  mutable std::mutex mutex_;
  std::condition_variable can_reserve_;  ///< Producer waits: ring full.
  std::condition_variable can_take_;     ///< Consumer waits: ring empty.
  std::uint64_t committed_ = 0;  ///< Blocks handed over, in order.
  std::uint64_t released_ = 0;   ///< Blocks the consumer is done with.
  bool closed_ = false;
  bool abandoned_ = false;
  std::exception_ptr error_;
  Stats stats_;  ///< All but commits, which stats() reads off committed_.
};

/// Runs N lanes on up to `threads` worker threads, each fed through
/// its own BlockRing (see the header comment for the threading model).
/// A lane exception, from feed() or finish_slice(), is captured and
/// rethrown on the caller's thread — from feed() as soon as it is
/// noticed (the failed worker abandons its ring, so the next push to
/// it rethrows), else from finish(), where the lowest-numbered failing
/// lane's error wins when several fail.
class LanePool {
 public:
  /// Takes ownership of the lanes. threads <= 1 selects inline mode.
  /// A non-null `profile` receives host-side wall-clock counters (lane
  /// busy time, ring stalls), published by finish() once the workers
  /// are joined. The pool keeps them either way; the simulated results
  /// are bit-identical with or without a profile.
  LanePool(std::vector<std::unique_ptr<ShardLane>> lanes, int threads,
           prof::PoolProfile* profile = nullptr);
  ~LanePool();

  LanePool(const LanePool&) = delete;
  LanePool& operator=(const LanePool&) = delete;

  /// True when lanes run on worker threads (threads > 1).
  bool threaded() const;

  /// Routes one request to `lane` (the feeding thread only).
  void feed(std::size_t lane, const Request& request);

  /// Flushes, lets each worker finish its own lanes, joins the workers
  /// and returns every lane's slice in lane order. May be called once.
  std::vector<ReplaySlice> finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// An engine's request consumer behind run_replay. feed() receives the
/// stream in order, one arrival-checked block at a time, on the
/// caller's thread; drain() is called once, after every feed.
class ReplayStage {
 public:
  virtual ~ReplayStage() = default;

  /// True when the stage's lanes run on worker threads. run_replay then
  /// pulls the source on a producer thread of its own; a serial stage
  /// keeps the whole replay on the caller's thread.
  virtual bool threaded() const { return false; }

  /// Consumes `count` requests of the stream.
  virtual void feed(const Request* block, std::size_t count) = 0;

  /// Flushes and drains everything fed (lane queues, controller queues,
  /// pool workers) and returns one slice per channel, in channel order
  /// (tier by tier for a multi-tier stage).
  virtual std::vector<ReplaySlice> drain() = 0;
};

/// The replay loop. Streams `source` into `stage`, throwing the
/// check_arrival_order diagnostic (global index, both timestamps) on an
/// unsorted stream, then merges the drained slices tier by tier and
/// finalizes each tier against its model. Every stage drains one slice
/// per channel of each tier, tiers in order, channels in order, so the
/// next model->timing.channels slices belong to each `tiers` entry.
/// Returns one slice per tier: `stats` finalized, the
/// arrival/completion window and request count kept for composite
/// engines.
/// A non-null `profiler` receives the "source_pull" (time inside
/// next_batch, one call per block; a serial run's time also holds the
/// final, empty pull), "engine_feed", "lane_drain" (stage
/// drain) and "shard_merge" (merge and finalize) stage timings and live
/// progress ticks. In a threaded stage source_pull is timed on the
/// producer thread, overlapping the caller's stages; the caller's wait
/// for a filled block goes to Profiler::add_source_wait instead.
/// Exceptions from the source, the arrival check or the stage reach the
/// caller as in a serial run, and every thread is joined first.
std::vector<ReplaySlice> run_replay(
    RequestSource& source, ReplayStage& stage,
    const std::vector<const DeviceModel*>& tiers,
    prof::Profiler* profiler = nullptr);

/// run_replay over one lane per device channel, routed by the channel
/// lookup of the system's AddressMap (the hash the replay places by),
/// on a LanePool of `threads` workers. Throws std::invalid_argument
/// unless there is exactly one lane per channel. A non-null `profiler`
/// also receives the pool profile.
SimStats run_sharded(const MemorySystem& system,
                     std::vector<std::unique_ptr<ShardLane>> lanes,
                     int threads, RequestSource& source,
                     prof::Profiler* profiler = nullptr);

/// run_replay over one ReplaySession per device channel on the caller's
/// thread, with no lanes and no pool: each request is placed once and
/// handed straight to its channel's session (feed_issued at its
/// arrival). Bit-identical to run_sharded over ReplaySession lanes, and
/// the cheaper of the two when nothing runs on another thread. The
/// sessions record into `telemetry` when it is non-null.
SimStats run_sessions(const MemorySystem& system, RequestSource& source,
                      const std::string& workload_name,
                      telemetry::Recorder* telemetry = nullptr,
                      prof::Profiler* profiler = nullptr);

}  // namespace comet::memsim
