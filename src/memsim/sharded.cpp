#include "memsim/sharded.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "prof/profiler.hpp"
#include "util/ring.hpp"

namespace comet::memsim {

namespace {

using ProfClock = std::chrono::steady_clock;

double seconds_since(ProfClock::time_point start) {
  return std::chrono::duration<double>(ProfClock::now() - start).count();
}

}  // namespace

int resolve_run_threads(int requested) {
  if (requested < 0) {
    throw std::invalid_argument(
        "run_threads must be >= 0 (0 = one per hardware thread)");
  }
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

/// Blocks a worker may hold queued before the producer blocks on it:
/// enough to ride out scheduling jitter, small enough that a slow lane
/// backpressures the producer instead of buffering the whole stream.
constexpr std::size_t kMaxQueuedBlocksPerWorker = 4;

}  // namespace

struct LanePool::Impl {
  struct Block {
    std::size_t lane = 0;
    std::vector<Request> requests;
  };

  struct Worker {
    std::size_t index = 0;  ///< Owns lanes index, index + workers, ...
    std::thread thread;
    std::mutex mutex;
    std::condition_variable can_push;  ///< Producer waits: queue full.
    std::condition_variable can_pull;  ///< Worker waits: queue empty.
    util::RingQueue<std::unique_ptr<Block>> queue{kMaxQueuedBlocksPerWorker};
    bool done = false;
    bool failed = false;
    std::exception_ptr error;
    std::size_t error_lane = 0;  ///< The lane whose feed or finish threw.
    /// This worker's profile slot, or null. Written only by this worker
    /// thread; the join in shutdown() publishes it to the reader.
    prof::WorkerProfile* wprof = nullptr;
  };

  std::vector<std::unique_ptr<ShardLane>> lanes;
  /// One block per lane being filled by the producer (worker mode only).
  std::vector<std::unique_ptr<Block>> pending;
  std::vector<std::unique_ptr<Worker>> workers;  ///< Empty = inline mode.
  /// Set by finish() before it signals done: workers then run
  /// finish_slice() on their own lanes into `slices` before exiting. An
  /// abandoned pool (an error, or destruction without finish) does not.
  bool finish_lanes = false;
  std::vector<ReplaySlice> slices;  ///< One per lane; worker mode only.
  std::mutex free_mutex;
  std::vector<std::unique_ptr<Block>> free_blocks;
  /// Host profile, or null. Producer-side counters (push_*, block
  /// accounting, high water) are producer-thread-only; each lane/worker
  /// slot belongs to the worker owning that lane (lane % workers).
  prof::PoolProfile* profile = nullptr;
  ProfClock::time_point profile_start;

  Impl(std::vector<std::unique_ptr<ShardLane>> lanes_in, int threads,
       prof::PoolProfile* profile_in)
      : lanes(std::move(lanes_in)), profile(profile_in) {
    if (lanes.empty()) {
      throw std::invalid_argument("LanePool: at least one lane required");
    }
    if (profile) {
      profile->lanes.resize(lanes.size());
      profile->threads = threads <= 1 ? 0 : static_cast<int>(std::min(
                             static_cast<std::size_t>(threads), lanes.size()));
      profile_start = ProfClock::now();
    }
    if (threads <= 1) return;  // Inline mode: feed on the caller's thread.
    const std::size_t worker_count =
        std::min(static_cast<std::size_t>(threads), lanes.size());
    pending.resize(lanes.size());
    slices.resize(lanes.size());
    workers.reserve(worker_count);
    if (profile) profile->workers.resize(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) {
      workers.push_back(std::make_unique<Worker>());
      workers.back()->index = i;
      if (profile) workers.back()->wprof = &profile->workers[i];
    }
    // Spawn only once every Worker is at its final address.
    for (auto& worker : workers) {
      Worker& w = *worker;
      w.thread = std::thread([this, &w] { worker_loop(w); });
    }
  }

  ~Impl() { shutdown(); }

  Worker& worker_for(std::size_t lane) {
    return *workers[lane % workers.size()];
  }

  std::unique_ptr<Block> acquire_block(std::size_t lane) {
    std::unique_ptr<Block> block;
    {
      std::lock_guard<std::mutex> lock(free_mutex);
      if (!free_blocks.empty()) {
        block = std::move(free_blocks.back());
        free_blocks.pop_back();
      }
    }
    if (profile) {
      if (block) {
        ++profile->blocks_recycled;
      } else {
        ++profile->blocks_allocated;
      }
    }
    if (!block) {
      block = std::make_unique<Block>();
      block->requests.reserve(kFeedBlockRequests);
    }
    block->lane = lane;
    return block;
  }

  void recycle(std::unique_ptr<Block> block) {
    block->requests.clear();  // Keeps the capacity.
    std::lock_guard<std::mutex> lock(free_mutex);
    free_blocks.push_back(std::move(block));
  }

  void worker_loop(Worker& w) {
    for (;;) {
      std::unique_ptr<Block> block;
      bool failed = false;
      {
        std::unique_lock<std::mutex> lock(w.mutex);
        if (w.wprof && !w.done && w.queue.empty()) {
          // Only a wait that actually blocks is counted as idle time —
          // the common full-queue path stays untimed.
          const ProfClock::time_point wait_start = ProfClock::now();
          w.can_pull.wait(lock, [&] { return w.done || !w.queue.empty(); });
          ++w.wprof->pop_waits;
          w.wprof->idle_s += seconds_since(wait_start);
        } else {
          w.can_pull.wait(lock, [&] { return w.done || !w.queue.empty(); });
        }
        if (w.queue.empty()) {  // done, and fully drained.
          const bool finish = finish_lanes && !w.failed;
          lock.unlock();
          if (finish) finish_own_lanes(w);
          return;
        }
        block = std::move(w.queue.front());
        w.queue.pop_front();
        failed = w.failed;
      }
      w.can_push.notify_one();
      // After a failure the worker keeps draining (and discarding) its
      // queue so the producer never deadlocks on a full one.
      if (!failed) {
        try {
          ShardLane& lane = *lanes[block->lane];
          if (w.wprof) {
            const ProfClock::time_point feed_start = ProfClock::now();
            for (const Request& req : block->requests) lane.feed(req);
            const double busy = seconds_since(feed_start);
            w.wprof->busy_s += busy;
            prof::LaneProfile& lprof = profile->lanes[block->lane];
            lprof.busy_s += busy;
            ++lprof.blocks;
            lprof.requests += block->requests.size();
          } else {
            for (const Request& req : block->requests) lane.feed(req);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(w.mutex);
          w.failed = true;
          w.error = std::current_exception();
          w.error_lane = block->lane;
        }
      }
      recycle(std::move(block));
    }
  }

  /// Runs finish_slice() on every lane `w` owns: the controllers drain
  /// their backlogs in parallel instead of one after another on the
  /// caller. Counted as lane and worker busy time.
  void finish_own_lanes(Worker& w) {
    for (std::size_t lane = w.index; lane < lanes.size();
         lane += workers.size()) {
      try {
        if (w.wprof) {
          const ProfClock::time_point start = ProfClock::now();
          slices[lane] = lanes[lane]->finish_slice();
          const double busy = seconds_since(start);
          w.wprof->busy_s += busy;
          profile->lanes[lane].busy_s += busy;
        } else {
          slices[lane] = lanes[lane]->finish_slice();
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(w.mutex);
        w.failed = true;
        w.error = std::current_exception();
        w.error_lane = lane;
        return;
      }
    }
  }

  void push_block(std::unique_ptr<Block> block) {
    Worker& w = worker_for(block->lane);
    {
      std::unique_lock<std::mutex> lock(w.mutex);
      if (profile && w.queue.size() >= kMaxQueuedBlocksPerWorker) {
        // The producer is about to stall on a full queue: the signature
        // of a lane that cannot keep up with the stream.
        const ProfClock::time_point wait_start = ProfClock::now();
        w.can_push.wait(
            lock, [&] { return w.queue.size() < kMaxQueuedBlocksPerWorker; });
        ++profile->push_stalls;
        profile->push_wait_s += seconds_since(wait_start);
      } else {
        w.can_push.wait(
            lock, [&] { return w.queue.size() < kMaxQueuedBlocksPerWorker; });
      }
      if (w.failed) {
        const std::exception_ptr error = w.error;
        lock.unlock();
        shutdown();
        std::rethrow_exception(error);
      }
      w.queue.push_back(std::move(block));
      if (profile) {
        ++profile->blocks_pushed;
        profile->queue_high_water =
            std::max(profile->queue_high_water, w.queue.size());
      }
    }
    w.can_pull.notify_one();
  }

  void feed(std::size_t lane, const Request& req) {
    if (workers.empty()) {
      lanes[lane]->feed(req);
      return;
    }
    auto& slot = pending[lane];
    if (!slot) slot = acquire_block(lane);
    slot->requests.push_back(req);
    if (slot->requests.size() >= kFeedBlockRequests) {
      push_block(std::move(slot));
    }
  }

  /// Signals done and joins. Workers drain their queues first, so after
  /// a clean flush this is a barrier on all fed work. Idempotent.
  void shutdown() {
    for (auto& worker : workers) {
      {
        std::lock_guard<std::mutex> lock(worker->mutex);
        worker->done = true;
      }
      worker->can_pull.notify_one();
    }
    for (auto& worker : workers) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  }

  std::vector<ReplaySlice> finish() {
    if (workers.empty()) {
      std::vector<ReplaySlice> out;
      out.reserve(lanes.size());
      for (auto& lane : lanes) out.push_back(lane->finish_slice());
      if (profile) profile->wall_s = seconds_since(profile_start);
      return out;
    }
    for (auto& slot : pending) {
      if (slot && !slot->requests.empty()) push_block(std::move(slot));
    }
    // Published to each worker by the mutex shutdown() takes to set done.
    finish_lanes = true;
    shutdown();
    // The lowest failing lane wins, as in an inline pool's finish.
    const Worker* failed = nullptr;
    for (const auto& worker : workers) {
      if (worker->failed &&
          (!failed || worker->error_lane < failed->error_lane)) {
        failed = worker.get();
      }
    }
    if (failed) std::rethrow_exception(failed->error);
    if (profile) profile->wall_s = seconds_since(profile_start);
    return std::move(slices);
  }
};

LanePool::LanePool(std::vector<std::unique_ptr<ShardLane>> lanes, int threads,
                   prof::PoolProfile* profile)
    : impl_(std::make_unique<Impl>(std::move(lanes), threads, profile)) {}

LanePool::~LanePool() = default;

bool LanePool::threaded() const { return !impl_->workers.empty(); }

void LanePool::feed(std::size_t lane, const Request& request) {
  impl_->feed(lane, request);
}

std::vector<ReplaySlice> LanePool::finish() { return impl_->finish(); }

namespace {

/// Blocks the source producer may pull ahead of the caller (640 KiB).
/// A producer that fills the ring sleeps until half of it is free, so
/// each wake-up comes with half a ring of work in hand: on a busy host
/// a woken thread can wait for a CPU far longer than a block takes.
constexpr std::size_t kSourceRingBlocks = 16;

/// The source stage of a threaded replay: a producer thread pulls the
/// stream into a fixed ring of blocks, and the caller takes them in
/// stream order. An exception from the source ends the stream: the
/// caller receives every block pulled before it, then the exception.
/// The destructor stops and joins the producer, so a caller that
/// unwinds early (a lane error, an unsorted stream) never leaks it.
class SourceProducer {
 public:
  SourceProducer(RequestSource& source, bool timed)
      : source_(source), timed_(timed), thread_([this] { produce(); }) {}

  ~SourceProducer() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    can_fill_.notify_one();
    thread_.join();
  }

  SourceProducer(const SourceProducer&) = delete;
  SourceProducer& operator=(const SourceProducer&) = delete;

  /// Waits for the next block and points `block` at it; returns its
  /// size, 0 at the end of the stream. Rethrows the source's exception
  /// in its place. The block stays valid until release().
  std::size_t take(const Request*& block) {
    std::unique_lock<std::mutex> lock(mutex_);
    can_take_.wait(lock, [&] { return filled_ != taken_ || done_; });
    if (filled_ == taken_) {
      if (error_) std::rethrow_exception(error_);
      return 0;
    }
    const Slot& slot = ring_[taken_ % kSourceRingBlocks];
    block = slot.requests.data();
    return slot.count;
  }

  /// Hands the block take() returned back to the producer, waking it
  /// when a full ring has drained to half.
  void release() {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++taken_;
      wake = filled_ - taken_ == kSourceRingBlocks / 2;
    }
    if (wake) can_fill_.notify_one();
  }

  /// Time inside next_batch and the blocks it filled. Read only after
  /// take() returned 0: the producer has stopped writing them by then.
  double pull_s() const { return pull_s_; }
  std::uint64_t pulls() const { return pulls_; }

 private:
  struct Slot {
    std::array<Request, kFeedBlockRequests> requests;
    std::size_t count = 0;
  };

  void produce() {
    for (std::uint64_t next = 0;; ++next) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (next - taken_ == kSourceRingBlocks) {
          can_fill_.wait(lock, [&] {
            return stop_ || next - taken_ <= kSourceRingBlocks / 2;
          });
        }
        if (stop_) return;
      }
      // The slot is the producer's until `filled_` moves past it.
      Slot& slot = ring_[next % kSourceRingBlocks];
      std::exception_ptr error;
      try {
        ProfClock::time_point start;
        if (timed_) start = ProfClock::now();
        slot.count =
            source_.next_batch(slot.requests.data(), slot.requests.size());
        if (timed_ && slot.count > 0) {
          pull_s_ += seconds_since(start);
          ++pulls_;
        }
      } catch (...) {
        error = std::current_exception();
      }
      const bool end = error || slot.count == 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (end) {
          done_ = true;
          error_ = error;
        } else {
          filled_ = next + 1;
        }
      }
      can_take_.notify_one();
      if (end) return;
    }
  }

  RequestSource& source_;
  const bool timed_;
  std::vector<Slot> ring_ = std::vector<Slot>(kSourceRingBlocks);
  std::mutex mutex_;
  std::condition_variable can_fill_;  ///< Producer waits: ring full.
  std::condition_variable can_take_;  ///< Caller waits: ring empty.
  std::uint64_t filled_ = 0;  ///< Blocks handed over, in stream order.
  std::uint64_t taken_ = 0;   ///< Blocks the caller released.
  bool done_ = false;         ///< The stream ended (or the source threw).
  bool stop_ = false;         ///< The caller is leaving.
  std::exception_ptr error_;
  double pull_s_ = 0.0;
  std::uint64_t pulls_ = 0;
  std::thread thread_;  ///< Last: starts once every member is built.
};

/// The caller's share of every replay: the global sorted-stream check
/// and the stage feed. Lanes re-check their own subsequences a
/// fortiori; the first request passes trivially against 0.
class BlockFeeder {
 public:
  explicit BlockFeeder(ReplayStage& stage) : stage_(stage) {}

  void operator()(const Request* block, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      if (block[i].arrival_ps < prev_arrival_) {
        check_arrival_order(fed_ + i, prev_arrival_, block[i].arrival_ps);
      }
      prev_arrival_ = block[i].arrival_ps;
    }
    fed_ += count;
    stage_.feed(block, count);
  }

 private:
  ReplayStage& stage_;
  std::uint64_t fed_ = 0;
  std::uint64_t prev_arrival_ = 0;
};

/// Serial feed: pull, check and feed each block on the caller's thread.
/// Stage wall time is accumulated locally per batch and recorded once:
/// two clock reads per block when profiling, nothing when not.
void feed_inline(RequestSource& source, ReplayStage& stage,
                 prof::Profiler* profiler) {
  Request block[kFeedBlockRequests];
  BlockFeeder feed(stage);
  double pull_s = 0.0;
  double feed_s = 0.0;
  std::uint64_t batches = 0;
  for (;;) {
    ProfClock::time_point t0;
    if (profiler) t0 = ProfClock::now();
    const std::size_t pulled = source.next_batch(block, kFeedBlockRequests);
    if (pulled == 0) break;
    ++batches;
    if (profiler) {
      pull_s += seconds_since(t0);
      t0 = ProfClock::now();
    }
    feed(block, pulled);
    if (profiler) {
      feed_s += seconds_since(t0);
      profiler->add_progress(pulled);
    }
  }
  if (profiler && batches > 0) {
    profiler->record_stage("source_pull", pull_s, batches);
    profiler->record_stage("engine_feed", feed_s, batches);
  }
}

/// Threaded feed: the producer pulls, the caller checks and feeds. The
/// caller's clock runs without gaps — every instant of its loop is
/// either waiting for a block or feeding one.
void feed_pipelined(RequestSource& source, ReplayStage& stage,
                    prof::Profiler* profiler) {
  SourceProducer producer(source, profiler != nullptr);
  BlockFeeder feed(stage);
  double wait_s = 0.0;
  double feed_s = 0.0;
  std::uint64_t batches = 0;
  ProfClock::time_point t0;
  if (profiler) t0 = ProfClock::now();
  for (;;) {
    const Request* block = nullptr;
    const std::size_t pulled = producer.take(block);
    if (profiler) {
      const ProfClock::time_point t1 = ProfClock::now();
      wait_s += std::chrono::duration<double>(t1 - t0).count();
      t0 = t1;
    }
    if (pulled == 0) break;
    ++batches;
    feed(block, pulled);
    producer.release();
    if (profiler) {
      const ProfClock::time_point t1 = ProfClock::now();
      feed_s += std::chrono::duration<double>(t1 - t0).count();
      t0 = t1;
      profiler->add_progress(pulled);
    }
  }
  if (profiler) {
    profiler->add_source_wait(wait_s);
    if (batches > 0) {
      profiler->record_stage("source_pull", producer.pull_s(),
                             producer.pulls());
      profiler->record_stage("engine_feed", feed_s, batches);
    }
  }
}

}  // namespace

std::vector<ReplaySlice> run_replay(RequestSource& source, ReplayStage& stage,
                                    const std::vector<ReplayTier>& tiers,
                                    prof::Profiler* profiler) {
  if (stage.threaded()) {
    feed_pipelined(source, stage, profiler);
  } else {
    feed_inline(source, stage, profiler);
  }

  prof::StageTimer drain_timer(profiler, "lane_drain");
  const std::vector<ReplaySlice> slices = stage.drain();
  drain_timer.stop();

  prof::StageTimer merge_timer(profiler, "shard_merge");
  std::vector<ReplaySlice> merged(tiers.size());
  std::size_t lane = 0;
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    ReplaySlice& tier = merged[t];
    for (const std::size_t end = lane + tiers[t].lanes; lane < end; ++lane) {
      merge_slice(tier, slices.at(lane));
    }
    tier.stats = finalize_slice(std::move(tier), *tiers[t].model);
  }
  return merged;
}

namespace {

/// One lane per device channel on a LanePool.
class ChannelStage final : public ReplayStage {
 public:
  ChannelStage(const AddressMap& map,
               std::vector<std::unique_ptr<ShardLane>> lanes, int threads,
               prof::PoolProfile* profile)
      : map_(map), pool_(std::move(lanes), threads, profile) {}

  void feed(const Request* block, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      const Request& req = block[i];
      pool_.feed(static_cast<std::size_t>(map_.channel(req)), req);
    }
  }

  bool threaded() const override { return pool_.threaded(); }

  std::vector<ReplaySlice> drain() override { return pool_.finish(); }

 private:
  const AddressMap& map_;
  LanePool pool_;
};

}  // namespace

SimStats run_sharded(const MemorySystem& system,
                     std::vector<std::unique_ptr<ShardLane>> lanes,
                     int threads, RequestSource& source,
                     prof::Profiler* profiler) {
  const std::size_t channels =
      static_cast<std::size_t>(system.model().timing.channels);
  if (lanes.size() != channels) {
    throw std::invalid_argument("run_sharded: one lane per channel required");
  }
  ChannelStage stage(system.address_map(), std::move(lanes), threads,
                     profiler ? profiler->add_pool("") : nullptr);
  return std::move(
      run_replay(source, stage, {{&system.model(), channels}}, profiler)
          .front()
          .stats);
}

}  // namespace comet::memsim
