#include "memsim/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "prof/profiler.hpp"

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

BlockRing::BlockRing(std::size_t slots) : slots_(slots) {
  for (RequestBlock& slot : slots_) slot.requests.reserve(kFeedBlockRequests);
}

RequestBlock* BlockRing::reserve() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!abandoned_ && committed_ - released_ == slots_.size()) {
    const ProfClock::time_point start = ProfClock::now();
    can_reserve_.wait(lock, [&] {
      return abandoned_ || committed_ - released_ <= slots_.size() / 2;
    });
    ++stats_.full.count;
    stats_.full.wall_s += seconds_since(start);
  }
  if (abandoned_) return nullptr;
  // The slot is the producer's until `committed_` moves past it.
  return &slots_[committed_ % slots_.size()];
}

void BlockRing::commit() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++committed_;
    stats_.high_water = std::max(
        stats_.high_water, static_cast<std::size_t>(committed_ - released_));
  }
  can_take_.notify_one();
}

void BlockRing::close(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    error_ = std::move(error);
  }
  can_take_.notify_one();
}

RequestBlock* BlockRing::take() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!closed_ && committed_ == released_) {
    const ProfClock::time_point start = ProfClock::now();
    can_take_.wait(lock, [&] { return closed_ || committed_ != released_; });
    ++stats_.empty.count;
    stats_.empty.wall_s += seconds_since(start);
  }
  if (committed_ == released_) {
    if (error_) std::rethrow_exception(error_);
    return nullptr;
  }
  return &slots_[released_ % slots_.size()];
}

void BlockRing::release() {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++released_;
    wake = committed_ - released_ == slots_.size() / 2;
  }
  if (wake) can_reserve_.notify_one();
}

void BlockRing::abandon() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    abandoned_ = true;
  }
  can_reserve_.notify_one();
}

BlockRing::Stats BlockRing::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  stats.commits = committed_;
  return stats;
}

namespace {

/// Blocks a worker's ring holds: enough to ride out scheduling jitter,
/// small enough that a slow lane backpressures the caller instead of
/// buffering the whole stream.
constexpr std::size_t kWorkerRingBlocks = 4;

/// Blocks the source producer may pull ahead of the caller (640 KiB).
constexpr std::size_t kSourceRingBlocks = 16;

}  // namespace

struct LanePool::Impl {
  struct Worker {
    explicit Worker(std::size_t index_in) : index(index_in) {}
    const std::size_t index;  ///< Owns lanes index, index + workers, ...
    BlockRing ring{kWorkerRingBlocks};
    /// Set by the worker before it abandons its ring or exits: the
    /// ring's lock or the join publishes them to the caller.
    std::exception_ptr error;
    std::size_t error_lane = 0;  ///< The lane whose feed or finish threw.
    double busy_s = 0.0;
    std::thread thread;  ///< Last: starts once the Worker is built.
  };

  std::vector<std::unique_ptr<ShardLane>> lanes;
  /// One block per lane being filled by the caller (worker mode only).
  std::vector<std::vector<Request>> pending;
  std::vector<std::unique_ptr<Worker>> workers;  ///< Empty = inline mode.
  /// Set by finish() before it closes the rings: workers then run
  /// finish_slice() on their own lanes into `slices` before exiting. An
  /// abandoned pool (an error, or destruction without finish) does not.
  bool finish_lanes = false;
  std::vector<ReplaySlice> slices;  ///< One per lane; worker mode only.
  /// Each lane's slot belongs to the worker owning it (lane % workers);
  /// an inline pool keeps them at zero.
  std::vector<prof::LaneProfile> lane_profiles;
  prof::PoolProfile* profile = nullptr;
  ProfClock::time_point start = ProfClock::now();

  Impl(std::vector<std::unique_ptr<ShardLane>> lanes_in, int threads,
       prof::PoolProfile* profile_in)
      : lanes(std::move(lanes_in)), profile(profile_in) {
    if (lanes.empty()) {
      throw std::invalid_argument("LanePool: at least one lane required");
    }
    lane_profiles.resize(lanes.size());
    if (threads <= 1) return;  // Inline mode: feed on the caller's thread.
    const std::size_t worker_count =
        std::min(static_cast<std::size_t>(threads), lanes.size());
    pending.resize(lanes.size());
    for (auto& block : pending) block.reserve(kFeedBlockRequests);
    slices.resize(lanes.size());
    workers.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) {
      workers.push_back(std::make_unique<Worker>(i));
    }
    // Spawn only once every Worker is at its final address.
    for (auto& worker : workers) {
      Worker& w = *worker;
      w.thread = std::thread([this, &w] { worker_loop(w); });
    }
  }

  ~Impl() { shutdown(); }

  /// Feeds the blocks of `w`'s ring until it closes, each swapped out
  /// of its slot first so the ring queues kWorkerRingBlocks besides the
  /// one being fed. When finishing, then runs finish_slice() on every
  /// lane `w` owns, so the controllers drain their backlogs in parallel
  /// instead of one after another on the caller. Both count as lane and
  /// worker busy time. A failure abandons the ring: the caller's next
  /// push to `w` rethrows it.
  void worker_loop(Worker& w) {
    std::size_t lane = w.index;  // The lane being fed or finished.
    const auto charge = [&](ProfClock::time_point since) {
      const double busy = seconds_since(since);
      w.busy_s += busy;
      lane_profiles[lane].busy_s += busy;
    };
    std::vector<Request> requests;  // The block being fed.
    requests.reserve(kFeedBlockRequests);
    try {
      while (RequestBlock* block = w.ring.take()) {
        lane = block->lane;
        requests.swap(block->requests);
        w.ring.release();
        const ProfClock::time_point feed_start = ProfClock::now();
        for (const Request& req : requests) lanes[lane]->feed(req);
        charge(feed_start);
        ++lane_profiles[lane].blocks;
        lane_profiles[lane].requests += requests.size();
      }
      if (!finish_lanes) return;
      for (lane = w.index; lane < lanes.size(); lane += workers.size()) {
        const ProfClock::time_point finish_start = ProfClock::now();
        slices[lane] = lanes[lane]->finish_slice();
        charge(finish_start);
      }
    } catch (...) {
      w.error = std::current_exception();
      w.error_lane = lane;
      w.ring.abandon();
    }
  }

  /// Hands `lane`'s pending block to its worker, taking the slot's
  /// drained buffer in exchange.
  void push(std::size_t lane) {
    Worker& w = *workers[lane % workers.size()];
    RequestBlock* slot = w.ring.reserve();
    if (!slot) {
      shutdown();
      std::rethrow_exception(w.error);
    }
    slot->lane = lane;
    slot->requests.swap(pending[lane]);
    pending[lane].clear();  // Keeps the capacity.
    w.ring.commit();
  }

  void feed(std::size_t lane, const Request& req) {
    if (workers.empty()) {
      lanes[lane]->feed(req);
      return;
    }
    pending[lane].push_back(req);
    if (pending[lane].size() >= kFeedBlockRequests) push(lane);
  }

  /// Closes every ring and joins. Workers drain their rings first, so
  /// after a clean flush this is a barrier on all fed work. Idempotent.
  void shutdown() {
    for (auto& worker : workers) worker->ring.close();
    for (auto& worker : workers) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  }

  /// Copies the counters into the profile; the workers are joined.
  void publish_profile() {
    profile->threads = static_cast<int>(workers.size());
    profile->wall_s = seconds_since(start);
    profile->lanes = lane_profiles;
    profile->workers.resize(workers.size());
    for (std::size_t i = 0; i < workers.size(); ++i) {
      const BlockRing::Stats ring = workers[i]->ring.stats();
      prof::WorkerProfile& wprof = profile->workers[i];
      wprof.busy_s = workers[i]->busy_s;
      wprof.idle_s = ring.empty.wall_s;
      wprof.pop_waits = ring.empty.count;
      profile->blocks_pushed += ring.commits;
      profile->push_stalls += ring.full.count;
      profile->push_wait_s += ring.full.wall_s;
      profile->queue_high_water =
          std::max(profile->queue_high_water, ring.high_water);
    }
  }

  std::vector<ReplaySlice> finish() {
    if (workers.empty()) {
      std::vector<ReplaySlice> out;
      out.reserve(lanes.size());
      for (auto& lane : lanes) out.push_back(lane->finish_slice());
      if (profile) publish_profile();
      return out;
    }
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      if (!pending[lane].empty()) push(lane);
    }
    // Published to each worker by the ring lock close() takes.
    finish_lanes = true;
    shutdown();
    // The lowest failing lane wins, as in an inline pool's finish.
    const Worker* failed = nullptr;
    for (const auto& worker : workers) {
      if (worker->error &&
          (!failed || worker->error_lane < failed->error_lane)) {
        failed = worker.get();
      }
    }
    if (failed) std::rethrow_exception(failed->error);
    if (profile) publish_profile();
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

/// The source stage of a threaded replay: a thread that pulls the
/// stream into one BlockRing, timing each next_batch call, and closes
/// it at the end of the stream or with the source's exception. The
/// destructor abandons the ring and joins, so a caller that unwinds
/// early (a lane error, an unsorted stream) never leaks the thread.
class SourceProducer {
 public:
  explicit SourceProducer(RequestSource& source)
      : source_(source), thread_([this] { produce(); }) {}

  ~SourceProducer() {
    ring_.abandon();
    thread_.join();
  }

  SourceProducer(const SourceProducer&) = delete;
  SourceProducer& operator=(const SourceProducer&) = delete;

  BlockRing& ring() { return ring_; }

  /// Time inside next_batch and the blocks it filled. Read only after
  /// take() returned null: the producer has stopped writing them.
  double pull_s() const { return pull_s_; }
  std::uint64_t pulls() const { return pulls_; }

 private:
  void produce() {
    std::exception_ptr error;
    try {
      while (RequestBlock* block = ring_.reserve()) {
        block->requests.resize(kFeedBlockRequests);
        const ProfClock::time_point start = ProfClock::now();
        const std::size_t pulled =
            source_.next_batch(block->requests.data(), kFeedBlockRequests);
        if (pulled == 0) break;
        pull_s_ += seconds_since(start);
        ++pulls_;
        block->requests.resize(pulled);
        ring_.commit();
      }
    } catch (...) {
      error = std::current_exception();
    }
    ring_.close(std::move(error));
  }

  RequestSource& source_;
  BlockRing ring_{kSourceRingBlocks};
  double pull_s_ = 0.0;
  std::uint64_t pulls_ = 0;
  std::thread thread_;  ///< Last: starts once every member is built.
};

/// The one feed loop. A threaded stage takes each block from a
/// SourceProducer's ring, a serial one pulls it inline with next_batch.
/// Either way the loop checks arrival order (lanes re-check their own
/// subsequences a fortiori; the first request passes trivially against
/// 0), feeds the stage and ticks progress. A profiled loop's clock runs
/// without gaps, two reads per block: every instant is either getting
/// a block (source_pull inline, the producer wait when threaded) or
/// feeding one.
void feed_blocks(RequestSource& source, ReplayStage& stage,
                 prof::Profiler* profiler) {
  std::optional<SourceProducer> producer;
  std::vector<Request> pulled;  // The inline block.
  if (stage.threaded()) {
    producer.emplace(source);
  } else {
    pulled.resize(kFeedBlockRequests);
  }
  double get_s = 0.0;
  double feed_s = 0.0;
  std::uint64_t blocks = 0;
  std::uint64_t fed = 0;
  std::uint64_t prev_arrival = 0;
  ProfClock::time_point t0;
  if (profiler) t0 = ProfClock::now();
  const auto lap = [&t0](double& into) {
    const ProfClock::time_point t1 = ProfClock::now();
    into += std::chrono::duration<double>(t1 - t0).count();
    t0 = t1;
  };
  for (;;) {
    const Request* block = pulled.data();
    std::size_t count = 0;
    if (!producer) {
      count = source.next_batch(pulled.data(), kFeedBlockRequests);
    } else if (const RequestBlock* taken = producer->ring().take()) {
      block = taken->requests.data();
      count = taken->requests.size();
    }
    if (profiler) lap(get_s);
    if (count == 0) break;
    ++blocks;
    for (std::size_t i = 0; i < count; ++i) {
      if (block[i].arrival_ps < prev_arrival) {
        check_arrival_order(fed + i, prev_arrival, block[i].arrival_ps);
      }
      prev_arrival = block[i].arrival_ps;
    }
    fed += count;
    stage.feed(block, count);
    if (producer) producer->ring().release();
    if (profiler) {
      lap(feed_s);
      profiler->add_progress(count);
    }
  }
  if (!profiler) return;
  if (producer) profiler->add_source_wait(get_s);
  if (blocks == 0) return;
  profiler->record_stage("source_pull", producer ? producer->pull_s() : get_s,
                         producer ? producer->pulls() : blocks);
  profiler->record_stage("engine_feed", feed_s, blocks);
}

}  // namespace

std::vector<ReplaySlice> run_replay(
    RequestSource& source, ReplayStage& stage,
    const std::vector<const DeviceModel*>& tiers, prof::Profiler* profiler) {
  feed_blocks(source, stage, profiler);

  prof::StageTimer drain_timer(profiler, "lane_drain");
  const std::vector<ReplaySlice> slices = stage.drain();
  drain_timer.stop();

  prof::StageTimer merge_timer(profiler, "shard_merge");
  std::vector<ReplaySlice> merged(tiers.size());
  std::size_t lane = 0;
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    ReplaySlice& tier = merged[t];
    for (int c = 0; c < tiers[t]->timing.channels; ++c) {
      merge_slice(tier, slices.at(lane++));
    }
    tier.stats = finalize_slice(std::move(tier), *tiers[t]);
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

/// One ReplaySession per channel, each request placed once and handed
/// straight to its channel's session, with no lane routing and no pool.
class SessionStage final : public ReplayStage {
 public:
  SessionStage(const MemorySystem& system, const std::string& workload_name,
               telemetry::Recorder* telemetry)
      : map_(system.address_map()) {
    for (int c = 0; c < system.model().timing.channels; ++c) {
      sessions_.emplace_back(system, workload_name, telemetry);
    }
  }

  void feed(const Request* block, std::size_t count) override {
    for (const Request& req : std::span(block, count)) {
      const RequestPlacement placement = map_.place(req);
      sessions_[static_cast<std::size_t>(placement.channel)].feed_issued(
          req, placement, req.arrival_ps);
    }
  }

  std::vector<ReplaySlice> drain() override {
    std::vector<ReplaySlice> slices;
    for (ReplaySession& s : sessions_) slices.push_back(s.finish_slice());
    return slices;
  }

 private:
  const AddressMap& map_;
  std::vector<ReplaySession> sessions_;
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
      run_replay(source, stage, {&system.model()}, profiler).front().stats);
}

SimStats run_sessions(const MemorySystem& system, RequestSource& source,
                      const std::string& workload_name,
                      telemetry::Recorder* telemetry,
                      prof::Profiler* profiler) {
  SessionStage stage(system, workload_name, telemetry);
  return std::move(
      run_replay(source, stage, {&system.model()}, profiler).front().stats);
}

}  // namespace comet::memsim
