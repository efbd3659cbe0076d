#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "prof/slo.hpp"

/// Host-side run profiling: the wall-clock twin of src/telemetry.
///
/// Telemetry observes *simulated* time — request lifecycles on the
/// device's own clock. This layer observes the *simulator*: how long
/// each replay stage took on the host, how busy the LanePool workers
/// were, where the producer stalled on a full block ring, and how much
/// memory the process touched. None of it ever feeds back into the
/// replay, so simulated statistics are bit-identical with profiling on
/// or off — the same contract the telemetry seam keeps, enforced by the
/// same kind of tests.
///
/// Threading model (mirrors telemetry::Collector): one Profiler per
/// sweep job, created on the driver thread before any worker starts.
/// Stage timings are accumulated under a mutex (a handful of calls per
/// run, never per request); pool profiles are registered on the
/// producer thread before lane workers spawn and filled on it by
/// LanePool::finish after the workers are joined. The only fields read
/// *during* a run are the atomic progress counters the heartbeat polls.
namespace comet::prof {

/// What a run should observe; the [profile] + [slo] config sections
/// build one (the --profile/--progress/--assert-slo flags spell their
/// keys).
struct ProfSpec {
  /// Record the host profile (stage timers, pool counters, RSS) and
  /// report it as the JSON `host` object and the console table.
  bool profile = false;

  /// Heartbeat interval of the live stderr progress line [ms];
  /// 0 disables the heartbeat.
  std::uint64_t progress_ms = 0;

  /// Health assertions evaluated per record after the run; any
  /// violation makes the driver exit 3. Empty = no gating.
  std::vector<SloPredicate> slo;

  bool profiling() const { return profile; }
  bool heartbeat() const { return progress_ms > 0; }
  bool gating() const { return !slo.empty(); }
  bool enabled() const { return profiling() || heartbeat() || gating(); }
};

/// Accumulated wall time of one named replay stage (source pull, engine
/// feed, shard merge, baseline replays, ...). Stages timed on other
/// threads overlap the caller's: source_pull runs on a producer thread,
/// and baseline_replays, recorded once per multi-tenant run as the
/// summed wall time of its run-alone replays
/// (tenant::run_multi_tenant), overlaps the shared run's stages when
/// the run has more than one run thread.
struct StageStats {
  std::uint64_t calls = 0;
  double wall_s = 0.0;
};

/// One shard lane's share of a pool's work.
struct LaneProfile {
  /// Wall time inside this lane's feed() and finish_slice() calls.
  double busy_s = 0.0;
  std::uint64_t blocks = 0;
  std::uint64_t requests = 0;
};

/// One pool worker's time split.
struct WorkerProfile {
  double busy_s = 0.0;       ///< Its lanes' busy_s, summed in lane order.
  double idle_s = 0.0;       ///< Blocked on an empty ring.
  std::uint64_t pop_waits = 0;  ///< Times the ring ran dry.
};

/// Wall-clock counters of one LanePool run, filled by LanePool::finish
/// once its workers are joined. The push_* fields and queue_high_water
/// are the caller's side of the workers' block rings. An inline pool
/// (threads <= 1) keeps only wall_s and zeroed lanes: per-request
/// timing on the caller's thread would cost on the hot path, and
/// "worker utilization" has no meaning without workers.
struct PoolProfile {
  std::string stage;   ///< "" for flat pools, "tiers" for hybrid.
  int threads = 0;     ///< Worker count; 0 = inline mode.
  double wall_s = 0.0; ///< Pool construction to finish().

  std::vector<LaneProfile> lanes;
  std::vector<WorkerProfile> workers;

  std::uint64_t blocks_pushed = 0;
  std::uint64_t push_stalls = 0;  ///< Producer waits on a full ring.
  double push_wait_s = 0.0;
  std::size_t queue_high_water = 0;  ///< Deepest worker ring observed.

  /// Mean worker busy fraction in [0, 1]; 0 for inline pools.
  double utilization() const;
};

/// Per-run (per sweep job) host-profiling root: engines write stage
/// timings and pool profiles into the profiler passed to Engine::run
/// (a nullable argument, like the telemetry collector), the heartbeat
/// polls the atomic progress counters while the run executes, and the
/// driver reads the aggregate back afterwards.
class Profiler {
 public:
  explicit Profiler(ProfSpec spec);

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  const ProfSpec& spec() const { return spec_; }

  /// Adds `wall_s` seconds (over `calls` timed intervals) to the named
  /// stage. Thread-safe; called a handful of times per run, never per
  /// request.
  void record_stage(const std::string& name, double wall_s,
                    std::uint64_t calls = 1);

  /// Adds `wall_s` seconds the replay loop's caller spent waiting for
  /// the source producer to hand over a filled block (threaded runs
  /// only). Kept apart from the stages: the source_pull it waits on is
  /// timed on the producer thread, overlapping the caller's stages, so
  /// the caller's stages plus this wait cover its run wall clock.
  /// Thread-safe; called once per run.
  void add_source_wait(double wall_s);
  double source_wait_seconds() const;

  /// Registers one LanePool's profile and returns it, owned by the
  /// Profiler; the pool fills it in finish(). Thread-safe; called on
  /// the pool's producer thread.
  PoolProfile* add_pool(std::string stage);

  /// Live progress: requests pulled from the source so far, bumped once
  /// per block (not per request) by the replay loops and read by the
  /// heartbeat thread.
  void add_progress(std::uint64_t requests) {
    progress_.fetch_add(requests, std::memory_order_relaxed);
  }
  std::uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }

  /// Whole-job wall time and served request count, set once by the
  /// sweep worker when the job finishes.
  void set_run_totals(double wall_s, std::uint64_t requests);
  double wall_seconds() const { return wall_s_; }
  std::uint64_t run_requests() const { return run_requests_; }

  /// Served requests per host second; 0 on a zero-time or zero-request
  /// run (degenerate runs must not divide by zero).
  double requests_per_second() const;

  // --- Read-back (driver thread, after the run joined).
  const std::map<std::string, StageStats>& stages() const { return stages_; }
  const std::vector<std::unique_ptr<PoolProfile>>& pools() const {
    return pools_;
  }

 private:
  ProfSpec spec_;
  mutable std::mutex mutex_;  ///< Guards stages_, source_wait_s_, pools_.
  std::map<std::string, StageStats> stages_;
  double source_wait_s_ = 0.0;
  std::vector<std::unique_ptr<PoolProfile>> pools_;
  std::atomic<std::uint64_t> progress_{0};
  double wall_s_ = 0.0;
  std::uint64_t run_requests_ = 0;
};

/// Scoped stage timer: measures construction to destruction (or stop())
/// on the steady clock and records into the profiler. A null profiler
/// makes every operation a no-op, so call sites need no branching.
class StageTimer {
 public:
  StageTimer(Profiler* profiler, const char* stage)
      : profiler_(profiler), stage_(stage) {
    if (profiler_) start_ = std::chrono::steady_clock::now();
  }
  ~StageTimer() { stop(); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Records the elapsed time now (idempotent).
  void stop() {
    if (!profiler_) return;
    const auto elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_);
    profiler_->record_stage(stage_, elapsed.count());
    profiler_ = nullptr;
  }

 private:
  Profiler* profiler_;
  const char* stage_;
  std::chrono::steady_clock::time_point start_;
};

/// Current and peak resident set size of this process [bytes], read
/// from /proc/self/status (VmRSS / VmHWM); 0 where that is unavailable.
std::uint64_t current_rss_bytes();
std::uint64_t peak_rss_bytes();

}  // namespace comet::prof
