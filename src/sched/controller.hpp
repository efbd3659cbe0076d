#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "memsim/device.hpp"
#include "memsim/engine.hpp"
#include "memsim/request.hpp"
#include "memsim/stats.hpp"
#include "memsim/system.hpp"

/// Event-driven memory-controller front-end: per-channel transaction
/// queues (a bounded read queue and a bounded write queue) with
/// pluggable scheduling policies, layered on top of the existing
/// DeviceModel bank timing (the ReplaySession back-end).
///
/// The paper's controller hides OPCM's asymmetric read/write latencies
/// by reordering around busy banks and deferring writes (cf. PCMCsim's
/// uCMDEngine/queue pipeline); the arrival-order replay the engine used
/// until now models none of that. This layer does:
///
///   - `fcfs`: in-order immediate handoff — every request is issued to
///     the device the instant it arrives, exactly the legacy
///     arrival-order replay. With unbounded queues this is bit-identical
///     to running without a controller (the regression anchor).
///   - `frfcfs`: first-ready FCFS — a transaction issues when its
///     target bank frees, oldest-first among ready candidates but
///     preferring open-row hits (DRAM row buffer) and open-region hits
///     (photonic GST region, whose switch penalty behaves like a row
///     miss). Batching same-row/-region traffic is where the reorder
///     gain comes from.
///   - `read-first`: reads always issue ahead of writes (reads are
///     latency-critical; OPCM writes are several times slower), with
///     write-drain hysteresis: when the write queue reaches the high
///     watermark the channel enters drain mode and issues writes —
///     stalling reads — until occupancy falls to the low watermark.
///   - `token-budget`: FR-FCFS arbitration restricted to tenants with
///     scheduling tokens left. Every tenant stream starts each epoch
///     with `tenant_tokens` tokens per channel; an issue consumes one,
///     and when no queued candidate has tokens left the channel refills
///     every bucket and starts the next epoch. A heavy tenant thus gets
///     at most `tenant_tokens` issues per epoch before lighter tenants
///     catch up — per-stream bandwidth reservation in the small.
///   - `frfcfs-cap`: FR-FCFS with a per-tenant starvation cap. Each
///     time a channel issues for one tenant while another has work
///     queued, the waiting tenant's starvation counter ticks; at
///     `starvation_cap` its transactions outrank every un-starved
///     candidate (row hits included) until one issues. Bounds the
///     tail-latency a locality-heavy neighbour can inflict.
///
/// The fairness policies act on Request::tenant (tenant::MultiSource
/// tags streams; untagged runs are one implicit tenant 0, for which
/// both reduce to frfcfs arbitration with identical results).
///
/// Queue bounds model finite controller SRAM: an arrival that finds its
/// queue full waits (an admit stall) until the scheduler issues enough
/// queued transactions to free a slot. fcfs never holds transactions,
/// so its queues never fill and the bounds only bind for the reordering
/// policies. Reordering policies consider only the 256 oldest entries
/// of each queue (the scheduling window, which binds only for
/// unbounded queues).
///
/// Each Controller serves one channel: the channel the first request
/// it admits places on. Scheduling reads nothing outside the channel,
/// so every engine runs one controller per channel and merges their
/// slices in channel order. Ranks read the bank state of the
/// controller's own ReplaySession (ReplaySession::banks: busy windows,
/// open rows and regions), so arbitration and the device timing never
/// disagree; the controller keeps no copy of it.
///
/// Arbitration is incremental. Each schedulable transaction is filed
/// under its target bank (bank 0 on line-striped devices), each bank
/// caches its best pick per queue, and the controller's pick is the
/// best over its banks. A cached bank pick is recomputed, by scanning
/// only that bank's candidates, when:
///   - a transaction issues from the bank (its busy window and open
///     row/region move);
///   - a tenant's rank flips, which invalidates every bank of the
///     channel: a token-budget bucket empties or the buckets refill, or
///     a frfcfs-cap starvation count reaches the cap or resets.
/// An admitted transaction, or one sliding into the window, only
/// competes with its bank's cached pick. Apart from rank flips, a
/// decision thus costs O(banks + candidates on the issuing bank) rather
/// than O(window), and a controller with nothing queued looks at no
/// bank at all.
///
/// Everything is deterministic; each Controller is single-threaded and
/// lives on the stack of one Engine::run call, so sweeps stay
/// bit-identical for any thread count.
namespace comet::sched {

enum class Policy : std::uint8_t {
  kFcfs,
  kFrFcfs,
  kReadFirst,
  kTokenBudget,
  kFrFcfsCap,
};

/// "fcfs" | "frfcfs" | "read-first" | "token-budget" | "frfcfs-cap".
const char* policy_name(Policy policy);

/// Throws std::invalid_argument naming the valid set on unknown names.
Policy policy_from_name(const std::string& name);

/// One documentable scheduling policy: its CLI/TOML token and a
/// one-line behavioural summary. `comet_sim --list-policies` prints it
/// with the knobs that refine the policy (config/knobs.hpp).
struct PolicyInfo {
  Policy policy;
  const char* name;
  const char* summary;
};

/// Every policy the build knows, in token order. The single source of
/// truth for CLI discovery; adding a Policy enumerator without a row
/// here fails the driver tests.
const std::vector<PolicyInfo>& known_policies();

struct ControllerConfig {
  Policy policy = Policy::kFcfs;

  /// Transaction-queue bounds per channel; 0 = unbounded.
  int read_queue_depth = 32;
  int write_queue_depth = 32;

  /// Write-drain hysteresis (read-first policy): enter drain mode at
  /// `write queue occupancy >= high`, leave at `occupancy <= low`.
  /// Equal watermarks are legal (each episode drains one write).
  int drain_high_watermark = 28;
  int drain_low_watermark = 12;

  /// token-budget policy: issues each tenant may make per channel per
  /// refill epoch (see the policy summary above).
  int tenant_tokens = 64;

  /// frfcfs-cap policy: cross-tenant issues a queued tenant tolerates
  /// on a channel before its transactions outrank un-starved ones.
  int starvation_cap = 16;

  /// Throws std::invalid_argument on negative depths, watermarks
  /// outside [0 <= low <= high], high < 1, a high watermark the
  /// bounded write queue can never reach, or fairness knobs < 1.
  void validate() const;

  /// Config with the drain watermarks re-derived from the write-queue
  /// depth (high = 7/8, low = 3/8 of a bounded depth; the defaults for
  /// an unbounded one) — what the CLI and TOML layers use when only
  /// depths are given.
  static ControllerConfig with_depths(Policy policy, int read_queue_depth,
                                      int write_queue_depth);
};

/// Push-mode scheduled replay of one channel of a MemorySystem — the
/// ReplaySession of the scheduler world, and the lane of a scheduled
/// channel (make_lanes). feed() admits demand requests in arrival
/// order; the controller queues, reorders and issues them into its own
/// ReplaySession (in issue order, via feed_issued), and finish() drains
/// every queue and returns the statistics with the scheduler breakdown
/// filled in. Like the session, it serves the channel its first request
/// places on. The MemorySystem must outlive the controller.
class Controller final : public memsim::ShardLane {
 public:
  /// Validates the config. `telemetry`, when non-null, receives one
  /// RequestEvent per issued request plus the scheduler-side signal:
  /// queue-occupancy samples at every admit, admit-stall and
  /// drain-begin/-end marks, and drained-write ticks — all in the
  /// recorder lane of the controller's channel, so a shared recorder
  /// stays race-free across per-channel lanes (see telemetry.hpp). The
  /// recorder must outlive the controller.
  Controller(const memsim::MemorySystem& system, ControllerConfig config,
             std::string workload_name,
             telemetry::Recorder* telemetry = nullptr);
  Controller(Controller&&) noexcept;
  Controller& operator=(Controller&&) noexcept;
  ~Controller() override;

  /// Admits one demand request. Throws std::invalid_argument if it
  /// arrives before its predecessor, std::logic_error after finish() or
  /// if it places on another channel than the first request.
  void feed(const memsim::Request& request) override;

  /// Drains every queue, closes the run and returns the statistics.
  /// May be called once; throws std::logic_error on a second call.
  /// Equivalent to memsim::finalize_slice(finish_slice()).
  memsim::SimStats finish();

  /// Closes the run without finalizing: the channel's slice, the
  /// session's with the scheduler breakdown merged in. Same once-only
  /// contract as finish().
  memsim::ReplaySlice finish_slice() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The lane class's name before Controller implemented ShardLane
/// itself; perfbench/harness.cpp still constructs lanes under it.
using ControllerLane = Controller;

/// The one lane builder: one lane per channel of `system`, a Controller
/// when `controller` is set, else a plain ReplaySession. Every lane
/// shares `telemetry` (each writes only its own channel's recorder
/// lane).
std::vector<std::unique_ptr<memsim::ShardLane>> make_lanes(
    const memsim::MemorySystem& system,
    const std::optional<ControllerConfig>& controller,
    const std::string& workload_name, telemetry::Recorder* telemetry = nullptr);

/// The flat engine: one device, optionally behind a Controller per
/// channel, replayed on `run_threads` (as in
/// memsim::resolve_run_threads). Const and stateless across runs like
/// every Engine — the lanes live on the stack of each run() call. A
/// serial unscheduled run feeds its sessions directly
/// (memsim::run_sessions); every other run replays make_lanes' lanes
/// through memsim::run_sharded, inline on the caller's thread at one
/// run thread. The results are bit-identical for every thread count
/// (the test gate in tests/test_sharded.cpp covers every policy).
class FlatSystem final : public memsim::Engine {
 public:
  /// Validates the model and the controller config.
  explicit FlatSystem(memsim::DeviceModel model,
                      std::optional<ControllerConfig> controller = std::nullopt,
                      int run_threads = 1);

  using Engine::run;

  memsim::SimStats run(memsim::RequestSource& source,
                       const std::string& workload_name = "") const override;

 private:
  memsim::MemorySystem system_;
  std::optional<ControllerConfig> controller_;
  int run_threads_ = 1;
};

}  // namespace comet::sched
