#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "memsim/device.hpp"
#include "memsim/request.hpp"
#include "memsim/stats.hpp"
#include "util/divisor.hpp"

namespace comet::telemetry {
class Recorder;
}

/// The device side of trace replay (the NVMain-2.0 substitute): the
/// MemorySystem device (a validated DeviceModel and its AddressMap) and
/// ReplaySession, the device timing of one channel. The engines that
/// drive them are sched::FlatSystem and hybrid::TieredSystem.
///
/// One generic controller serves every architecture in the study, driven
/// entirely by the DeviceModel descriptor: requests are interleaved over
/// channels by line address, queued FCFS per channel with a bounded
/// outstanding window (the controller's exploitable memory-level
/// parallelism), scheduled onto banks honouring occupancy, row-buffer
/// hits, refresh blocking and photonic region-switch penalties, and
/// charged per-bit dynamic energy plus always-on background power.
///
/// Streaming contract: replay is incremental. Every engine pulls the
/// RequestSource in blocks through the replay loop (run_replay,
/// memsim/sharded.hpp) and feeds one replay object per channel (a
/// ReplaySession, or a sched::Controller in front of one), each keeping
/// only O(banks) scheduler state — never the trace itself — so
/// arbitrarily long streams (multi-million-request NVMain traces, lazy
/// generator sources) replay in constant memory. The stream must arrive
/// sorted by arrival_ps: the loop and each session verify monotonicity
/// and throw std::invalid_argument naming the offending (0-based) index
/// and both out-of-order timestamps. Results are bit-identical whether a
/// trace is streamed or materialized first: Engine::run's vector
/// overload is a thin VectorSource adapter over the same loop.
namespace comet::memsim {

/// The sorted-stream check: throws std::invalid_argument naming request
/// `index` and both timestamps if it arrives at `arrival_ps`, before its
/// predecessor's `prev_ps`.
void check_arrival_order(std::uint64_t index, std::uint64_t prev_ps,
                         std::uint64_t arrival_ps);

/// Where the controller address hash places one request: the serving
/// channel, the bank within it, and the row / photonic region the first
/// line falls into. The sched::Controller carries the AddressMap::place
/// result from admission to ReplaySession::feed_issued, so queue
/// arbitration and bank timing always agree on the mapping.
struct RequestPlacement {
  int channel = 0;
  int bank = 0;
  std::uint64_t row = 0;
  std::uint64_t region = 0;

  bool operator==(const RequestPlacement&) const = default;
};

/// The controller address hash of one device (NVMain-style bank/channel
/// interleaving: it spreads hot lines over channels and banks so that
/// Zipf-skewed streams do not serialize on one bank), with each divisor
/// of the mapping fixed at construction: a shift and a mask when it is
/// a power of two, else the exact divisor. Each MemorySystem builds one,
/// the single source of placement, channel routing and line counts.
class AddressMap {
 public:
  /// Only derives shifts, so an unvalidated timing is safe to map.
  explicit AddressMap(const DeviceTiming& timing);

  RequestPlacement place(const Request& request) const {
    const std::uint64_t line = hashed_line(request);
    return {static_cast<int>(channels_.mod(line)),
            static_cast<int>(banks_.mod(channels_.div(line))),
            row_.div(request.address),
            region_.d != 0 ? region_.div(request.address) : 0};
  }

  /// The serving channel alone: what a lane router needs.
  int channel(const Request& request) const {
    return static_cast<int>(channels_.mod(hashed_line(request)));
  }

  /// Device lines a request of `size_bytes` spans, rounded up. The sum
  /// wraps in 32 bits, as the session's count always has.
  std::uint64_t lines_needed(std::uint32_t size_bytes) const {
    return line_.div(static_cast<std::uint32_t>(size_bytes + line_.d - 1));
  }

 private:
  std::uint64_t hashed_line(const Request& request) const {
    std::uint64_t x = line_.div(request.address);
    x ^= x >> 13;
    x *= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 29;
    return x;
  }

  util::Divisor line_, channels_, banks_, row_, region_;  ///< Region 0: none.
};

/// A partial replay result: the statistics of some subset of a run's
/// requests, before span-dependent finalization. Each ReplaySession and
/// sched::Controller serves one channel and returns its channel's
/// slice; every engine merges those slices in channel order.
/// span_ps and background_energy_pj stay zero until finalize_slice
/// derives them from the merged arrival/completion window.
struct ReplaySlice {
  SimStats stats;
  std::uint64_t fed = 0;               ///< Requests covered by the slice.
  std::uint64_t first_arrival_ps = 0;  ///< Meaningful only when fed > 0.
  std::uint64_t last_completion_ps = 0;
};

/// Merges `from` into `into`: integer counters add, energy/busy-time
/// sums add, latency/queue/sched RunningStats merge (exact when either
/// side is empty — the case the bit-identity guarantee rests on), the
/// arrival/completion window widens, and names/flags fill in when
/// `into` lacks them. This is the only code that combines per-request
/// statistics — the per-channel slices of sessions and controllers and
/// the hybrid combined view all reduce through it — so a new SimStats
/// field needs one line here.
void merge_slice(ReplaySlice& into, const ReplaySlice& from);

/// Closes a merged slice into final statistics: derives span_ps from
/// the arrival/completion window and charges span-proportional
/// background energy (always-on plus activity-gated) for `model`.
SimStats finalize_slice(ReplaySlice slice, const DeviceModel& model);

class MemorySystem;

/// One channel's replay object as the replay loop drives it: feed()
/// is called in stream order by the lane's single worker, and
/// finish_slice() once, after every feed, by the same worker (by the
/// caller in inline mode). ReplaySession and sched::Controller are the
/// lanes every engine runs; tests and benches wrap or fake them.
class ShardLane {
 public:
  virtual ~ShardLane() = default;
  virtual void feed(const Request& request) = 0;
  virtual ReplaySlice finish_slice() = 0;
};

/// The timing state of one bank of a session's channel. A bank starts
/// free at 0 with nothing open and changes only when a request is fed.
struct BankState {
  std::uint64_t free_ps = 0;          ///< Busy until (tails included).
  std::uint64_t open_row = ~0ull;     ///< Row of the last access.
  std::uint64_t open_region = ~0ull;  ///< Photonic region of the last.
};

/// Push-mode incremental replay of one channel of a MemorySystem: feed()
/// schedules one request at a time (verifying the sorted-stream
/// contract), finish_slice() closes the run and returns the channel's
/// slice. The session serves the channel the first request places
/// on; a later request placed on any other channel is a routing bug and
/// throws std::logic_error. This is the primitive every engine builds
/// on, and the lane of an unscheduled channel: a serial flat run feeds
/// one session per channel directly (run_sessions), every other run
/// feeds them as lanes (run_sharded, hybrid::TieredSystem) and merges
/// their finish_slice() results in channel order. A sched::Controller
/// ranks its queues on the session's bank state. The MemorySystem must
/// outlive the session.
class ReplaySession final : public ShardLane {
 public:
  /// `telemetry`, when non-null, receives one RequestEvent per fed
  /// request in the recorder lane of the session's channel (the
  /// near-zero-cost observability hook: untraced sessions pay one null
  /// test per request). The recorder must outlive the session and span
  /// at least this system's channels/banks. Lanes of one stage may
  /// share a recorder: each writes only its own channel's lane, so the
  /// sharing is race-free and the recorded telemetry is byte-identical
  /// at every thread count (see telemetry.hpp).
  ReplaySession(const MemorySystem& system, std::string workload_name,
                telemetry::Recorder* telemetry = nullptr);
  ReplaySession(ReplaySession&&) noexcept;
  ReplaySession& operator=(ReplaySession&&) noexcept;
  ~ReplaySession() override;

  /// Schedules one request. Throws std::invalid_argument if it arrives
  /// before its predecessor, std::logic_error after finish_slice() or
  /// if it places on another channel than the first request.
  void feed(const Request& request) override;

  /// Scheduled-controller entry point: schedules `request` as if it
  /// were handed to the device at `issue_ps` (>= its arrival time),
  /// while all latency/queue-delay statistics stay anchored at the
  /// original arrival, and returns when its data returns. A
  /// sched::Controller reorders its transaction queues and feeds in
  /// issue order, so the stream must be sorted by issue_ps. Violations
  /// (issue before arrival, non-monotonic issue times, another channel)
  /// are caller bugs and throw std::logic_error. With issue_ps ==
  /// arrival_ps on a sorted stream this is exactly feed(), bit for bit:
  /// the serial flat replay feeds its sessions this way. `placement` is
  /// the request's AddressMap::place result, computed once by the
  /// caller; builds without NDEBUG recompute it and throw
  /// std::logic_error on a stale one.
  std::uint64_t feed_issued(const Request& request,
                            const RequestPlacement& placement,
                            std::uint64_t issue_ps);

  /// The channel's banks, read-only; valid for the session's lifetime.
  std::span<const BankState> banks() const;

  /// Closes the run without finalizing: returns the channel's slice,
  /// ready for merge_slice with the other channels' slices (then
  /// finalize_slice once). May be called once; throws std::logic_error
  /// on a second call.
  ReplaySlice finish_slice() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The device a run replays on: the validated model and its address
/// map, shared read-only by every session and controller of the run.
/// It replays nothing itself; sched::FlatSystem is the flat engine.
class MemorySystem {
 public:
  /// Validates the model.
  explicit MemorySystem(DeviceModel model);

  const DeviceModel& model() const { return model_; }
  const AddressMap& address_map() const { return map_; }

 private:
  DeviceModel model_;
  AddressMap map_;
};

}  // namespace comet::memsim
