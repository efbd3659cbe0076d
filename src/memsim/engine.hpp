#pragma once

#include <string>
#include <vector>

#include "memsim/device.hpp"
#include "memsim/source.hpp"
#include "memsim/stats.hpp"

namespace comet::telemetry {
class Collector;
class Recorder;
}

namespace comet::prof {
class Profiler;
}

/// The polymorphic replay-engine seam.
///
/// Every architecture in the study — a flat sched::FlatSystem, a
/// hybrid TieredSystem, and any future backend — replays a
/// RequestSource behind this one interface, so drivers, sweeps and
/// benches hold a std::unique_ptr<Engine> and never branch on the
/// concrete type.
/// Engines are const and stateless across runs: all replay state lives
/// on the stack of each run() call, so one Engine may serve concurrent
/// sweep workers with bit-identical results. Every run() drains its
/// source through the one replay loop, memsim::run_replay
/// (memsim/sharded.hpp); engines differ only in the stage that consumes
/// the requests.
namespace comet::memsim {

class Engine {
 public:
  virtual ~Engine() = default;

  /// Attaches a telemetry collector the next run() records into: each
  /// run registers its stage(s) and streams request events / scheduler
  /// marks through the collector's recorders. Null (the default)
  /// disables telemetry at the cost of one pointer test per request.
  /// The collector must outlive every run() and is written by one run
  /// at a time — attach a separate Collector per concurrent job.
  void attach_telemetry(telemetry::Collector* collector) {
    telemetry_ = collector;
  }

  /// The attached collector, or nullptr (run() implementations and
  /// tests read this; sweeps attach per-job collectors).
  telemetry::Collector* telemetry() const { return telemetry_; }

  /// Attaches a host-side profiler the next run() reports into: stage
  /// wall timings, LanePool utilization/stall counters, and the live
  /// progress counter the heartbeat polls. Null (the default) disables
  /// profiling at the cost of one pointer test per request block;
  /// simulated statistics are bit-identical either way. Same lifetime
  /// and sharing rules as attach_telemetry: one profiler per concurrent
  /// job, outliving every run().
  void attach_profiler(prof::Profiler* profiler) { profiler_ = profiler; }

  /// The attached profiler, or nullptr.
  prof::Profiler* profiler() const { return profiler_; }

  /// Replays the stream (which must yield requests sorted by arrival
  /// time; throws std::invalid_argument naming the offending index
  /// otherwise) and returns aggregate statistics. The source is drained
  /// incrementally — O(1) memory regardless of stream length.
  virtual SimStats run(RequestSource& source,
                       const std::string& workload_name = "") const = 0;

  /// Materialized-vector adapter: wraps `requests` in a VectorSource and
  /// replays it, bit-identical to the streaming path.
  SimStats run(const std::vector<Request>& requests,
               const std::string& workload_name = "") const;

 protected:
  /// Registers the run's single telemetry stage, spanning `model`'s
  /// channels and banks with the collector's whole event budget, and
  /// returns its recorder; null when no collector is attached.
  telemetry::Recorder* telemetry_stage(const DeviceModel& model) const;

 private:
  telemetry::Collector* telemetry_ = nullptr;
  prof::Profiler* profiler_ = nullptr;
};

}  // namespace comet::memsim
