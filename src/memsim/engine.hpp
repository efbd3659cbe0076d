#pragma once

#include <memory>
#include <string>
#include <vector>

#include "memsim/source.hpp"
#include "memsim/stats.hpp"

namespace comet::telemetry {
class Collector;
}

namespace comet::prof {
class Profiler;
}

/// The polymorphic replay-engine seam.
///
/// Every architecture in the study replays a RequestSource behind this
/// one interface, so drivers, sweeps and benches hold a
/// std::unique_ptr<Engine> and never branch on the concrete type. There
/// are two engines, both built by config::DeviceSpec::make_engine:
/// sched::FlatSystem for a flat device (memsim::MemorySystem is only
/// the device it replays on, not an engine) and hybrid::TieredSystem
/// for a two-tier one.
/// Engines are const and stateless across runs: all replay state lives
/// on the stack of each run() call, and a run's observers (telemetry
/// collector, host profiler) are arguments of that call, so one Engine
/// may serve concurrent sweep workers with bit-identical results. The
/// results do not depend on the run thread count either, so the
/// engine's one-thread twin (serial_twin) replays any stream to the
/// same statistics. Every
/// run() drains its source through the one replay loop,
/// memsim::run_replay (memsim/sharded.hpp); engines differ only in the
/// stage that consumes the requests.
namespace comet::memsim {

class Engine {
 public:
  virtual ~Engine() = default;

  /// Replays the stream (which must yield requests sorted by arrival
  /// time; throws std::invalid_argument naming the offending index
  /// otherwise) and returns aggregate statistics. The source is drained
  /// incrementally — O(1) memory regardless of stream length.
  ///
  /// `collector`, when set, receives the run's stage(s) and its request
  /// events and scheduler marks. `profiler`, when set, receives stage
  /// wall timings, LanePool counters and the live progress counter the
  /// heartbeat polls. Null (the default) costs one pointer test per
  /// request (telemetry) or per request block (profiler); simulated
  /// statistics are bit-identical either way. Each observer must
  /// outlive the call and serves one run at a time: concurrent runs
  /// pass their own.
  virtual SimStats run(RequestSource& source,
                       const std::string& workload_name = "",
                       telemetry::Collector* collector = nullptr,
                       prof::Profiler* profiler = nullptr) const = 0;

  /// Materialized-vector adapter: wraps `requests` in a VectorSource and
  /// replays it, bit-identical to the streaming path.
  SimStats run(const std::vector<Request>& requests,
               const std::string& workload_name = "",
               telemetry::Collector* collector = nullptr,
               prof::Profiler* profiler = nullptr) const;

  /// Threads each run() replays on (memsim::resolve_run_threads'
  /// resolution of the count the engine was built with).
  virtual int run_threads() const = 0;

  /// A copy of this engine that replays on one thread. Its statistics
  /// are bit-identical to this engine's on every stream.
  virtual std::unique_ptr<Engine> serial_twin() const = 0;
};

}  // namespace comet::memsim
