#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

namespace comet::prof {

class Profiler;

/// Live progress heartbeat: a background thread that periodically
/// rewrites a single status line on the given stream (the driver passes
/// stderr) while a sweep runs (one line, wrapped here):
///
///   [comet] 1.2M/5.0M req (24.0%)  8.31M req/s (avg 7.9M)  ETA 0.5s
///   RSS 212 MiB
///
/// Progress is summed over the profilers' atomic counters, so it is
/// safe under threaded sweeps and sharded (--run-threads) replay; the
/// replay loops bump those counters once per 1024-request block.
/// `total_requests` sizes the percentage and ETA — pass 0 when the
/// total is unknown (e.g. trace replay), which prints counts without
/// ETA. stop() (or destruction) ends the thread and completes the line
/// with a newline so subsequent output starts clean.
class Heartbeat {
 public:
  /// Starts the heartbeat thread. `interval_ms` must be > 0; the
  /// profilers must outlive this object.
  Heartbeat(std::ostream& out, std::uint64_t interval_ms,
            std::vector<const Profiler*> profilers,
            std::uint64_t total_requests);
  ~Heartbeat();

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  /// Prints the final progress line and joins the thread (idempotent).
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace comet::prof
