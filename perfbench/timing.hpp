#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "memsim/sharded.hpp"
#include "memsim/source.hpp"

/// Timing wrappers the traced run places at the simulator's public
/// seams. On the engines' hot path both time blocks of requests, not
/// single ones, so a traced run costs a few clock reads per thousand
/// requests. Both forward every call unchanged, so the wrapped run's
/// statistics are bit-identical to the bare run's (the harness checks
/// this on every traced run).
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Busy time of one layer.
struct Span {
  double busy_s = 0.0;
};

/// Times every pull from the wrapped source. The engines pull through
/// next_batch in kFeedBlockRequests-sized blocks.
class TimedSource final : public comet::memsim::RequestSource {
 public:
  TimedSource(comet::memsim::RequestSource& inner, Span& span)
      : inner_(inner), span_(span) {}

  std::optional<comet::memsim::Request> next() override {
    const Clock::time_point start = Clock::now();
    auto request = inner_.next();
    span_.busy_s += seconds_since(start);
    return request;
  }

  std::size_t next_batch(comet::memsim::Request* out,
                         std::size_t max) override {
    const Clock::time_point start = Clock::now();
    const std::size_t pulled = inner_.next_batch(out, max);
    span_.busy_s += seconds_since(start);
    return pulled;
  }

 private:
  comet::memsim::RequestSource& inner_;
  Span& span_;
};

/// Times the wrapped shard lane. Requests are buffered and fed to the
/// inner lane kBlock at a time inside one timed region; a lane's state
/// is channel-local, so deferring its feeds changes nothing it computes.
/// finish_slice flushes the buffer and times the lane's own drain (a
/// controller empties its queues there).
class TimedLane final : public comet::memsim::ShardLane {
 public:
  static constexpr std::size_t kBlock = 256;

  TimedLane(std::unique_ptr<comet::memsim::ShardLane> inner, Span& span)
      : inner_(std::move(inner)), span_(span) {}

  void feed(const comet::memsim::Request& request) override {
    pending_[count_++] = request;
    if (count_ == kBlock) flush();
  }

  comet::memsim::ReplaySlice finish_slice() override {
    flush();
    const Clock::time_point start = Clock::now();
    comet::memsim::ReplaySlice slice = inner_->finish_slice();
    span_.busy_s += seconds_since(start);
    return slice;
  }

 private:
  void flush() {
    if (count_ == 0) return;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < count_; ++i) inner_->feed(pending_[i]);
    span_.busy_s += seconds_since(start);
    count_ = 0;
  }

  std::unique_ptr<comet::memsim::ShardLane> inner_;
  Span& span_;
  std::array<comet::memsim::Request, kBlock> pending_{};
  std::size_t count_ = 0;
};

}  // namespace perfbench
