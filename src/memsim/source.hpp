#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "memsim/request.hpp"

/// Pull-based request streams.
///
/// A RequestSource fills caller-owned blocks of requests, one
/// next_batch() call per block, until exhaustion, so replay engines
/// never need the whole trace in memory: a lazy generator source or an
/// on-disk trace reader replays arbitrarily long streams in O(1) space,
/// while VectorSource adapts the existing materialized-vector call
/// sites. Sources are single-pass: once next_batch() returns 0 the
/// stream is drained for good.
///
/// Requests must be yielded in non-decreasing arrival_ps order (the
/// sorted-stream contract); engines verify this incrementally as they
/// pull and throw std::invalid_argument naming the offending index.
namespace comet::memsim {

/// Block size the replay engines use when pulling through next_batch().
inline constexpr std::size_t kFeedBlockRequests = 1024;

class RequestSource {
 public:
  virtual ~RequestSource() = default;

  /// Fills `out[0 .. max)` with the next requests of the stream and
  /// returns how many were written; 0 means the stream is exhausted
  /// (never before, unless `max` is 0). This is the one method a source
  /// implements: the replay engines pull kFeedBlockRequests at a time,
  /// so the virtual dispatch amortizes over a block, and a call may
  /// return fewer than `max` without ending the stream.
  virtual std::size_t next_batch(Request* out, std::size_t max) = 0;

  /// The next request, or std::nullopt once the stream is exhausted: a
  /// block of one. Virtual only so a wrapping source can time it.
  virtual std::optional<Request> next() {
    Request request;
    if (next_batch(&request, 1) == 0) return std::nullopt;
    return request;
  }
};

/// Adapts a materialized vector (borrowed or owned) to the streaming
/// interface.
///
/// Lifetime contract: the lvalue constructor BORROWS — it stores only
/// a pointer to the caller's vector, which must stay alive and
/// unmodified until the source is drained or destroyed, whichever
/// comes last. Mutating the vector mid-stream (push_back may
/// reallocate) or letting it die first leaves the source reading
/// freed memory. The rvalue constructor OWNS: it moves the vector in
/// and has no external lifetime dependency — prefer it whenever the
/// caller is done with the data. A source that wraps a borrowing
/// VectorSource (a tenant::PacedSource or tenant::MultiSource owning
/// it) inherits the same obligation: the vector must outlive the
/// wrapper's drain.
class VectorSource final : public RequestSource {
 public:
  explicit VectorSource(const std::vector<Request>& requests)
      : requests_(&requests) {}
  explicit VectorSource(std::vector<Request>&& requests)
      : owned_(std::move(requests)), requests_(&owned_) {}

  // requests_ may point into owned_; default copy/move would leave it
  // dangling at the old object.
  VectorSource(const VectorSource&) = delete;
  VectorSource& operator=(const VectorSource&) = delete;

  std::size_t next_batch(Request* out, std::size_t max) override {
    const std::size_t available = requests_->size() - pos_;
    const std::size_t take = max < available ? max : available;
    std::copy_n(requests_->data() + pos_, take, out);
    pos_ += take;
    return take;
  }

 private:
  std::vector<Request> owned_;
  const std::vector<Request>* requests_;
  std::size_t pos_ = 0;
};

}  // namespace comet::memsim
