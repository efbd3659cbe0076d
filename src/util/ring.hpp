#pragma once

#include <cstddef>
#include <utility>
#include <vector>

/// Allocation-free FIFO/indexable queue used on the replay hot path.
namespace comet::util {

/// Circular buffer with deque semantics (push_back / pop_front / random
/// access from the front) over one contiguous power-of-two allocation.
/// The replay engine and the sched::Controller previously used
/// std::deque here, paying a node allocation every few dozen
/// transactions; a ring touches the allocator only when it outgrows its
/// capacity, which a preallocating caller (reserve(queue_depth)) never
/// does.
template <typename T>
class RingQueue {
 public:
  RingQueue() = default;
  explicit RingQueue(std::size_t capacity) { reserve(capacity); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buffer_.size(); }

  /// Grows the allocation to hold at least `wanted` elements (rounded
  /// up to a power of two); never shrinks.
  void reserve(std::size_t wanted) {
    if (wanted <= buffer_.size()) return;
    std::size_t grown = buffer_.empty() ? 8 : buffer_.size();
    while (grown < wanted) grown *= 2;
    std::vector<T> next(grown);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buffer_[mask(head_ + i)]);
    }
    buffer_ = std::move(next);
    head_ = 0;
  }

  void push_back(T value) {
    if (size_ == buffer_.size()) reserve(size_ + 1);
    buffer_[mask(head_ + size_)] = std::move(value);
    ++size_;
  }

  T& front() { return buffer_[head_]; }
  const T& front() const { return buffer_[head_]; }

  void pop_front() {
    head_ = mask(head_ + 1);
    --size_;
  }

  /// i-th element counted from the front (0 = front()).
  T& operator[](std::size_t i) { return buffer_[mask(head_ + i)]; }
  const T& operator[](std::size_t i) const { return buffer_[mask(head_ + i)]; }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::size_t mask(std::size_t i) const { return i & (buffer_.size() - 1); }

  std::vector<T> buffer_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace comet::util
