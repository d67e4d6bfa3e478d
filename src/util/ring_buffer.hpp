// Fixed-capacity overwriting ring buffer: the storage discipline of hwdb's
// "active ephemeral stream database ... fixed size memory buffer" (paper §2).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hw {

/// Oldest entries are overwritten once capacity is reached. Iteration visits
/// entries oldest-first. Never allocates after construction: the storage is
/// reserved up front, but a slot is only constructed when the first push
/// reaches it, so an empty buffer costs no element constructions.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    assert(capacity > 0 && "ring buffer needs nonzero capacity");
    buf_.reserve(capacity);
  }

  /// Inserts, overwriting the oldest entry when full. Returns true if an old
  /// entry was evicted.
  bool push(T value) {
    const bool evicting = size_ == capacity_;
    if (head_ == buf_.size()) {
      buf_.push_back(std::move(value));  // first lap: construct the slot
    } else {
      buf_[head_] = std::move(value);
    }
    head_ = (head_ + 1) % capacity_;
    if (evicting) {
      tail_ = head_;
      ++evicted_;
    } else {
      ++size_;
    }
    return evicting;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Total entries overwritten since construction (hwdb exposes this so
  /// clients can detect data loss in long windows).
  [[nodiscard]] std::uint64_t evicted() const { return evicted_; }

  /// Element `i` counting from the oldest (0) to the newest (size()-1).
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(i < size_);
    return buf_[(tail_ + i) % capacity_];
  }

  [[nodiscard]] const T& newest() const { return at(size_ - 1); }
  [[nodiscard]] const T& oldest() const { return at(0); }

  /// Destroys every entry; the reserved storage stays.
  void clear() {
    buf_.clear();
    head_ = tail_ = size_ = 0;
  }

  /// Snapshot-restore only: overwrites the eviction count after a clear()
  /// plus refill reproduced the buffer's contents.
  void restore_evicted(std::uint64_t n) { evicted_ = n; }

  /// Visits entries oldest-first; stops early if `fn` returns false.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (!fn(at(i))) return;
    }
  }

  /// Visits entries newest-first; stops early if `fn` returns false. Windowed
  /// queries ([RANGE n] / [ROWS n]) scan from the newest end and stop at the
  /// window boundary, so cost is O(window), not O(table).
  template <typename Fn>
  void for_each_newest_first(Fn&& fn) const {
    for (std::size_t i = size_; i > 0; --i) {
      if (!fn(at(i - 1))) return;
    }
  }

 private:
  std::size_t capacity_;
  std::vector<T> buf_;    // slots [0, buf_.size()) are constructed
  std::size_t head_ = 0;  // next write slot
  std::size_t tail_ = 0;  // oldest element
  std::size_t size_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace hw
