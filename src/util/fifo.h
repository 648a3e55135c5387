// A FIFO queue for the simulator's serial devices (CPU cores, the PCAP, the
// SD card).
//
// Every board owns several device queues and most of them stay empty for
// the whole run, so the queue must cost nothing until used: a
// std::vector plus a head index allocates nothing until the first push
// (std::deque allocates a node map and a 512-byte chunk at construction).
// Popping only advances the head. When the queue drains, the head resets
// and the storage is reused from the front; when a push finds the storage
// full while a consumed prefix sits in front, the live elements slide
// down instead of the buffer growing. Capacity therefore stays below twice
// the peak backlog even under sustained contention that never drains the
// queue, and a steady push/pop cycle allocates nothing.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace vs::util {

template <class T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return items_.size() - head_;
  }
  /// Elements the storage holds without reallocating.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return items_.capacity();
  }

  void push_back(T value) {
    if (head_ > 0 && items_.size() == items_.capacity()) compact();
    items_.push_back(std::move(value));
  }

  /// Removes and returns the oldest element. Precondition: !empty().
  [[nodiscard]] T pop_front() {
    assert(!empty());
    T out = std::move(items_[head_++]);
    if (empty()) clear();
    return out;
  }

  /// Drops every element; the storage is kept for reuse.
  void clear() noexcept {
    items_.clear();
    head_ = 0;
  }

  /// Iteration from the oldest element to the newest.
  [[nodiscard]] auto begin() const noexcept { return items_.begin() + head_; }
  [[nodiscard]] auto end() const noexcept { return items_.end(); }

 private:
  /// Slides the live elements to the front of the storage.
  void compact() {
    items_.erase(items_.begin(),
                 items_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }

  std::vector<T> items_;
  std::size_t head_ = 0;  ///< index of the oldest live element
};

}  // namespace vs::util
