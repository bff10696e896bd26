// Bounded-optional MPMC blocking queue for the real (threaded) runtime:
// frontends' client threads, node inboxes and replier fan-out.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

namespace bft {

template <typename T>
class BlockingQueue {
 public:
  /// capacity == 0 means unbounded.
  explicit BlockingQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Blocks while full; returns false if the queue was closed.
  bool push(T value) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] {
      return closed_ || capacity_ == 0 || items_.size() < capacity_;
    });
    if (closed_) return false;
    items_.push_back(std::move(value));
    size_.store(items_.size(), std::memory_order_relaxed);
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false when full or closed.
  bool try_push(T value) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || (capacity_ != 0 && items_.size() >= capacity_)) return false;
    items_.push_back(std::move(value));
    size_.store(items_.size(), std::memory_order_relaxed);
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item arrives or the queue is closed-and-empty.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    size_.store(items_.size(), std::memory_order_relaxed);
    not_full_.notify_one();
    return value;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    size_.store(items_.size(), std::memory_order_relaxed);
    not_full_.notify_one();
    return value;
  }

  /// Wakes all waiters; subsequent pushes fail, pops drain remaining items.
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Takes no lock, so depth gauges can sample it on every push and pop;
  /// while other threads push or pop it may trail them by a few items.
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::atomic<std::size_t> size_{0};  // items_.size(), published for size()
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace bft
