// Bounded MPMC request queue -- the admission layer between request
// producers and the execution pool.
//
// Shape follows FFmpeg's libavutil/threadmessage producer/consumer queue:
// a fixed-capacity ring with blocking push and pop, plus explicit close
// semantics so shutdown is a protocol, not a race. The bound is the
// backpressure mechanism: when consumers fall behind, push() blocks, so an
// open-loop producer is throttled to the service rate instead of growing
// an unbounded backlog.
//
// Lifecycle contract:
//   - push admits items while the queue is open; after close() it fails
//     and the item is NOT enqueued.
//   - pop/pop_batch keep draining items that were admitted before close()
//     -- close is "no new work", never "drop queued work". pop returns
//     false (pop_batch returns 0) only when the queue is closed AND empty:
//     the consumer's signal to exit its loop.
//
// pop_batch() is the micro-batch former of core::InferenceServer: it
// blocks for the first item, then takes up to `max` items, optionally
// holding the batch open for a deadline while it is underfull -- the
// classic batching-latency trade (deadline 0 = dispatch immediately).
//
// All members are safe for any number of concurrent producers and
// consumers. T must be movable; the queue never allocates after
// construction, so moving PODish items through it is allocation-free
// (the steady-state requirement of the serving hot path).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "common/error.h"

namespace tsnn {

template <typename T>
class RequestQueue {
 public:
  /// A queue holding at most `capacity` items (must be > 0). Storage is
  /// allocated once, here.
  explicit RequestQueue(std::size_t capacity) : ring_(check_capacity(capacity)) {}

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Blocking push: waits while the queue is full. True when enqueued;
  /// false when the queue is (or becomes, while waiting) closed -- the
  /// item is dropped, so callers treating loss as an error must check.
  bool push(T item) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait(lock, [&] { return closed_ || count_ < ring_.size(); });
      if (closed_) {
        return false;
      }
      enqueue_locked(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop: waits for an item. True with `out` filled; false only
  /// when the queue is closed and fully drained.
  bool pop(T& out) { return pop_batch(&out, 1, std::chrono::microseconds{0}) == 1; }

  /// Micro-batch pop: blocks until at least one item is available (or the
  /// queue is closed), takes up to `max` items into `out[0..)`, and -- when
  /// the batch is underfull and `deadline` > 0 -- keeps the batch open,
  /// absorbing later arrivals, until it is full or `deadline` has elapsed
  /// since the first item was taken. The deadline is armed ONCE, at the
  /// first take: later arrivals land in the open batch but never extend
  /// the window, so a steady trickle cannot stall the consumer
  /// indefinitely. Returns the batch size; 0 means closed-and-drained (the
  /// consumer-loop exit signal). Items within a batch preserve FIFO order.
  std::size_t pop_batch(T* out, std::size_t max,
                        std::chrono::microseconds deadline) {
    if (max == 0) {
      return 0;
    }
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [&] { return closed_ || count_ > 0; });
      if (count_ == 0) {
        return 0;  // closed and drained
      }
      while (n < max && count_ > 0) {
        out[n++] = dequeue_locked();
      }
      if (n < max && deadline.count() > 0 && !closed_) {
        const auto until = std::chrono::steady_clock::now() + deadline;
        while (n < max) {
          const bool ready = not_empty_.wait_until(
              lock, until, [&] { return closed_ || count_ > 0; });
          if (!ready) {
            break;  // deadline expired with the batch underfull
          }
          while (n < max && count_ > 0) {
            out[n++] = dequeue_locked();
          }
          if (closed_ && count_ == 0) {
            break;
          }
        }
      }
    }
    not_full_.notify_all();
    return n;
  }

  /// Closes the queue: every current and future push fails, every blocked
  /// producer and consumer wakes, and pops drain the remaining items.
  /// Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// High-water mark of the queued depth -- how close the admission queue
  /// came to exercising backpressure (diagnostic for the serve stats).
  std::size_t max_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_depth_;
  }

 private:
  static std::size_t check_capacity(std::size_t capacity) {
    TSNN_CHECK_MSG(capacity > 0, "RequestQueue capacity must be > 0");
    return capacity;
  }

  void enqueue_locked(T item) {
    ring_[(head_ + count_) % ring_.size()] = std::move(item);
    ++count_;
    if (count_ > max_depth_) {
      max_depth_ = count_;
    }
  }

  T dequeue_locked() {
    T item = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --count_;
    return item;
  }

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> ring_;      ///< fixed ring storage, allocated once
  std::size_t head_ = 0;     ///< index of the oldest item
  std::size_t count_ = 0;    ///< items queued
  std::size_t max_depth_ = 0;
  bool closed_ = false;
};

}  // namespace tsnn
