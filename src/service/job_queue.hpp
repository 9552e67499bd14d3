// Bounded MPMC queue for the coloring service's job pipeline.
//
// A fixed-capacity queue guarded by one mutex and two condition variables.
// There are two ways in. push_bulk() is the admission path: it blocks while
// the queue is full (backpressure -- the service's submission rate is
// bounded by its drain rate, so an unbounded burst cannot exhaust memory).
// push_front() is the capacity-exempt retry path. Consumers block in pop()
// while the queue is empty. close() wakes everybody: subsequent pushes
// fail, pops keep returning queued items until the queue drains, then fail
// -- which is exactly the graceful-shutdown order (stop accepting, finish
// what was accepted, let workers exit).
//
// Priority lanes: the queue is templated on a lane count (default 1 = plain
// FIFO). Each item names a lane; pop() always serves the lowest-numbered
// non-empty lane, FIFO within a lane. The service maps Priority::kHigh/
// kNormal/kLow onto lanes 0/1/2, so a high-priority job overtakes every
// queued batch job without any re-sorting of the queue itself. The capacity
// bound is shared across lanes (total queued items), which is what makes
// admission control meaningful: a full queue is full for everybody, and the
// shedding policy -- not lane growth -- decides who gets in.
//
// All notifications happen with the mutex RELEASED: a woken thread must
// never find the lock still held by the notifier (the classic
// hurry-up-and-wait pattern), which matters most for push_bulk waking a
// whole consumer pool at once.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace dvc::service {

template <typename T, int Lanes = 1>
class BoundedQueue {
  static_assert(Lanes >= 1, "a queue needs at least one lane");

 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    DVC_REQUIRE(capacity >= 1, "queue capacity must be >= 1");
  }

  std::size_t capacity() const { return capacity_; }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

  /// Queued items per lane (index = lane), one consistent snapshot.
  std::array<std::size_t, Lanes> lane_sizes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::array<std::size_t, Lanes> sizes{};
    for (int l = 0; l < Lanes; ++l) sizes[static_cast<std::size_t>(l)] = lanes_[static_cast<std::size_t>(l)].size();
    return sizes;
  }

  /// Front-of-lane push that is EXEMPT from the capacity bound: the item is
  /// enqueued even when the queue is full, ahead of everything queued in its
  /// lane. Returns false iff the queue is closed (the item is not enqueued).
  ///
  /// This is the worker-side re-enqueue path for fault retries. A worker
  /// holding a transiently-failed job must not block for queue space -- with
  /// every worker re-enqueueing at once and every submitter blocked on a
  /// full queue, nobody would ever pop (deadlock). A retry does not admit
  /// new work (the job's capacity slot was already accounted at submission
  /// and its digest-class occupancy is restored by the caller), so letting
  /// it overshoot the bound by at most one in-flight job per worker is the
  /// safe direction.
  bool push_front(T item, int lane = 0) {
    check_lane(lane);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      lanes_[static_cast<std::size_t>(lane)].push_front(std::move(item));
      ++count_;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Moves every item into the queue, in order, blocking for space as
  /// needed (one lock acquisition per free-space wakeup, not per item).
  /// `lane_of(item)` names each item's lane. Returns the number of items
  /// enqueued -- fewer than items.size() only if the queue is closed
  /// mid-batch, in which case items[returned..] were not touched and stay
  /// with the caller.
  template <typename LaneFn>
  std::size_t push_bulk(std::vector<T>& items, LaneFn&& lane_of) {
    std::size_t pushed = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (pushed < items.size()) {
      not_full_.wait(lock, [&] { return count_ < capacity_ || closed_; });
      if (closed_) break;
      std::size_t batch = 0;
      while (pushed < items.size() && count_ < capacity_) {
        const int lane = lane_of(items[pushed]);
        check_lane(lane);
        lanes_[static_cast<std::size_t>(lane)].push_back(
            std::move(items[pushed++]));
        ++count_;
        ++batch;
      }
      // Notify with the mutex released, matching pop(): notifying under the
      // lock would wake consumers straight into a futile block on the mutex
      // the notifier still holds (hurry-up-and-wait).
      lock.unlock();
      if (batch == 1) {
        not_empty_.notify_one();
      } else {
        not_empty_.notify_all();
      }
      lock.lock();
    }
    return pushed;
  }

  /// Blocks while the queue is empty and open. Returns false iff the queue
  /// is closed AND drained; queued items keep flowing after close(). Serves
  /// the lowest-numbered non-empty lane, FIFO within it.
  bool pop(T& out) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [&] { return count_ > 0 || closed_; });
      if (count_ == 0) return false;  // closed and drained
      for (auto& lane : lanes_) {
        if (lane.empty()) continue;
        out = std::move(lane.front());
        lane.pop_front();
        --count_;
        break;
      }
    }
    not_full_.notify_one();
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  static void check_lane(int lane) {
    DVC_REQUIRE(lane >= 0 && lane < Lanes, "queue lane out of range");
  }

  mutable std::mutex mutex_;
  std::condition_variable not_full_, not_empty_;
  std::array<std::deque<T>, Lanes> lanes_;
  std::size_t capacity_;
  std::size_t count_ = 0;
  bool closed_ = false;
};

}  // namespace dvc::service
