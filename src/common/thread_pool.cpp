#include "common/thread_pool.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/error.h"

namespace tsnn {

namespace {

/// The pool whose worker_loop owns this thread (null on non-pool threads).
/// Lets the misuse guards tell "called from inside a worker of the same
/// pool" apart from legal cross-pool calls.
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

void ThreadPool::fatal_misuse(const char* what) {
  std::fprintf(stderr, "ThreadPool misuse: %s\n", what);
  std::fflush(stderr);
  std::abort();
}

void ThreadPool::check_not_worker(const char* what) const {
  if (tls_worker_pool == this) {
    fatal_misuse(what);
  }
}

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = resolve_threads(num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  check_not_worker(
      "ThreadPool destroyed from inside one of its own workers -- the "
      "destructor joins every worker, including the calling thread");
  {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return pending_ == 0; });
    stop_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  TSNN_CHECK_MSG(task != nullptr, "cannot submit a null task");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TSNN_CHECK_MSG(!stop_, "submit on a stopped ThreadPool");
    queue_.push(std::move(task));
    ++pending_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait() {
  check_not_worker(
      "wait() called from inside a worker of the same pool -- the caller's "
      "own task counts as pending, so this can never return");
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return pending_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  TSNN_CHECK_MSG(fn != nullptr, "cannot broadcast a null callable");
  check_not_worker(
      "parallel_for nested inside a worker of the same pool -- the worker "
      "executing fn can never retire the broadcast it is part of");
  if (n == 0) {
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    TSNN_CHECK_MSG(!stop_, "parallel_for on a stopped ThreadPool");
    if (pf_fn_ != nullptr) {
      fatal_misuse(
          "parallel_for while another broadcast is still in flight -- the "
          "pool runs one broadcast at a time");
    }
    pf_fn_ = &fn;
    pf_n_ = n;
    pf_next_.store(0, std::memory_order_relaxed);
    ++pf_generation_;
    ++pending_;  // the broadcast counts as one logical task for wait()
  }
  task_ready_.notify_all();
  wait();
}

void ThreadPool::run_broadcast_items() {
  const std::function<void(std::size_t)>& fn = *pf_fn_;
  const std::size_t n = pf_n_;
  for (;;) {
    const std::size_t i = pf_next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) {
      return;
    }
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      }
    }
  }
}

void ThreadPool::worker_loop() {
  tls_worker_pool = this;
  std::uint64_t joined_generation = 0;  // last broadcast this worker served
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [&] {
        return stop_ || !queue_.empty() ||
               (pf_fn_ != nullptr && pf_generation_ != joined_generation);
      });
      if (pf_fn_ != nullptr && pf_generation_ != joined_generation) {
        joined_generation = pf_generation_;
        ++pf_workers_;
        lock.unlock();
        run_broadcast_items();
        lock.lock();
        if (--pf_workers_ == 0 &&
            pf_next_.load(std::memory_order_relaxed) >= pf_n_) {
          // Last participant out and the range is exhausted: retire the
          // broadcast so wait() unblocks and the next one may start.
          pf_fn_ = nullptr;
          --pending_;
          lock.unlock();
          all_done_.notify_all();
        }
        continue;
      }
      if (queue_.empty()) {
        return;  // stop_ set and no work left
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --pending_;
    }
    all_done_.notify_all();
  }
}

}  // namespace tsnn
