// Fixed-size worker pool for data-parallel evaluation.
//
// TSNN's batch evaluators fan independent per-image simulations out across a
// pool; determinism is preserved by giving every work item its own RNG
// stream (see common/rng.h, Rng::for_stream) so results never depend on the
// number of workers or on scheduling order.
//
// Tasks submitted via submit() are *started* in FIFO order (with one worker
// the pool degenerates to strict sequential execution). parallel_for(n, fn)
// runs fn(0..n-1) across the workers and blocks until every index finished.
// The first exception thrown by any task is captured and rethrown on the
// calling thread from wait()/parallel_for(); subsequent exceptions are
// swallowed.
//
// parallel_for is a *broadcast*, not n submit()s: the workers share one
// atomic index counter and pull indices until the range is exhausted, so a
// parallel_for performs no per-index heap allocation and no per-index mutex
// hop -- the steady-state requirement of snn::evaluate (snn/simulator.h),
// which runs one broadcast per batch over a persistent pool and pins zero
// allocations across them (tests/test_zero_alloc.cpp). Indices are handed
// out in increasing order; with one worker the execution order is exactly
// 0..n-1. parallel_for returns only after its broadcast has retired, so the
// callable it borrows by reference never outlives the call.
//
// Misuse is fatal, not undefined: the pool runs ONE broadcast at a time, and
// the contract violations that would otherwise deadlock or corrupt the
// borrowed-callable protocol abort the process with a diagnostic instead
// (tests/test_thread_pool.cpp pins them as death tests):
//   - parallel_for / wait called from inside a worker of the SAME pool
//     (nesting a broadcast inside fn would self-deadlock: the worker
//     executing fn can never retire the broadcast it is part of);
//   - parallel_for while another thread's broadcast on the same pool is
//     still in flight (the pool holds one borrowed callable);
//   - destroying the pool from inside one of its own workers (the
//     destructor joins every worker, including the caller).
// Calling into a *different* pool from a worker remains legal.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>
#include <condition_variable>

namespace tsnn {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Destruction-while-work-pending is well-defined: the destructor is a
  /// graceful drain. It blocks until every submitted task has finished,
  /// then joins the workers -- no queued work is ever dropped
  /// (core::InferenceServer::shutdown relies on this to complete every
  /// admitted request). Exceptions still pending at destruction are
  /// dropped -- call wait() to observe them. Destroying the pool from
  /// inside one of its own workers is misuse and aborts with a diagnostic
  /// (the destructor would join the calling thread); see the misuse
  /// contract above.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; tasks are dequeued in submission order.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task and any in-flight parallel_for
  /// broadcast has finished, then rethrows the first exception any of them
  /// threw (if any). Fatal if called from a worker of this pool.
  void wait();

  /// Runs fn(i) for i in [0, n) across the pool (allocation-free atomic
  /// index broadcast) and blocks until all are done -- and, like wait(),
  /// until every submitted task is; rethrows the first exception. Every
  /// index runs even if an earlier one threw. Fatal if called from a worker
  /// of this pool or while another broadcast is in flight (see the misuse
  /// contract above).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Maps a requested thread count to an actual one: 0 -> hardware
  /// concurrency (at least 1), otherwise the request itself.
  static std::size_t resolve_threads(std::size_t requested);

 private:
  void worker_loop();

  /// Aborts with a diagnostic when the calling thread is a worker of this
  /// pool (nested broadcast / wait would self-deadlock).
  void check_not_worker(const char* what) const;

  /// Prints "ThreadPool misuse: ..." to stderr and aborts.
  [[noreturn]] static void fatal_misuse(const char* what);

  /// Pulls indices from the active broadcast until exhausted; called by
  /// workers outside the pool lock.
  void run_broadcast_items();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_ready_;   ///< queue non-empty, broadcast, or stopping
  std::condition_variable all_done_;     ///< pending_ reached zero
  std::size_t pending_ = 0;              ///< queued + running tasks + active broadcast
  std::exception_ptr first_error_;
  bool stop_ = false;

  // Broadcast (parallel_for) state, guarded by mutex_ except pf_next_.
  const std::function<void(std::size_t)>* pf_fn_ = nullptr;  ///< borrowed
  std::size_t pf_n_ = 0;
  std::atomic<std::size_t> pf_next_{0};  ///< next index to hand out
  std::size_t pf_workers_ = 0;           ///< workers inside the broadcast
  std::uint64_t pf_generation_ = 0;      ///< workers join each broadcast once
};

}  // namespace tsnn
