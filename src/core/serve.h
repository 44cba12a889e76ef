// InferenceServer: the admission-queued micro-batching execution service.
//
// The request-level execution core behind every evaluation path. Callers
// submit snn::ClassifyRequests into a bounded MPMC admission queue
// (common/request_queue.h -- the backpressure boundary); each worker of
// the persistent ThreadPool runs a pull loop that pops micro-batches of up
// to `max_batch` requests (optionally holding an underfull batch open for
// `batch_deadline` -- the batching-latency trade), executes each request
// on its thread-local warm SimWorkspace via snn::execute_request(), and
// hands the completion to the request's CompletionSink on the worker
// thread. There is no barrier between batches: workers pull continuously,
// so a straggler in one batch never idles the rest of the pool (the
// fftools pipeline shape, not a bulk-synchronous one).
//
// Determinism: a request's result is a pure function of the request itself
// (snn::ClassifyRequest derives its rng from (seed, stream)), so micro-
// batch boundaries, queue depth, arrival jitter, pool size, and
// completion order NEVER influence any result -- a replayed request trace
// is bit-reproducible under every serving configuration
// (tests/test_serve.cpp replays one trace at batch 1, 4 and 16, threads 1,
// 2 and 8, and deadline 0 or 2 ms).
//
// Clients:
//   - core::run_grid compiles its (cell, image) grid into a request
//     stream and feeds it through a per-call InferenceServer on the
//     caller's persistent pool (the offline batch client);
//   - bench/tsnn_serve wraps a long-lived InferenceServer in a stdin/
//     stdout line protocol (the online client; bench/serve_loadgen drives
//     it and reports tail latency);
//   - snn::evaluate stays a direct pool broadcast (it lives below core and
//     carries the zero-allocation steady-state contract) but runs the
//     identical snn::execute_request body.
//
// Pool ownership: the server either owns its pool or borrows one. Either
// way it occupies EVERY worker with a pull loop for its whole lifetime --
// do not run broadcasts (parallel_for) or other submits on a borrowed
// pool while the server is live, and do not call back into the executing
// pool from a sink.
//
// Shutdown is a protocol, not a race (satellite of the ThreadPool
// destruction contract): shutdown() -- also the destructor -- closes
// admission, lets the pull loops execute every admitted request, and
// joins/releases the pool, so every admitted request's sink is called
// exactly once; a request rejected by submit() (false) was NOT admitted
// and its sink will never be called.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>

#include "common/request_queue.h"
#include "common/thread_pool.h"
#include "snn/simulator.h"

namespace tsnn::core {

/// Admission, batching, and execution knobs of an InferenceServer. The
/// results of the requests never depend on any of them (see the
/// determinism contract in the file comment) -- only latency and
/// throughput do.
struct ServeOptions {
  /// Bounded admission queue depth; 0 = auto (4 micro-batches per worker,
  /// at least 64). The bound is the backpressure mechanism: submit()
  /// blocks while the service is saturated.
  std::size_t queue_capacity = 0;
  /// Micro-batch size cap per worker pull (>= 1).
  std::size_t max_batch = 8;
  /// How long a worker holds an underfull micro-batch open waiting for
  /// more arrivals (0 = dispatch whatever is queued immediately). Trades
  /// per-request latency for fuller batches under light load.
  std::chrono::microseconds batch_deadline{0};
  /// Borrowed executor; null = the server owns a pool of `num_threads`.
  ThreadPool* pool = nullptr;
  /// Owned-pool size when `pool` is null; 0 = hardware concurrency.
  std::size_t num_threads = 1;
};

class InferenceServer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Completion record, handed to the request's sink on the worker thread
  /// that executed it. `result` points into the worker's reused storage
  /// and is valid ONLY for the duration of the on_complete call -- copy
  /// what you keep. Exactly one of {result, error} describes the outcome.
  struct Response {
    std::uint64_t id = 0;
    const snn::SimResult* result = nullptr;  ///< null on error
    std::exception_ptr error;  ///< set when execution threw
    Clock::time_point submit_time;  ///< admission into the queue
    Clock::time_point start_time;   ///< popped into a micro-batch
    Clock::time_point done_time;    ///< execution finished
    std::size_t batch_size = 0;     ///< size of the micro-batch it ran in
  };

  /// Where a request's completion goes. Implementations must be thread-
  /// safe (invoked concurrently from worker threads), must not call back
  /// into the executing pool, and must outlive every request that names
  /// them. Sink-based completion is what keeps the serving hot path
  /// allocation-free: the offline grid client completes thousands of
  /// requests per second into caller-owned slot arrays without a single
  /// heap allocation.
  class CompletionSink {
   public:
    virtual void on_complete(const Response& response) = 0;

   protected:
    ~CompletionSink() = default;  ///< sinks are not owned via this interface
  };

  /// One admission unit: the work, the caller's id for it, and where the
  /// completion goes. Copied into the (preallocated) admission ring, so
  /// submitting allocates nothing.
  struct Request {
    std::uint64_t id = 0;
    snn::ClassifyRequest work;
    CompletionSink* sink = nullptr;  ///< required
    /// Stamped by submit() at admission; callers leave it default-constructed.
    Clock::time_point submit_time{};
  };

  /// Serving counters (monotonic over the server's lifetime).
  struct Stats {
    std::uint64_t submitted = 0;  ///< admitted into the queue
    std::uint64_t completed = 0;  ///< executed (ok or error)
    std::uint64_t errors = 0;     ///< completed with an execution error
    std::uint64_t batches = 0;    ///< micro-batches dispatched
    std::size_t max_batch = 0;    ///< largest micro-batch observed
    std::size_t max_queue_depth = 0;  ///< admission-queue high-water mark

    /// Mean micro-batch size (0 when no batch ran yet).
    double mean_batch() const {
      return batches == 0 ? 0.0
                          : static_cast<double>(completed) /
                                static_cast<double>(batches);
    }
  };

  /// Starts serving immediately: spawns/borrows the pool and occupies
  /// every worker with a pull loop.
  explicit InferenceServer(const ServeOptions& options = {});

  /// Graceful shutdown: shutdown().
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Admission-queues `req`, blocking while the queue is full
  /// (backpressure). False once shutdown began: the request was NOT
  /// admitted and its sink will never be called.
  bool submit(const Request& req);

  /// Stops the service: closes admission, executes every admitted request,
  /// and joins/releases the pool. Idempotent.
  void shutdown();

  Stats stats() const;

 private:
  void serve_loop();

  ServeOptions opts_;
  std::optional<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  ///< null once shutdown() released it
  std::optional<RequestQueue<Request>> queue_;

  mutable std::mutex mutex_;  ///< guards stats_
  Stats stats_;

  std::mutex shutdown_mutex_;  ///< serializes the pool join in shutdown()
};

}  // namespace tsnn::core
