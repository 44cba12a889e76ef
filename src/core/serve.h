// InferenceServer: the admission-queued micro-batching execution service.
//
// The parallel execution core behind every evaluation path. Callers submit
// snn::ClassifyRequests into a bounded MPMC admission queue
// (common/request_queue.h -- the backpressure boundary); each of the
// server's own worker threads runs a pull loop that pops micro-batches of
// up to `max_batch` requests (optionally holding an underfull batch open
// for `batch_deadline` -- the batching-latency trade), executes each
// request on its thread-local warm SimWorkspace via
// snn::execute_request(), and hands the completion to the request's
// CompletionSink on the worker thread. There is no barrier between
// batches: workers pull continuously, so a straggler in one batch never
// idles the other workers (the fftools pipeline shape, not a
// bulk-synchronous one).
//
// Determinism: a request's result is a pure function of the request itself
// (snn::ClassifyRequest derives its rng from (seed, stream)), so micro-
// batch boundaries, queue depth, arrival jitter, worker count, and
// completion order NEVER influence any result -- a replayed request trace
// is bit-reproducible under every serving configuration
// (tests/test_serve.cpp replays one trace at batch 1, 4 and 16, threads 1,
// 2 and 8, and deadline 0 or 2 ms).
//
// Clients:
//   - core::run_grid compiles its (cell, image) grid into a request
//     stream and feeds it through a per-call InferenceServer (the offline
//     batch client);
//   - bench/tsnn_serve wraps a long-lived InferenceServer in a stdin/
//     stdout line protocol (the online client; bench/serve_loadgen drives
//     it and reports tail latency).
// snn::evaluate is the serial reference loop over the identical
// snn::execute_request body; it runs on the calling thread and never
// reaches the server.
//
// Workers: the server starts `num_threads` threads in its constructor,
// after every buffer it needs (the admission ring and each worker's
// micro-batch buffer) is allocated, and joins them in shutdown(). A
// configuration it cannot hold throws from the constructor; a thread start
// that throws joins the workers already running before the exception
// leaves the constructor.
//
// Shutdown is a protocol, not a race: shutdown() -- also the destructor --
// closes admission, lets the pull loops execute every admitted request,
// and joins the workers, so every admitted request's sink is called
// exactly once; a request rejected by submit() (false) was NOT admitted
// and its sink will never be called. Shutting a server down from one of
// its own workers (e.g. from a sink) would join the calling thread: it is
// misuse and aborts with a diagnostic instead of deadlocking.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/request_queue.h"
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
  /// Worker threads the server starts and joins; 0 = hardware concurrency.
  std::size_t num_threads = 1;
};

/// Maps a requested worker count to an actual one: 0 -> hardware
/// concurrency (at least 1), otherwise the request itself.
std::size_t resolve_threads(std::size_t requested);

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
  /// safe (invoked concurrently from worker threads), must not shut down
  /// the executing server, and must outlive every request that names
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

  /// Starts serving immediately: allocates the admission queue and every
  /// worker's micro-batch buffer, then starts the workers' pull loops.
  /// Throws (starting no thread, or joining those already started) when
  /// the configuration cannot be held, e.g. a `max_batch` whose buffers
  /// cannot be allocated.
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
  /// and joins the workers. Idempotent. Fatal when called from one of this
  /// server's own workers.
  void shutdown();

  Stats stats() const;

 private:
  void serve_loop(std::vector<Request>& batch);

  ServeOptions opts_;
  std::optional<RequestQueue<Request>> queue_;
  std::vector<std::vector<Request>> batches_;  ///< one per worker

  mutable std::mutex mutex_;  ///< guards stats_
  Stats stats_;

  std::mutex shutdown_mutex_;  ///< guards workers_, serializes the join
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace tsnn::core
