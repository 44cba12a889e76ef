#include "core/serve.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/error.h"
#include "common/logging.h"
#include "snn/workspace.h"

namespace tsnn::core {

namespace {

/// The server whose pull loop runs on this thread (null on other threads),
/// so shutdown() can tell a call from one of its own workers apart.
thread_local const InferenceServer* tls_worker_server = nullptr;

}  // namespace

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

InferenceServer::InferenceServer(const ServeOptions& options)
    : opts_(options) {
  TSNN_CHECK_MSG(opts_.max_batch > 0, "serve max_batch must be > 0");
  const std::size_t workers = resolve_threads(opts_.num_threads);
  if (opts_.queue_capacity == 0) {
    // Auto: four micro-batches of headroom per worker, so the queue can
    // keep every worker fed across a pull without being effectively
    // unbounded (the bound IS the backpressure).
    constexpr std::size_t kHeadroom = 4;
    const std::size_t max_batch_limit =
        std::numeric_limits<std::size_t>::max() / kHeadroom / workers;
    TSNN_CHECK_MSG(opts_.max_batch <= max_batch_limit,
                   "serve queue capacity " << workers << " workers x max_batch "
                       << opts_.max_batch << " x " << kHeadroom
                       << " overflows");
    opts_.queue_capacity =
        std::max<std::size_t>(64, workers * opts_.max_batch * kHeadroom);
  }
  queue_.emplace(opts_.queue_capacity);
  // Every buffer exists before the first thread starts: a configuration
  // the server cannot hold throws here, to the caller, not on a worker.
  batches_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    batches_.emplace_back(opts_.max_batch);
  }
  workers_.reserve(workers);
  try {
    for (std::vector<Request>& batch : batches_) {
      workers_.emplace_back([this, &batch] { serve_loop(batch); });
    }
  } catch (...) {
    shutdown();  // joins the workers already running
    throw;
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

bool InferenceServer::submit(const Request& req) {
  TSNN_CHECK_MSG(req.sink != nullptr, "serve request needs a completion sink");
  {
    // Counted before the push: a worker may pop and complete the request
    // before push() returns, and a stats() snapshot must never show more
    // requests completed than submitted.
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
  }
  Request stamped = req;
  stamped.submit_time = Clock::now();
  if (!queue_->push(std::move(stamped))) {
    std::lock_guard<std::mutex> lock(mutex_);
    --stats_.submitted;  // the queue is closed; the request was not admitted
    return false;
  }
  return true;
}

void InferenceServer::shutdown() {
  if (tls_worker_server == this) {
    std::fprintf(stderr,
                 "InferenceServer misuse: shutdown from one of its own "
                 "workers -- it joins every worker, including the calling "
                 "thread\n");
    std::fflush(stderr);
    std::abort();
  }
  queue_->close();
  // Serialize the join itself so concurrent shutdowns are safe.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  for (std::thread& worker : workers_) {
    worker.join();  // each pull loop exits once the queue is drained
  }
  workers_.clear();
}

InferenceServer::Stats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.max_queue_depth = queue_->max_depth();
  return out;
}

void InferenceServer::serve_loop(std::vector<Request>& batch) {
  // `batch` is this worker's micro-batch buffer, allocated by the
  // constructor and reused for every pull; the workspace and result are
  // the worker thread's warm thread-locals.
  tls_worker_server = this;
  for (;;) {
    const std::size_t b =
        queue_->pop_batch(batch.data(), batch.size(), opts_.batch_deadline);
    if (b == 0) {
      return;  // admission closed and drained: the loop's exit signal
    }
    const Clock::time_point start = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.batches;
      stats_.max_batch = std::max(stats_.max_batch, b);
    }
    thread_local snn::SimWorkspace ws;
    thread_local snn::SimResult result;
    for (std::size_t i = 0; i < b; ++i) {
      Request& req = batch[i];
      Response resp;
      resp.id = req.id;
      resp.submit_time = req.submit_time;
      resp.start_time = start;
      resp.batch_size = b;
      bool failed = false;
      try {
        snn::execute_request(req.work, ws, result);
        resp.result = &result;
      } catch (...) {
        resp.error = std::current_exception();
        failed = true;
      }
      resp.done_time = Clock::now();
      try {
        req.sink->on_complete(resp);
      } catch (...) {
        // Sinks must not throw (see CompletionSink); swallow defensively
        // so a throwing sink cannot end this pull loop and strand the
        // requests still queued behind it.
        TSNN_LOG(kWarn) << "serve completion sink threw; ignored";
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.completed;
        if (failed) {
          ++stats_.errors;
        }
      }
    }
  }
}

}  // namespace tsnn::core
