#include "core/serve.h"

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "snn/workspace.h"

namespace tsnn::core {

InferenceServer::InferenceServer(const ServeOptions& options)
    : opts_(options) {
  TSNN_CHECK_MSG(opts_.max_batch > 0, "serve max_batch must be > 0");
  if (opts_.pool == nullptr) {
    owned_pool_.emplace(ThreadPool::resolve_threads(opts_.num_threads));
    pool_ = &*owned_pool_;
  } else {
    pool_ = opts_.pool;
  }
  if (opts_.queue_capacity == 0) {
    // Auto: four micro-batches of headroom per worker, so the queue can
    // keep every worker fed across a pull without being effectively
    // unbounded (the bound IS the backpressure).
    opts_.queue_capacity =
        std::max<std::size_t>(64, pool_->size() * opts_.max_batch * 4);
  }
  queue_.emplace(opts_.queue_capacity);
  // Occupy every worker with a pull loop for the server's lifetime; the
  // loops exit when the admission queue is closed and drained.
  for (std::size_t i = 0; i < pool_->size(); ++i) {
    pool_->submit([this] { serve_loop(); });
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
  queue_->close();
  // Serialize the join itself so concurrent shutdowns are safe.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (pool_ == nullptr) {
    return;
  }
  if (owned_pool_.has_value()) {
    owned_pool_.reset();  // graceful drain: ~ThreadPool finishes the loops
  } else {
    pool_->wait();  // borrowed: wait for our pull-loop tasks to retire
  }
  pool_ = nullptr;
}

InferenceServer::Stats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.max_queue_depth = queue_->max_depth();
  return out;
}

void InferenceServer::serve_loop() {
  // Per-loop micro-batch buffer (allocated once per worker, reused for
  // every pull); the workspace and result are the worker thread's warm
  // thread-locals, shared with every other execution client that runs on
  // this pool.
  std::vector<Request> batch(opts_.max_batch);
  for (;;) {
    const std::size_t b =
        queue_->pop_batch(batch.data(), opts_.max_batch, opts_.batch_deadline);
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
