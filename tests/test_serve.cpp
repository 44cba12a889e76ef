// Tests for core::InferenceServer -- the admission-queued micro-batching
// execution service. The headline pin: a replayed request trace is
// bit-identical per request across every (max_batch, threads, deadline)
// serving configuration, because a request's result is a pure function of
// the request itself (snn::ClassifyRequest's (seed, stream) identity).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "coding/registry.h"
#include "common/error.h"
#include "core/serve.h"
#include "core/ttas.h"
#include "noise/noise.h"
#include "snn/simulator.h"
#include "snn/topology.h"

namespace tsnn::core {
namespace {

snn::SnnModel test_model() {
  snn::SnnModel model(Shape{1, 8, 8});
  Tensor conv_w{Shape{4, 1, 3, 3}};
  for (std::size_t i = 0; i < conv_w.numel(); ++i) {
    conv_w[i] = 0.05f * static_cast<float>((i * 17) % 13) - 0.25f;
  }
  model.add_stage("conv",
                  std::make_unique<snn::ConvTopology>(conv_w, 8, 8,
                                                      /*stride=*/1,
                                                      /*pad=*/1));
  model.add_stage("pool", std::make_unique<snn::PoolTopology>(4, 8, 8, 2));
  Tensor dense_w{Shape{5, 64}};
  for (std::size_t i = 0; i < dense_w.numel(); ++i) {
    dense_w[i] = 0.03f * static_cast<float>((i * 7) % 17) - 0.2f;
  }
  model.add_stage("readout", std::make_unique<snn::DenseTopology>(dense_w));
  return model;
}

std::vector<Tensor> test_images(std::size_t n) {
  std::vector<Tensor> images;
  for (std::size_t k = 0; k < n; ++k) {
    Tensor img{Shape{1, 8, 8}};
    for (std::size_t i = 0; i < img.numel(); ++i) {
      img[i] = static_cast<float>((i * 31 + k * 7) % 64) / 64.0f;
    }
    images.push_back(std::move(img));
  }
  return images;
}

/// The trace both the replay test and the direct-execution test use: a mix
/// of codings, images, noise, and per-request seeds.
struct Trace {
  snn::SnnModel model = test_model();
  std::vector<Tensor> images = test_images(6);
  snn::CodingSchemePtr rate = coding::make_scheme(snn::Coding::kRate);
  snn::CodingSchemePtr ttas = make_ttas(5);
  snn::NoiseModelPtr noise = noise::make_deletion_jitter(0.3, 1.0);

  std::vector<snn::ClassifyRequest> requests;

  explicit Trace(std::size_t n = 24) {
    for (std::size_t i = 0; i < n; ++i) {
      snn::ClassifyRequest req;
      req.sim.model = &model;
      req.sim.scheme = i % 2 == 0 ? rate.get() : ttas.get();
      req.sim.noise = i % 3 == 0 ? nullptr : noise.get();
      req.image = &images[i % images.size()];
      req.seed = 0x5EED + i * 13;
      req.stream = i % 5;
      requests.push_back(req);
    }
  }
};

/// Copies each completion into the slot its id names. Each slot has one
/// writer; read the slots only after shutdown(), which joins the workers.
class SlotSink : public InferenceServer::CompletionSink {
 public:
  explicit SlotSink(std::size_t n) : results(n), completions(n, 0) {}

  void on_complete(const InferenceServer::Response& resp) override {
    ++completions[resp.id];
    if (resp.result != nullptr) {
      results[resp.id] = *resp.result;
    }
  }

  std::vector<snn::SimResult> results;
  std::vector<int> completions;  ///< sink calls per id
};

/// Submits request i of the trace under id i.
void submit_trace(InferenceServer& server, const Trace& trace,
                  InferenceServer::CompletionSink* sink) {
  InferenceServer::Request req;
  req.sink = sink;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    req.id = i;
    req.work = trace.requests[i];
    ASSERT_TRUE(server.submit(req));
  }
}

/// Runs the whole trace through a server with the given configuration and
/// returns the per-request results, indexed by request id.
std::vector<snn::SimResult> run_trace(const Trace& trace,
                                      const ServeOptions& options) {
  SlotSink sink(trace.requests.size());
  InferenceServer server(options);
  submit_trace(server, trace, &sink);
  server.shutdown();
  EXPECT_EQ(server.stats().errors, 0u);
  for (std::size_t i = 0; i < sink.completions.size(); ++i) {
    EXPECT_EQ(sink.completions[i], 1) << "request " << i;
  }
  return std::move(sink.results);
}

void expect_bit_identical(const snn::SimResult& a, const snn::SimResult& b,
                          std::size_t id) {
  EXPECT_EQ(a.predicted_class, b.predicted_class) << "request " << id;
  EXPECT_EQ(a.total_spikes, b.total_spikes) << "request " << id;
  EXPECT_EQ(a.decision_timestep, b.decision_timestep) << "request " << id;
  ASSERT_EQ(a.logits.numel(), b.logits.numel()) << "request " << id;
  // Bitwise, not approximate: the serving configuration must not perturb a
  // single mantissa bit.
  EXPECT_EQ(std::memcmp(a.logits.data(), b.logits.data(),
                        a.logits.numel() * sizeof(float)),
            0)
      << "request " << id;
}

TEST(InferenceServer, MatchesDirectExecution) {
  // The server is a scheduler, not a math path: results must equal running
  // execute_request() inline on the calling thread.
  const Trace trace(12);
  ServeOptions options;
  options.num_threads = 2;
  options.max_batch = 4;
  const std::vector<snn::SimResult> served = run_trace(trace, options);

  snn::SimWorkspace ws;
  snn::SimResult direct;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    snn::execute_request(trace.requests[i], ws, direct);
    expect_bit_identical(direct, served[i], i);
  }
}

TEST(InferenceServer, TraceReplayBitIdenticalAcrossConfigurations) {
  // The acceptance pin: batch 1, 4 and 16, threads 1, 2 and 8, and
  // deadline 0 or 2 ms all reproduce the same per-request bits, regardless
  // of how requests interleave into micro-batches.
  const Trace trace(24);
  ServeOptions baseline;
  baseline.num_threads = 1;
  baseline.max_batch = 1;
  const std::vector<snn::SimResult> reference = run_trace(trace, baseline);

  struct Config {
    std::size_t threads;
    std::size_t batch;
    long long deadline_us;
  };
  const Config configs[] = {
      {1, 4, 0}, {8, 1, 0}, {8, 4, 0}, {8, 16, 2000}, {2, 16, 0},
  };
  for (const Config& c : configs) {
    ServeOptions options;
    options.num_threads = c.threads;
    options.max_batch = c.batch;
    options.batch_deadline = std::chrono::microseconds(c.deadline_us);
    const std::vector<snn::SimResult> replay = run_trace(trace, options);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_bit_identical(reference[i], replay[i], i);
    }
  }
}

/// Sink that blocks inside on_complete until released -- wedges a worker
/// so tests can pin queued-but-unstarted states deterministically.
class GateSink : public InferenceServer::CompletionSink {
 public:
  void on_complete(const InferenceServer::Response& resp) override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++entered_;
    if (resp.result != nullptr) {
      ++executed_;
    }
    entered_cv_.notify_all();
    release_cv_.wait(lock, [&] { return released_; });
  }

  void await_entered(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    release_cv_.notify_all();
  }

  std::size_t executed() {
    std::lock_guard<std::mutex> lock(mutex_);
    return executed_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  std::size_t entered_ = 0;
  std::size_t executed_ = 0;
  bool released_ = false;
};

TEST(InferenceServer, SubmitBlocksWhileTheQueueIsFull) {
  // Blocking admission is the backpressure run_grid's producer relies on:
  // with the only worker wedged and the queue full, submit() must wait for
  // a slot rather than refuse or overrun the ring.
  const Trace trace(1);
  ServeOptions options;
  options.num_threads = 1;
  options.max_batch = 1;
  options.queue_capacity = 1;
  GateSink gate;
  InferenceServer server(options);

  InferenceServer::Request req;
  req.work = trace.requests[0];
  req.sink = &gate;
  // Request 0 wedges the single worker inside its sink...
  req.id = 0;
  ASSERT_TRUE(server.submit(req));
  gate.await_entered(1);
  // ...and request 1 fills the capacity-1 queue.
  req.id = 1;
  ASSERT_TRUE(server.submit(req));

  InferenceServer::Request third = req;
  third.id = 2;
  std::atomic<bool> returned{false};
  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    admitted = server.submit(third);
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());  // still blocked on the full queue
  gate.release();
  producer.join();
  EXPECT_TRUE(admitted.load());
  server.shutdown();
  EXPECT_EQ(gate.executed(), 3u);
  const InferenceServer::Stats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST(InferenceServer, ShutdownExecuteDrainsQueued) {
  const Trace trace(1);
  ServeOptions options;
  options.num_threads = 1;
  options.max_batch = 1;
  InferenceServer server(options);
  GateSink gate;

  InferenceServer::Request req;
  req.work = trace.requests[0];
  req.sink = &gate;
  for (std::uint64_t i = 0; i < 8; ++i) {
    req.id = i;
    ASSERT_TRUE(server.submit(req));
  }
  gate.await_entered(1);  // worker wedged on request 0; 7 queued
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.release();
  });
  server.shutdown();
  releaser.join();
  EXPECT_EQ(gate.executed(), 8u);  // graceful: nothing dropped
  const InferenceServer::Stats stats = server.stats();
  EXPECT_EQ(stats.completed, 8u);
}

TEST(InferenceServer, SubmitAfterShutdownIsRejected) {
  const Trace trace(1);
  ServeOptions options;
  options.num_threads = 1;
  InferenceServer server(options);
  server.shutdown();

  GateSink gate;
  InferenceServer::Request req;
  req.work = trace.requests[0];
  req.sink = &gate;
  EXPECT_FALSE(server.submit(req));
  EXPECT_EQ(server.stats().submitted, 0u);
}

TEST(InferenceServer, ExecutionErrorReachesTheSink) {
  // Task errors travel to the sink as an exception_ptr; they never escape
  // the worker.
  struct ErrorSink : InferenceServer::CompletionSink {
    std::uint64_t id = 0;
    bool had_result = true;
    std::exception_ptr error;
    void on_complete(const InferenceServer::Response& resp) override {
      id = resp.id;
      had_result = resp.result != nullptr;
      error = resp.error;
    }
  };
  const Trace trace(1);
  ServeOptions options;
  options.num_threads = 1;
  ErrorSink sink;
  InferenceServer server(options);
  InferenceServer::Request req;
  req.id = 7;
  req.work = trace.requests[0];
  req.work.image = nullptr;  // execute_request refuses imageless requests
  req.sink = &sink;
  ASSERT_TRUE(server.submit(req));
  server.shutdown();  // the barrier that orders the reads below
  EXPECT_EQ(sink.id, 7u);
  EXPECT_FALSE(sink.had_result);
  ASSERT_TRUE(sink.error);
  EXPECT_THROW(std::rethrow_exception(sink.error), Error);
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(InferenceServer, StatsCountBatches) {
  const Trace trace(16);
  ServeOptions options;
  options.num_threads = 1;
  options.max_batch = 4;
  // A wedged first request lets the remaining 15 queue up, so later pulls
  // actually form multi-request batches.
  GateSink gate;
  InferenceServer server(options);
  InferenceServer::Request req;
  req.sink = &gate;
  for (std::uint64_t i = 0; i < 16; ++i) {
    req.id = i;
    req.work = trace.requests[i];
    ASSERT_TRUE(server.submit(req));
  }
  gate.await_entered(1);
  gate.release();
  server.shutdown();
  const InferenceServer::Stats stats = server.stats();
  EXPECT_EQ(stats.submitted, 16u);
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_LE(stats.max_batch, 4u);
  EXPECT_GT(stats.max_batch, 1u);  // at least one true micro-batch formed
  EXPECT_GT(stats.max_queue_depth, 1u);
  EXPECT_GT(stats.mean_batch(), 1.0);
}

TEST(InferenceServer, UnholdableMaxBatchThrowsFromTheConstructor) {
  // A micro-batch cap the server cannot hold must fail construction --
  // where the caller sees it -- not inside a worker, which would leave a
  // server that admits requests and never answers them. 2^62 overflows the
  // auto queue capacity (workers x max_batch x 4) and, with an explicit
  // capacity, exceeds vector::max_size, so nothing is allocated either way.
  ServeOptions options;
  options.max_batch = std::size_t{1} << 62;
  EXPECT_THROW(InferenceServer{options}, InvalidArgument);
  options.queue_capacity = 64;
  options.num_threads = 2;
  EXPECT_THROW(InferenceServer{options}, std::length_error);
}

/// Sink that shuts its own server down from the worker running it.
class ShutdownSink : public InferenceServer::CompletionSink {
 public:
  void on_complete(const InferenceServer::Response&) override {
    server->shutdown();
  }
  InferenceServer* server = nullptr;
};

void shutdown_from_own_worker() {
  const Trace trace(1);
  ShutdownSink sink;
  ServeOptions options;
  options.num_threads = 2;
  InferenceServer server(options);
  sink.server = &server;
  InferenceServer::Request req;
  req.work = trace.requests[0];
  req.sink = &sink;
  server.submit(req);
  server.shutdown();  // joins the worker, which aborts inside the sink
}

TEST(InferenceServerDeath, ShutdownFromOwnWorkerAborts) {
  // shutdown() joins every worker; from a worker it would join itself.
  // Death tests fork, so the "threadsafe" style is required with live
  // worker threads.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(shutdown_from_own_worker(),
               "shutdown from one of its own workers");
}

}  // namespace
}  // namespace tsnn::core
