// Tests for the common/thread_pool worker pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"

namespace tsnn {
namespace {

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(8), 8u);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);  // hardware concurrency
}

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder) {
  // The queue is FIFO; with one worker execution order == submission order.
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  pool.wait();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&counter] { ++counter; });
  pool.submit([&counter] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, WaitRethrowsFirstException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The error is consumed: the pool is usable again afterwards.
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ExceptionDoesNotStallRemainingTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&counter, i] {
      if (i == 3) {
        throw std::runtime_error("task 3 failed");
      }
      ++counter;
    });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  EXPECT_EQ(counter.load(), 19);  // every non-throwing task still ran
}

TEST(ThreadPool, ParallelForCoversAllIndicesOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 7) {
                                     throw std::invalid_argument("index 7");
                                   }
                                 }),
               std::invalid_argument);
}

TEST(ThreadPool, ParallelForZeroIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForSingleWorkerRunsInIndexOrder) {
  // The broadcast hands indices out from one atomic counter; with a single
  // worker that degenerates to exactly 0..n-1.
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  const std::function<void(std::size_t)> fn = [&order](std::size_t i) {
    order.push_back(i);
  };
  pool.parallel_for(64, fn);
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ThreadPool, ParallelForIsReusableBackToBack) {
  // Consecutive broadcasts over one pool -- snn::evaluate's steady state.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  const std::function<void(std::size_t)> fn = [&counter](std::size_t) {
    ++counter;
  };
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(37, fn);
  }
  EXPECT_EQ(counter.load(), 370);
}

TEST(ThreadPool, ParallelForRunsEveryIndexDespiteException) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  const std::function<void(std::size_t)> fn = [&counter](std::size_t i) {
    if (i == 5) {
      throw std::runtime_error("index 5");
    }
    ++counter;
  };
  EXPECT_THROW(pool.parallel_for(40, fn), std::runtime_error);
  EXPECT_EQ(counter.load(), 39);
}

// ---------------------------------------------------------------------------
// Misuse guards: the contract violations that would otherwise deadlock
// (nesting a broadcast inside a worker of the same pool, starting a
// broadcast while another thread's broadcast still borrows its callable)
// abort with a diagnostic instead of hanging. Death tests fork, so the
// "threadsafe" style is required with live pool threads.

void nested_parallel_for_from_worker() {
  ThreadPool pool(2);
  const std::function<void(std::size_t)> inner = [](std::size_t) {};
  const std::function<void(std::size_t)> outer = [&](std::size_t) {
    pool.parallel_for(4, inner);
  };
  pool.parallel_for(4, outer);
}

void wait_from_worker() {
  ThreadPool pool(2);
  pool.submit([&pool] { pool.wait(); });
  pool.wait();
}

void concurrent_parallel_for() {
  ThreadPool pool(2);
  std::atomic<bool> started{false};
  const std::function<void(std::size_t)> hold = [&](std::size_t) {
    started.store(true);
    std::this_thread::sleep_for(std::chrono::seconds(30));
    // Reached only if the guard below did not fire, leaving the main thread
    // queued behind this broadcast forever: a clean exit turns that hang
    // into a failed death test.
    std::_Exit(0);
  };
  std::thread a([&] { pool.parallel_for(1, hold); });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::function<void(std::size_t)> second = [](std::size_t) {};
  pool.parallel_for(1, second);  // must abort, not block or deadlock
  a.join();
}

TEST(ThreadPoolDeath, NestedParallelForFromWorkerAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(nested_parallel_for_from_worker(), "nested inside a worker");
}

TEST(ThreadPoolDeath, WaitFromWorkerAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(wait_from_worker(), "called from inside a worker");
}

TEST(ThreadPoolDeath, ConcurrentBroadcastAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(concurrent_parallel_for(),
               "another broadcast is still in flight");
}

TEST(ThreadPool, CrossPoolNestingRemainsLegal) {
  // Only same-pool nesting is fatal: a worker of pool A may drive pool B.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> counter{0};
  const std::function<void(std::size_t)> leaf = [&counter](std::size_t) {
    ++counter;
  };
  outer.submit([&inner, &leaf] { inner.parallel_for(8, leaf); });
  outer.wait();
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, RejectsNullTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), InvalidArgument);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++counter;
      });
    }
    // No wait(): destruction must still run everything before joining.
  }
  EXPECT_EQ(counter.load(), 32);
}

void destroy_pool_from_own_worker() {
  auto* pool = new ThreadPool(2);
  pool->submit([pool] { delete pool; });
  // The worker aborts with a diagnostic before this sleep runs out.
  std::this_thread::sleep_for(std::chrono::seconds(30));
}

TEST(ThreadPoolDeath, DestroyFromOwnWorkerAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(destroy_pool_from_own_worker(),
               "destroyed from inside one of its own workers");
}

}  // namespace
}  // namespace tsnn
