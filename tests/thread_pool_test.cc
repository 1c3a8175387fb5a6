#include "topkpkg/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace topkpkg {
namespace {

TEST(ThreadPoolTest, SubmitReturnsValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, SubmittedExceptionReachesTheFuture) {
  ThreadPool pool(2);
  std::future<int> bad =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker that ran the throwing task is still alive and serving.
  EXPECT_EQ(pool.Submit([]() { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&ran]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
      });
    }
    // Destruction must wait for all 16, not drop the queue.
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, DrainsAndJoinsCleanlyUnderExceptions) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 20; ++i) {
      futures.push_back(pool.Submit([&ran, i]() {
        ++ran;
        if (i % 3 == 0) throw std::runtime_error("spurious");
      }));
    }
    // Intentionally collect none of the futures: destruction alone must
    // drain the queue and join without terminate() despite stored
    // exceptions.
  }
  EXPECT_EQ(ran.load(), 20);
}

}  // namespace
}  // namespace topkpkg
