#ifndef TOPKPKG_COMMON_THREAD_POOL_H_
#define TOPKPKG_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace topkpkg {

// Fixed-size worker pool with a single locked FIFO queue (deliberately
// work-stealing-free: its one library user, the SessionManager, submits one
// drain task per session turn, so a shared queue is contention-light and
// keeps the scheduling order easy to reason about). Tasks submitted after
// construction run on one of `num_threads` workers; the destructor drains
// every queued task and joins all workers, so a ThreadPool can be
// destroyed at any time without losing submitted work.
class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(std::size_t num_threads);

  // Drains the queue (every submitted task still runs) and joins workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  // Enqueues `fn`; the returned future carries its result, or rethrows any
  // exception `fn` escaped with. A throwing task never takes down a worker.
  template <typename Fn>
  auto Submit(Fn fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push([task]() { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  // std::thread::hardware_concurrency(), clamped to at least 1.
  static std::size_t DefaultThreadCount();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace topkpkg

#endif  // TOPKPKG_COMMON_THREAD_POOL_H_
