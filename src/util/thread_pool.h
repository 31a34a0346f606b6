// A small fixed-size work pool for CPU-bound batch jobs (design-space
// exploration synthesizes dozens of independent configurations; the pool
// lets them run concurrently while the caller keeps deterministic control
// of submission and collection order).
//
// Semantics:
//  * submit() returns a std::future for the task's result; exceptions
//    thrown by the task are captured and rethrown from future::get().
//  * A pool constructed with 0 threads runs every task inline inside
//    submit() — the degenerate serial pool, useful for tests and for
//    forcing the legacy single-threaded path without special-casing.
//  * The destructor drains all queued tasks and joins every worker, so
//    futures obtained from submit() never dangle or break.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace hlsw::util {

class ThreadPool {
 public:
  // Spawns `threads` workers. 0 = inline execution (no workers).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of worker threads (0 for an inline pool).
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Tasks queued but not yet started (diagnostics).
  std::size_t pending() const;

  // max(1, std::thread::hardware_concurrency()).
  static unsigned default_thread_count();

  // Enqueues a nullary callable; the result (or exception) is delivered
  // through the returned future. Throws std::runtime_error if called after
  // shutdown began (i.e. from a task outliving the destructor's drain).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // shared_ptr because std::function requires a copyable callable and
    // packaged_task is move-only.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    if (workers_.empty()) {
      (*task)();  // inline pool: run now; exceptions land in the future
      return fut;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) throw std::runtime_error("ThreadPool: submit after shutdown");
      queue_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// Applies fn(i) for i in [0, n) across the pool and returns the results in
// index order, regardless of completion order — the deterministic-merge
// primitive behind the parallel sweeps (DSE, co-simulation). A null pool
// runs everything inline in order. Exceptions propagate from the first
// (lowest-index) failing task, once every task has finished: the tasks
// reference fn and the caller's state, which the throw unwinds.
template <typename Fn>
auto map_ordered(ThreadPool* pool, std::size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<std::decay_t<Fn>, std::size_t>> {
  using R = std::invoke_result_t<std::decay_t<Fn>, std::size_t>;
  std::vector<R> results;
  results.reserve(n);
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) results.push_back(fn(i));
    return results;
  }
  std::vector<std::future<R>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    futures.push_back(pool->submit([&fn, i] { return fn(i); }));
  for (auto& fut : futures) fut.wait();
  for (auto& fut : futures) results.push_back(fut.get());
  return results;
}

}  // namespace hlsw::util
