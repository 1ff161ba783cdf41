// A small thread pool for the deterministic parallel evaluation engine.
//
// Design constraints, in order:
//   * Determinism lives in the *callers*: every parallel unit of work in this
//     project (a fitness trial, a sweep point) is an independent simulation
//     seeded from its own index, so the pool only has to guarantee that each
//     index runs exactly once — reduction in canonical index order is done by
//     parallel_for_indexed / ParallelEvaluator, never by completion order.
//   * Load balance is the callers' too: parallel_for_indexed submits one
//     task per shard and the shards share one atomic index cursor, so one
//     mutex-guarded FIFO queue is all the pool needs.
//   * Nested parallelism must not deadlock: a parallel_for issued from a
//     worker thread runs inline on that worker (see on_worker_thread()),
//     so a parallel GA whose fitness function is itself parallel-capable
//     degrades gracefully instead of blocking the pool on itself.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace caya {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the first idle worker runs it.
  void submit(Task task);

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Always 0: the pool has one queue, so no worker takes another's task.
  /// Kept because the benchmark reads it as util.pool_steals.
  [[nodiscard]] std::uint64_t steals() const noexcept { return 0; }

  /// True on a thread owned by *any* ThreadPool — parallel loops use this to
  /// fall back to inline execution instead of re-entering a pool they may be
  /// blocking.
  [[nodiscard]] static bool on_worker_thread() noexcept;

  /// std::thread::hardware_concurrency(), never less than 1.
  [[nodiscard]] static std::size_t hardware_jobs() noexcept;

  /// Process-wide pool with hardware_jobs() workers, created on first use.
  /// All parallel evaluation shares it; callers bound their own concurrency
  /// by the number of shard tasks they submit, not by pool size.
  [[nodiscard]] static ThreadPool& shared();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> tasks_;  // guarded by mu_
  bool stop_ = false;       // guarded by mu_
  std::vector<std::thread> workers_;  // after what the workers use
};

/// Runs fn(i) for every i in [0, n) across at most `jobs` workers of the
/// shared pool, blocking until all indices completed. Indices are handed out
/// through a single atomic cursor, so load balance is dynamic while each
/// index still runs exactly once. With jobs <= 1, n <= 1, or when already on
/// a pool worker, the loop runs inline on the calling thread — byte-for-byte
/// the serial behaviour. The first exception thrown by any fn(i) is
/// rethrown on the caller after the loop drains.
template <typename Fn>
void parallel_for_indexed(std::size_t jobs, std::size_t n, Fn&& fn) {
  if (jobs <= 1 || n <= 1 || ThreadPool::on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  ThreadPool& pool = ThreadPool::shared();
  const std::size_t shards = std::min(jobs, n);
  std::atomic<std::size_t> cursor{0};
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::exception_ptr error;

  for (std::size_t s = 0; s < shards; ++s) {
    pool.submit([&] {
      try {
        for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
             i < n; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
          fn(i);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      {
        // Notify while holding the lock: the caller destroys cv/mu/cursor as
        // soon as it observes done == shards, so the last worker must not
        // touch them after releasing mu.
        const std::lock_guard<std::mutex> lock(mu);
        ++done;
        cv.notify_one();
      }
    });
  }

  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == shards; });
  if (error) std::rethrow_exception(error);
}

}  // namespace caya
