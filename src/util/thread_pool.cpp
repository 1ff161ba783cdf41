#include "util/thread_pool.h"

namespace caya {

namespace {
thread_local bool t_on_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(Task task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_on_pool_worker = true;
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

bool ThreadPool::on_worker_thread() noexcept { return t_on_pool_worker; }

std::size_t ThreadPool::hardware_jobs() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(hardware_jobs());
  return pool;
}

}  // namespace caya
