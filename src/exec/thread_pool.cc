#include "exec/thread_pool.h"

#include <cstdlib>
#include <string>

#include "obs/metrics.h"

namespace aqua::exec {

ThreadPool::ThreadPool(size_t workers) { EnsureWorkers(workers); }

ThreadPool::~ThreadPool() {
  std::vector<std::thread> joined;
  {
    MutexLock lock(mu_);
    stop_ = true;
    // A thread still being created is published before we take the list,
    // so it is joined too (it sees stop_ and exits at once).
    while (starting_ > 0) cv_.Wait(mu_);
    joined.swap(threads_);
  }
  cv_.NotifyAll();
  for (std::thread& t : joined) t.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool =
      new ThreadPool(DefaultThreads() > 0 ? DefaultThreads() - 1 : 0);
  return *pool;
}

size_t ThreadPool::DefaultThreads() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv at init.
  const char* env = std::getenv("AQUA_THREADS");
  if (env != nullptr && *env != '\0') {
    long n = std::strtol(env, nullptr, 10);
    if (n >= 1) return static_cast<size_t>(n);
  }
  size_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

size_t ThreadPool::workers() const {
  MutexLock lock(mu_);
  return threads_.size();
}

size_t ThreadPool::pending() const {
  MutexLock lock(mu_);
  return queue_.size();
}

void ThreadPool::EnsureWorkers(size_t n) {
  // Threads are created outside the lock, at up to milliseconds each under
  // sanitizers, so Submit and the workers' dequeues never wait on a
  // creation. `starting_` reserves each slot, so concurrent callers do not
  // overshoot `n`.
  for (;;) {
    {
      MutexLock lock(mu_);
      if (threads_.size() + starting_ >= n) return;
      ++starting_;
    }
    std::thread t([this] { WorkerLoop(); });
    bool stopping = false;
    {
      MutexLock lock(mu_);
      threads_.push_back(std::move(t));
      --starting_;
      stopping = stop_;
    }
    if (stopping) cv_.NotifyAll();  // the destructor waits on starting_
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    AQUA_OBS_GAUGE_SET("exec.pool_queue_depth",
                       static_cast<int64_t>(queue_.size()));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      AQUA_OBS_GAUGE_SET("exec.pool_queue_depth",
                         static_cast<int64_t>(queue_.size()));
    }
    AQUA_OBS_GAUGE_ADD("exec.pool_workers_active", 1);
    task();
    AQUA_OBS_GAUGE_ADD("exec.pool_workers_active", -1);
  }
}

}  // namespace aqua::exec
