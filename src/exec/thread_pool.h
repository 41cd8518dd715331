#ifndef AQUA_EXEC_THREAD_POOL_H_
#define AQUA_EXEC_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace aqua::exec {

/// A shared FIFO task pool backing morsel-parallel query execution.
///
/// The pool holds *helper* threads only: a parallel section is always driven
/// by its calling thread, which participates in the work and blocks until
/// its own morsels are done (see `morsel.h`). Helpers therefore never spawn
/// pool work themselves, so the pool cannot deadlock on nested fan-outs —
/// a caller that gets no helpers simply runs everything inline.
///
/// Sizing: `DefaultThreads()` reads `AQUA_THREADS` (clamped to >= 1) and
/// falls back to the hardware concurrency. One process-wide instance is
/// shared via `Shared()`; it grows on demand (`EnsureWorkers`) and never
/// shrinks, so worker threads are started at most once per size increase.
class ThreadPool {
 public:
  /// Starts `workers` helper threads (0 is a valid, thread-free pool).
  explicit ThreadPool(size_t workers = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, initially sized for `DefaultThreads()`.
  static ThreadPool& Shared();

  /// `AQUA_THREADS` when set and positive, else `hardware_concurrency`
  /// (at least 1). This is the default parallelism of every `Executor`.
  static size_t DefaultThreads();

  /// Helper threads currently running.
  size_t workers() const AQUA_EXCLUDES(mu_);

  /// Tasks queued but not yet picked up by a worker. Cancellation tests
  /// assert this drains to 0 — a cancelled fan-out must not leave orphan
  /// tasks behind.
  size_t pending() const AQUA_EXCLUDES(mu_);

  /// Grows the pool to at least `n` helper threads.
  void EnsureWorkers(size_t n) AQUA_EXCLUDES(mu_);

  /// Enqueues a task. Tasks must not block on other pool tasks.
  void Submit(std::function<void()> task) AQUA_EXCLUDES(mu_);

 private:
  void WorkerLoop() AQUA_EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ AQUA_GUARDED_BY(mu_);
  std::vector<std::thread> threads_ AQUA_GUARDED_BY(mu_);
  // Threads being created by EnsureWorkers, not yet in threads_.
  size_t starting_ AQUA_GUARDED_BY(mu_) = 0;
  bool stop_ AQUA_GUARDED_BY(mu_) = false;
};

}  // namespace aqua::exec

#endif  // AQUA_EXEC_THREAD_POOL_H_
