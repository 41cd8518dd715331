#ifndef AQUA_OBS_TASKS_H_
#define AQUA_OBS_TASKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/query_context.h"

namespace aqua::obs {

/// Point-in-time copy of one in-flight execution, as read out of the task
/// registry (`\tasks` in the shell, `/tasks` in aqua_metricsd).
struct TaskRow {
  uint64_t id = 0;
  uint64_t fingerprint = 0;
  std::string plan;  ///< one-line normalized plan
  uint64_t elapsed_ns = 0;
  uint64_t deadline_in_ns = 0;  ///< ns until the deadline; 0 = unarmed
  bool cancel_requested = false;
  uint32_t threads = 1;
  uint64_t pinned_epoch = 0;  ///< store epoch the query reads against
  const char* current_op = nullptr;  ///< static string or null
  size_t morsels_done = 0;
  size_t morsels_total = 0;
  uint64_t cpu_ns = 0;
  uint64_t mem_bytes = 0;
  uint64_t mem_peak_bytes = 0;
  uint64_t rows = 0;
  uint64_t nodes = 0;
};

/// Process-wide registry of in-flight `Executor::Execute` calls, keyed by
/// query id. Registration brackets the execution (the executor holds a
/// `Guard` on its stack), so every entry's `QueryContext` is alive for as
/// long as it is visible here — `Kill` and the watchdog only ever touch
/// live contexts, under the registry lock.
///
/// Publishes the `tasks.active` gauge (`aqua_tasks_active` in OpenMetrics).
class TaskRegistry {
 public:
  static TaskRegistry& Global();

  void Register(QueryContext* q) AQUA_EXCLUDES(mu_);
  void Unregister(QueryContext* q) AQUA_EXCLUDES(mu_);

  /// RAII registration for the executor's stack.
  class Guard {
   public:
    explicit Guard(QueryContext* q) : q_(q) { Global().Register(q_); }
    ~Guard() { Global().Unregister(q_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    QueryContext* q_;
  };

  /// Copies the live table out, ordered by query id (start order).
  std::vector<TaskRow> Snapshot() const AQUA_EXCLUDES(mu_);

  /// Requests cooperative cancellation of query `id`; `NotFound` when no
  /// such query is in flight.
  Status Kill(uint64_t id, std::string_view reason = "was killed")
      AQUA_EXCLUDES(mu_);

  /// Watchdog sweep: cancels every task past its deadline or over its
  /// memory limit. Returns how many tasks this call newly cancelled.
  /// Belt-and-braces next to the workers' own checkpoints — a daemon can
  /// run this on a timer so limits hold even for a wedged worker's peers.
  size_t EnforceLimits() AQUA_EXCLUDES(mu_);

  size_t active() const AQUA_EXCLUDES(mu_);

  /// Aligned table: id, elapsed, cpu, mem, progress, op, plan.
  std::string ToText() const AQUA_EXCLUDES(mu_);
  /// `{"tasks":[{...}...]}`, ordered by query id.
  std::string ToJson() const AQUA_EXCLUDES(mu_);

 private:
  TaskRegistry() = default;

  mutable Mutex mu_;
  /// Live `QueryContext`s, keyed by query id. Pointees are owned by their
  /// executing thread's stack and are only dereferenced under `mu_`
  /// (registration brackets execution, so a visible entry is always alive).
  std::map<uint64_t, QueryContext*> tasks_ AQUA_GUARDED_BY(mu_);
};


}  // namespace aqua::obs

#endif  // AQUA_OBS_TASKS_H_
