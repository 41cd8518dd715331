#ifndef AQUA_OBS_QUERY_CONTEXT_H_
#define AQUA_OBS_QUERY_CONTEXT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "common/build.h"
#include "common/status.h"

namespace aqua::obs {

/// Per-query lifecycle state: a monotonic query id, an optional deadline
/// and memory budget, a cooperative cancellation token, the resource
/// counters (CPU-ns, current/peak bytes, rows, tree/list nodes) that feed
/// the live task table, the plan catalogue and the flight recorder, and
/// this query's share of every registry counter.
///
/// One QueryContext lives on the stack of the executor's query lifecycle
/// for exactly one execution (one plan, or one batched group). The
/// executor installs it thread-locally (`Scope`) on the query thread, and
/// the morsel scheduler re-installs it on every pool worker that
/// participates in a fan-out, so the matcher inner loops reach it via
/// `Current()` without any algebra-layer signature changes. It is compiled
/// in every build: deadlines, memory budgets and `\kill` do not depend on
/// the metric macros.
///
/// Cancellation is cooperative: `Cancel` (from any thread — the shell's
/// `\kill`, the metricsd watchdog, a deadline check) only sets a flag;
/// workers observe it at their next `CheckPoint()` — every fan-out item
/// and every `kCheckStride` matcher steps — and unwind with
/// `kCancelled` / `kDeadlineExceeded` through the normal Status paths.
class QueryContext {
 public:
  /// Matcher inner loops call `CheckPoint` once per this many steps (a
  /// power of two); one check is a relaxed flag load plus a steady-clock
  /// read. Fixed per build: 512 keeps the overhead invisible in optimized
  /// builds; sanitizer and unoptimized builds (`kLargeStackFrames`) run a
  /// step many times slower, so they check every 64 steps to keep
  /// cancellation well under the 50 ms budget.
  static constexpr size_t kCheckStride = kLargeStackFrames ? 64 : 512;

  /// Registry counters numbered below this (`Counter::slot()`, in creation
  /// order) are also counted per query; the rest are process totals only.
  static constexpr size_t kCounterSlots = 128;
  using CounterValues = std::array<uint64_t, kCounterSlots>;

  QueryContext();
  ~QueryContext();
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Process-unique monotonic id (1, 2, ...).
  uint64_t id() const { return id_; }

  // --- limits ---------------------------------------------------------

  /// Arms the deadline `timeout_ns` from now (0 disarms).
  void set_deadline_after_ns(uint64_t timeout_ns);
  /// Absolute deadline on the `NowNs` clock; 0 when unarmed.
  uint64_t deadline_ns() const {
    return deadline_ns_.load(std::memory_order_relaxed);
  }
  void set_mem_limit_bytes(uint64_t bytes) {
    mem_limit_bytes_ = bytes;
  }
  uint64_t mem_limit_bytes() const { return mem_limit_bytes_; }

  // --- cancellation ---------------------------------------------------

  /// Requests cancellation with `code` (`kCancelled` or
  /// `kDeadlineExceeded`); the first caller's code and detail win.
  /// Thread-safe, callable from any thread.
  void Cancel(StatusCode code, std::string_view detail);

  /// True once `Cancel` was called (the cheap probe for skip fast-paths).
  bool cancel_requested() const {
    return cancel_code_.load(std::memory_order_relaxed) !=
           static_cast<uint32_t>(StatusCode::kOk);
  }

  /// The cooperative cancellation probe: checks the cancel flag, then the
  /// deadline, then the memory budget. OK while the query may continue;
  /// otherwise the `kCancelled` / `kDeadlineExceeded` status to unwind
  /// with. Called per fan-out item and per `kCheckStride` matcher steps.
  Status CheckPoint();

  /// The status `CheckPoint` reports once cancelled (OK if not cancelled).
  Status CancelStatus() const;

  // --- resource accounting -------------------------------------------

  void AddCpuNs(uint64_t ns) {
    cpu_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void AddRows(uint64_t n) {
    rows_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddNodes(uint64_t n) {
    nodes_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Adjusts the live-bytes estimate (positive on materialization,
  /// negative on release) and maintains the peak. Mirrored into the
  /// process-wide `query.mem_bytes` gauge.
  void AddMem(int64_t delta);

  uint64_t cpu_ns() const { return cpu_ns_.load(std::memory_order_relaxed); }
  uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }
  uint64_t nodes() const { return nodes_.load(std::memory_order_relaxed); }
  uint64_t mem_bytes() const {
    int64_t v = mem_bytes_.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<uint64_t>(v) : 0;
  }
  uint64_t mem_peak_bytes() const {
    return mem_peak_bytes_.load(std::memory_order_relaxed);
  }

  /// Adds to this query's value of the registry counter in `slot`
  /// (`Counter::Add` does so for the query installed on its thread).
  void AddCounter(size_t slot, uint64_t n) {
    counters_[slot].fetch_add(n, std::memory_order_relaxed);
  }
  /// This query's value of the counter in `slot` (0 past the slot range).
  uint64_t counter(size_t slot) const {
    return slot < kCounterSlots
               ? counters_[slot].load(std::memory_order_relaxed)
               : 0;
  }
  /// This query's value of every counter slot.
  CounterValues counters() const;

  // --- progress -------------------------------------------------------

  void AddMorselsTotal(size_t n) {
    morsels_total_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddMorselsDone(size_t n) {
    morsels_done_.fetch_add(n, std::memory_order_relaxed);
  }
  size_t morsels_total() const {
    return morsels_total_.load(std::memory_order_relaxed);
  }
  size_t morsels_done() const {
    return morsels_done_.load(std::memory_order_relaxed);
  }
  /// `name` must be a static string (a `PlanOpToString` result).
  void set_current_op(const char* name) {
    current_op_.store(name, std::memory_order_relaxed);
  }
  const char* current_op() const {
    return current_op_.load(std::memory_order_relaxed);
  }

  // --- descriptor (written by the executor before registration) -------

  void set_fingerprint(uint64_t fp) { fingerprint_ = fp; }
  uint64_t fingerprint() const { return fingerprint_; }
  /// One-line plan description for the task table; immutable once the
  /// context is registered, so snapshots read it without a copy race.
  void set_plan_text(std::string text) { plan_text_ = std::move(text); }
  const std::string& plan_text() const { return plan_text_; }
  void set_threads(uint32_t n) { threads_ = n; }
  uint32_t threads() const { return threads_; }
  /// Epoch of the store snapshot this query reads against (0 until the
  /// executor installs the view); shown by `\tasks` / `\snapshot`.
  void set_pinned_epoch(uint64_t e) { pinned_epoch_ = e; }
  uint64_t pinned_epoch() const { return pinned_epoch_; }
  uint64_t started_ns() const { return started_ns_; }

  // --- clocks ---------------------------------------------------------

  /// Steady nanoseconds since process start (the deadline clock).
  static uint64_t NowNs();
  /// CPU nanoseconds consumed by the calling thread
  /// (CLOCK_THREAD_CPUTIME_ID).
  static uint64_t ThreadCpuNs();

  // --- thread-local installation --------------------------------------

  /// The context installed on this thread, or null outside a query.
  static QueryContext* Current() { return current_; }

  /// RAII installation of a context on the current thread (the executor
  /// on the query thread; the morsel scheduler on each pool worker).
  /// Nests: the previous context is restored on destruction.
  class Scope {
   public:
    explicit Scope(QueryContext* q) : prev_(current_) { current_ = q; }
    ~Scope() { current_ = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    QueryContext* prev_;
  };

 private:
  static inline thread_local QueryContext* current_ = nullptr;

  uint64_t id_ = 0;
  uint64_t started_ns_ = 0;
  uint64_t fingerprint_ = 0;
  std::string plan_text_;
  uint32_t threads_ = 1;
  uint64_t pinned_epoch_ = 0;
  uint64_t mem_limit_bytes_ = 0;

  std::atomic<uint64_t> deadline_ns_{0};
  std::atomic<uint32_t> cancel_code_{0};  // StatusCode; 0 = not cancelled
  mutable std::mutex cancel_mu_;          // guards cancel_detail_
  std::string cancel_detail_;

  std::atomic<uint64_t> cpu_ns_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> nodes_{0};
  std::atomic<int64_t> mem_bytes_{0};
  std::atomic<uint64_t> mem_peak_bytes_{0};
  std::atomic<size_t> morsels_total_{0};
  std::atomic<size_t> morsels_done_{0};
  std::atomic<const char*> current_op_{nullptr};
  std::array<std::atomic<uint64_t>, kCounterSlots> counters_{};
};

/// `AQUA_QUERY_TIMEOUT_MS` as nanoseconds (0 when unset/invalid). Read per
/// call so tests can flip it with setenv.
uint64_t DefaultQueryTimeoutNs();
/// `AQUA_QUERY_MEM_LIMIT_MB` as bytes (0 when unset/invalid).
uint64_t DefaultQueryMemLimitBytes();


}  // namespace aqua::obs

#endif  // AQUA_OBS_QUERY_CONTEXT_H_
