#ifndef AQUA_QUERY_EXECUTOR_H_
#define AQUA_QUERY_EXECUTOR_H_

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "bulk/datum.h"
#include "exec/compile.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/database.h"
#include "query/plan.h"

namespace aqua {

/// Execution statistics of the last unit an executor ran (one `Execute`,
/// or one batched group of `ExecuteBatch`). Filled in every build.
struct ExecStats {
  size_t operators_evaluated = 0;
  size_t trees_processed = 0;
  size_t lists_processed = 0;
  size_t index_probes = 0;
  size_t index_candidates = 0;
  /// Lifecycle accounting: the process-unique query id, total CPU across
  /// the query thread and every fan-out helper, and the peak of the
  /// estimated live bytes.
  uint64_t query_id = 0;
  uint64_t cpu_ns = 0;
  uint64_t mem_peak_bytes = 0;
};

/// Per-operator measurements collected during `Execute`.
struct OperatorStats {
  size_t invocations = 0;
  double total_ms = 0;
  /// Cardinality of the last output (set elements / tree nodes / list
  /// elements / 1 for scalars).
  size_t last_output_size = 0;
  /// Query-thread CPU spent in this op's Run (helper CPU is accounted to
  /// the query total, not per-op).
  double cpu_ms = 0;
  /// Estimated bytes of the op's last output.
  size_t out_bytes = 0;
  /// Observed input cardinality of the last call (children's outputs; an
  /// index probe's candidate set; a source leaf's own output).
  size_t in_rows = 0;
  /// Index probes / candidates attributed to this op (indexed ops only).
  size_t probes = 0;
  size_t candidates = 0;
};

/// Facade over the compiled physical execution pipeline: each `Execute`
/// compiles the plan into `exec::PhysicalOp`s (see `exec/compile.h`),
/// prepares them, and runs the tree against a `Database`.
///
/// Pattern operators accept either a single collection datum or a *set* of
/// collections (forest outputs of `select`, subtree sets from rewrites) and
/// map over the set, unioning results — this is what lets the §4 rewrite
/// compose `apply(sub_select(...))` over `split`'s output. These set
/// fan-outs run morsel-parallel on up to `threads()` workers; the merge is
/// order-stable, so results are byte-identical to serial execution at any
/// thread count (`set_threads(1)` or `AQUA_THREADS=1` reproduces the
/// original interpreter exactly).
class Executor {
 public:
  explicit Executor(Database* db) : db_(db) {}

  Result<Datum> Execute(const PlanRef& plan);

  /// Executes a query group: plans that share their input (same digest
  /// fingerprint, verified structurally with `PlanEquals`) and are pattern
  /// sub_selects batch into one `exec::BatchedPatternOp`, so one scan of
  /// the shared collection answers all of them (see `pattern/multi.h`);
  /// everything else falls back to an individual `Execute`. Results are
  /// positional with `plans`, and each is byte-identical to what a
  /// standalone `Execute` of that plan would return, at any thread count.
  ///
  /// Query-group semantics: the batch is for *read-only* pattern queries —
  /// batched plans run against one pinned snapshot with no execution-order
  /// guarantee between plans of a group. A group runs the same lifecycle
  /// as `Execute`, once for the whole group: one `QueryContext` (deadline,
  /// memory budget, cancellation, query id, counters), one
  /// `exec.execute_ns` sample, one span tree, one flight event and at most
  /// one slow-log entry. The plan catalogue records each member plan
  /// individually (wall time attributed evenly across the group, no op
  /// samples). Groups run first, then the other plans one by one;
  /// `stats()`, `trace()`, `last_counters()` and `ExplainAnalyze` describe
  /// the last unit run, a group or a single plan.
  std::vector<Result<Datum>> ExecuteBatch(const std::vector<PlanRef>& plans);

  const ExecStats& stats() const { return stats_; }

  /// Overrides the fan-out parallelism for this executor (including the
  /// query thread itself); 0 restores the default
  /// (`AQUA_THREADS` or the hardware concurrency).
  void set_threads(size_t n) { threads_override_ = n; }
  size_t threads() const {
    return threads_override_ != 0 ? threads_override_
                                  : exec::ThreadPool::DefaultThreads();
  }

  /// Wall-clock deadline for each `Execute`; past it the query unwinds with
  /// `kDeadlineExceeded` at the next cooperative checkpoint. 0 restores the
  /// default (`AQUA_QUERY_TIMEOUT_MS`, unlimited when that is unset).
  void set_timeout_ms(uint64_t ms) { timeout_ms_ = ms; }
  uint64_t timeout_ms() const { return timeout_ms_; }

  /// Budget on the estimated live bytes materialized by each `Execute`;
  /// past it the query unwinds with `kCancelled`. 0 restores the default
  /// (`AQUA_QUERY_MEM_LIMIT_MB`, unlimited when that is unset).
  void set_mem_limit_bytes(uint64_t bytes) { mem_limit_bytes_ = bytes; }
  uint64_t mem_limit_bytes() const { return mem_limit_bytes_; }

  /// Enables span collection: each unit (an `Execute`, or a batched group)
  /// then records one span tree (root span "Execute", one child span per
  /// operator evaluation, and — at `threads() > 1` — per-morsel spans
  /// stitched under their fan-out operator).
  void set_trace_enabled(bool on) { trace_.set_enabled(on); }
  bool trace_enabled() const { return trace_.enabled(); }

  /// Span tree of the last unit run (empty when tracing is off).
  const obs::Trace& trace() const { return trace_; }

  /// Chrome trace-event JSON of the last unit's span tree, with that
  /// unit's counters (`last_counters()`) embedded.
  std::string TraceJson() const {
    return trace_.ToChromeJson(&last_counters());
  }

  /// Indented text rendering of the last unit's span tree.
  std::string TraceReport() const { return trace_.ToTextReport(); }

  /// The registry counters as counted by the most recent unit only (what
  /// the executor and the layers below it did for that execution, not for
  /// concurrent ones). It holds no gauges or histograms: those are
  /// process-level and read from `obs::Registry`.
  const obs::Snapshot& last_counters() const;

  /// Renders the plan annotated with the measurements of the last unit
  /// run (EXPLAIN ANALYZE) plus the cost model's estimated rows next to
  /// the observed ones and the per-op Q-error
  /// (`max((est+1)/(act+1), (act+1)/(est+1))` — 1.00 is a perfect
  /// estimate), e.g.
  ///
  ///   TreeSubSelect [...]  (1 call, 0.42 ms, out=7, ..., est=12, act=7, q=1.62)
  ///     ScanTree [t]  (1 call, 0.00 ms, out=8000, ..., est=8000, act=8000, q=1.00)
  ///
  /// Estimates come from the stats-informed cost model (the global
  /// `StatsWarehouse`), so a warmed process shows shrinking Q-errors.
  std::string ExplainAnalyze(const PlanRef& plan) const;

 private:
  /// Harvests the per-op atomics of the compiled tree into `op_stats_`
  /// (keyed by logical node, for ExplainAnalyze).
  void CollectOpStats(const exec::PhysicalOpRef& op);

  /// The one query lifecycle behind `Execute` and `ExecuteGroup`: arms the
  /// limits, fingerprints `plans` and pins the view; runs `root` (a
  /// compiled plan, or the `BatchedPatternOp` answering a group's
  /// `plans`) with the task registered, measures CPU and maps cancels;
  /// then, deregistered, fills the stats and this unit's counters and
  /// writes `exec.execute_ns`, the store gauges, one catalogue row per
  /// plan, the flight event and the slow log.
  Result<Datum> RunUnit(const exec::PhysicalOpRef& root,
                        std::span<const PlanRef> plans);

  /// The AQUA_LINT=error refusal gate shared by `Execute` and the batch
  /// path: non-OK when the plan carries an error-severity finding.
  Status LintGate(const PlanRef& plan);

  /// Runs one verified batchable group (>= 2 plans) through
  /// `exec::CompileBatch` and `RunUnit`, writing each member's result to
  /// `out[indices[k]]`. Runs the members one by one when fewer than two
  /// pass the lint gate or the group fails to compile.
  void ExecuteGroup(const std::vector<PlanRef>& plans,
                    const std::vector<size_t>& indices,
                    std::vector<Result<Datum>>* out);

  Database* db_;
  size_t threads_override_ = 0;
  uint64_t timeout_ms_ = 0;
  uint64_t mem_limit_bytes_ = 0;
  ExecStats stats_;
  std::map<const PlanNode*, OperatorStats> op_stats_;
  obs::Trace trace_;
  obs::QueryContext::CounterValues last_query_counters_{};
  mutable std::optional<obs::Snapshot> last_counters_;  // built on demand
};

}  // namespace aqua

#endif  // AQUA_QUERY_EXECUTOR_H_
