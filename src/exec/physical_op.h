#ifndef AQUA_EXEC_PHYSICAL_OP_H_
#define AQUA_EXEC_PHYSICAL_OP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "bulk/datum.h"
#include "exec/thread_pool.h"
#include "object/store_view.h"
#include "obs/query_context.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "query/database.h"
#include "query/plan.h"

namespace aqua::exec {

class PhysicalOp;
using PhysicalOpRef = std::shared_ptr<PhysicalOp>;

/// Everything one `Execute` call threads through the physical operator
/// tree: the database, the parallelism budget, the query trace, and the
/// cross-thread execution counters that back `Executor::stats()`.
///
/// The counter fields are atomics because fan-out items bump them from
/// worker threads; everything else is written by the query thread only.
struct ExecContext {
  Database* db = nullptr;
  ThreadPool* pool = nullptr;
  /// Maximum participants per fan-out, including the query thread itself.
  /// 1 reproduces the serial interpreter exactly.
  size_t threads = 1;
  obs::Trace* trace = nullptr;
  /// Lifecycle state of this Execute: cancellation/deadline checkpoints,
  /// resource counters, live progress. Null only in unit tests that drive
  /// ops directly; the executor always provides one.
  obs::QueryContext* query = nullptr;
  /// The snapshot every read path of this Execute evaluates against —
  /// opened once at the start (the executor installs it; `PhysicalOp::Run`
  /// also opens it lazily for tests that drive ops directly) and pinned for
  /// the query, so reads are lock-free regardless of concurrent commits.
  /// Operators that mutate the store re-snapshot after completing, so
  /// downstream operators observe their writes (read-after-write plan
  /// semantics). Written by the query thread only; fan-out workers read it
  /// after the fork point, never during a mutation.
  StoreView view;

  std::atomic<size_t> operators_evaluated{0};
  std::atomic<size_t> trees_processed{0};
  std::atomic<size_t> lists_processed{0};
  std::atomic<size_t> index_probes{0};
  std::atomic<size_t> index_candidates{0};

  // Parallel-path shape of this Execute, harvested by the executor for the
  // flight recorder: morsels executed across every fan-out, and the wall
  // time of the slowest single morsel (the skew highlight). Both stay 0 on
  // the serial path.
  std::atomic<size_t> morsels_run{0};
  std::atomic<uint64_t> morsel_max_ns{0};
};

/// One compiled operator of the physical execution pipeline.
///
/// `Compile` (see `exec/compile.h`) turns each `PlanNode` into one
/// PhysicalOp. The lifecycle per `Execute` is: `Prepare` once (recursive;
/// hoists per-query work such as pattern-automaton compilation out of the
/// per-item path), then `Run` evaluates the tree bottom-up. `Run` itself
/// always executes on the query thread — only per-item work inside a
/// fan-out operator is offloaded to pool workers — so the query trace can
/// be written without locks.
///
/// Each op carries its own measurement atomics (invocations, total time,
/// last output cardinality); the executor facade harvests them after the
/// run to build EXPLAIN ANALYZE. Ops are compiled fresh per `Execute`, so
/// the measurements are per-call by construction.
class PhysicalOp {
 public:
  PhysicalOp(PlanRef plan, std::vector<PhysicalOpRef> children)
      : plan_(std::move(plan)), children_(std::move(children)) {}
  virtual ~PhysicalOp() = default;
  PhysicalOp(const PhysicalOp&) = delete;
  PhysicalOp& operator=(const PhysicalOp&) = delete;

  /// The logical node this op was compiled from (null for the error op
  /// that stands in for a null plan).
  const PlanNode* plan() const { return plan_.get(); }
  const std::vector<PhysicalOpRef>& children() const { return children_; }

  /// Per-query preparation, recursive over children. Overrides hoist work
  /// that the interpreter re-did per item (e.g. compiling the search NFA
  /// of a list sub_select) so it runs once per Execute.
  virtual Status Prepare(ExecContext& ctx);

  /// Evaluates the operator: opens its trace span, dispatches to
  /// `RunImpl`, and records the per-op measurements.
  Result<Datum> Run(ExecContext& ctx);

  /// Measurements of this Execute (see class comment).
  size_t invocations() const {
    return invocations_.load(std::memory_order_relaxed);
  }
  double total_ms() const {
    return static_cast<double>(total_ns_.load(std::memory_order_relaxed)) /
           1e6;
  }
  size_t last_output_size() const {
    return last_output_size_.load(std::memory_order_relaxed);
  }
  /// Query-thread CPU attributed to this op's `Run` (fan-out helper work
  /// is accounted to the query total, not per-op).
  double cpu_ms() const {
    return static_cast<double>(cpu_ns_.load(std::memory_order_relaxed)) / 1e6;
  }
  /// Estimated bytes of the last output still charged to the query
  /// (released when a parent op consumes it).
  size_t out_bytes() const {
    return out_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }
  uint64_t cpu_ns() const { return cpu_ns_.load(std::memory_order_relaxed); }
  /// Observed input cardinality of the last call: the children's combined
  /// outputs; for an index probe the candidate count; for a source leaf
  /// its own output (the rows it materialized).
  size_t in_rows() const { return in_rows_.load(std::memory_order_relaxed); }
  /// Index probes issued / candidates returned during this op's `Run`
  /// (indexed ops only — 0 elsewhere; exact because `Run` is serial on the
  /// query thread, so the ExecContext counter delta belongs to this op).
  size_t probes() const { return probes_.load(std::memory_order_relaxed); }
  size_t candidates() const {
    return candidates_.load(std::memory_order_relaxed);
  }

  /// The logical subplan this op was compiled from, shared form — what
  /// `obs::FingerprintPlan` keys the stats warehouse with.
  const PlanRef& plan_ref() const { return plan_; }

 protected:
  virtual Result<Datum> RunImpl(ExecContext& ctx) = 0;

  /// Runs input `i`, failing like the interpreter when the plan node lacks
  /// that input.
  Result<Datum> RunChild(size_t i, ExecContext& ctx);

  PlanRef plan_;
  std::vector<PhysicalOpRef> children_;

 private:
  std::atomic<size_t> invocations_{0};
  std::atomic<uint64_t> total_ns_{0};
  std::atomic<size_t> last_output_size_{0};
  std::atomic<uint64_t> cpu_ns_{0};
  std::atomic<uint64_t> out_bytes_{0};
  std::atomic<size_t> in_rows_{0};
  std::atomic<size_t> probes_{0};
  std::atomic<size_t> candidates_{0};
};

/// Rough heap footprint of a datum (node/element payloads plus container
/// overhead) — the arena-level estimate behind per-query memory
/// accounting. O(size of the datum).
size_t ApproxDatumBytes(const Datum& d);

/// The post-run harvest walk: flattens the executed op tree into
/// `obs::OpSample`s for `StatsWarehouse::Record`, preorder, with stable
/// child-index paths ("0", "0.0", "0.1", ...). Ops that never ran
/// (short-circuited branches) are skipped. `node_fp` is
/// `obs::FingerprintPlan` of each op's subplan.
void CollectOpSamples(const PhysicalOpRef& root,
                      std::vector<obs::OpSample>* out);

}  // namespace aqua::exec

#endif  // AQUA_EXEC_PHYSICAL_OP_H_
