#ifndef AQUA_EXEC_PHYSICAL_OP_H_
#define AQUA_EXEC_PHYSICAL_OP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/function_ref.h"
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
/// tree: the database, the parallelism budget, the query trace and the
/// lifecycle context. Work counts live on the ops themselves (see
/// `PhysicalOp`); the executor sums them into `ExecStats` after the run.
///
/// Written by the query thread only, except the two morsel sinks, which
/// fan-out workers bump.
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

  // Parallel-path shape of this Execute, harvested by the executor for the
  // flight recorder: morsels executed across every fan-out, and the wall
  // time of the slowest single morsel (the skew highlight). Both stay 0 on
  // the serial path.
  std::atomic<size_t> morsels_run{0};
  std::atomic<uint64_t> morsel_max_ns{0};
};

/// How `PhysicalOp::ForEachItem` walks the tree/list items of an input.
struct ItemLoop {
  /// Item type: lists when true, trees otherwise (drives the type check
  /// and which item count the op bumps).
  bool over_lists = false;
  /// Exact interpreter TypeError messages (contract-tested).
  const char* set_error = "";
  const char* single_error = "";
  /// Whether set items may run on pool workers.
  bool parallel = false;
  /// Pattern evaluations one item stands for in the item count: 1, or the
  /// group size for a batched group, so its count mirrors the work the
  /// group replaced.
  size_t evaluations = 1;
};

/// How `PhysicalOp::SplitRange` splits the inner work of one item (the
/// begin positions of a list, the roots of a tree select, the members of a
/// batched group) into contiguous ranges.
struct RangeLoop {
  /// Whether ranges may run on pool workers. Set only when the op's input
  /// is a single item, so a split never nests inside a set fan-out.
  bool parallel = false;
  /// Fewest positions per range; fewer than two ranges' worth runs as one.
  size_t min_per_range = 1;
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
/// Each op keeps its own record of this Execute (invocations, wall and
/// CPU time, cardinalities, output bytes, index probes, items fanned out):
/// the one source of the execution's accounting. After the run the
/// executor harvests the records once (`CollectOpSamples`) for
/// `ExecStats`, EXPLAIN ANALYZE and the plan catalogue. Ops are compiled
/// fresh per `Execute`, and each runs at most once per `Execute`, so the
/// records are per-call by construction. Only the item counts are bumped
/// from worker threads; everything else is written by `Run` on the query
/// thread.
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

  /// This Execute's record (see class comment).
  size_t invocations() const { return invocations_; }
  uint64_t total_ns() const { return total_ns_; }
  /// Query-thread CPU attributed to this op's `Run` (fan-out helper work
  /// is accounted to the query total, not per-op).
  uint64_t cpu_ns() const { return cpu_ns_; }
  size_t last_output_size() const { return last_output_size_; }
  /// Estimated bytes of the last output (kept after a parent consumed it;
  /// the live charge against the query is released separately).
  size_t out_bytes() const { return out_bytes_; }
  /// Observed input cardinality of the last call: the children's combined
  /// outputs; for an index probe the candidate count; for a source leaf
  /// its own output (the rows it materialized).
  size_t in_rows() const { return in_rows_; }
  /// Index probes issued / candidates returned by this op (indexed ops
  /// only, 0 elsewhere).
  size_t probes() const { return probes_; }
  size_t candidates() const { return candidates_; }
  /// Tree / list items this op's fan-out evaluated (see
  /// `ItemLoop::evaluations`).
  size_t trees() const { return trees_.load(std::memory_order_relaxed); }
  size_t lists() const { return lists_.load(std::memory_order_relaxed); }

  /// The logical subplan this op was compiled from, shared form — what
  /// `obs::FingerprintPlan` keys the stats warehouse with.
  const PlanRef& plan_ref() const { return plan_; }

 protected:
  virtual Result<Datum> RunImpl(ExecContext& ctx) = 0;

  /// Runs input `i`, failing like the interpreter when the plan node lacks
  /// that input.
  Result<Datum> RunChild(size_t i, ExecContext& ctx);

  /// The one item loop of every fan-out, single-plan or batched: maps `fn`
  /// over the items of `input` (its set elements, or `input` itself when it
  /// is not a set). Set items run as morsels (`RunMorsels`) on up to
  /// `ExecContext::threads` participants when `loop.parallel`; a single
  /// input runs inline. Per item: the query checkpoint, `AddRows`, the type
  /// check with the interpreter's messages, this op's item count, then
  /// `fn(item, index, worker)`. Returns the lowest-indexed failure.
  Status ForEachItem(
      ExecContext& ctx, const Datum& input, const ItemLoop& loop,
      FunctionRef<Status(const Datum&, size_t, size_t)> fn);

  /// The contiguous ranges `ForEachRange` runs `[0, n)` as, in order: the
  /// one range `[0, n)`, unless `loop.parallel`, `ExecContext::threads` > 1
  /// and `n` holds two ranges of `loop.min_per_range`; then
  /// `PartitionMorsels(n, threads, min_per_range)`.
  static std::vector<std::pair<size_t, size_t>> SplitRange(
      const ExecContext& ctx, size_t n, const RangeLoop& loop);

  /// Runs `fn(range, worker)` once per range of `ranges` (from
  /// `SplitRange`). One range runs inline on the calling thread as worker
  /// 0, so the serial path is the same code. More run as morsels, set up as
  /// `ForEachItem`'s (trace, morsel sinks, lifecycle context), with a
  /// checkpoint per range; the lowest-indexed failing range's Status is
  /// returned. Results merged in range order are therefore independent of
  /// the thread count.
  static Status ForEachRange(
      ExecContext& ctx, const std::vector<std::pair<size_t, size_t>>& ranges,
      FunctionRef<Status(size_t, size_t)> fn);

  /// Counts one index probe that returned `candidates` nodes.
  void CountProbe(size_t candidates) {
    ++probes_;
    candidates_ += candidates;
  }

  PlanRef plan_;
  std::vector<PhysicalOpRef> children_;

 private:
  size_t invocations_ = 0;
  uint64_t total_ns_ = 0;
  uint64_t cpu_ns_ = 0;
  size_t last_output_size_ = 0;
  size_t out_bytes_ = 0;
  /// The part of `out_bytes_` still charged to the query's live memory;
  /// released when a parent consumes the output.
  size_t live_bytes_ = 0;
  size_t in_rows_ = 0;
  size_t probes_ = 0;
  size_t candidates_ = 0;
  std::atomic<size_t> trees_{0};
  std::atomic<size_t> lists_{0};
};

/// Rough heap footprint of a datum (node/element payloads plus container
/// overhead) — the arena-level estimate behind per-query memory
/// accounting. O(size of the datum).
size_t ApproxDatumBytes(const Datum& d);

/// The one post-run harvest walk: flattens the executed op tree into
/// `obs::OpSample`s, preorder, with stable child-index paths ("0", "0.0",
/// "0.1", ...). The executor sums them into `ExecStats`, renders EXPLAIN
/// ANALYZE from them and records them in the plan catalogue. Ops that
/// never ran (short-circuited branches) are skipped. `node_fp` is
/// `obs::FingerprintPlan` of each op's subplan.
void CollectOpSamples(const PhysicalOpRef& root,
                      std::vector<obs::OpSample>* out);

}  // namespace aqua::exec

#endif  // AQUA_EXEC_PHYSICAL_OP_H_
