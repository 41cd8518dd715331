#ifndef AQUA_EXEC_COMPILE_H_
#define AQUA_EXEC_COMPILE_H_

#include <memory>
#include <vector>

#include "exec/physical_op.h"
#include "query/plan.h"

namespace aqua::exec {

/// Compiles a logical plan into a tree of physical operators.
///
/// Every `PlanNode` becomes one `PhysicalOp`; operators that map over a
/// set of collections (the forest outputs of `select`, subtree sets from
/// the §4 rewrites) all compile to one generic fan-out operator that runs
/// its items as morsels (see `exec/morsel.h`) and merges the per-item
/// results in item order — so the output is byte-identical to the serial
/// interpreter at any thread count.
///
/// Which fan-outs actually parallelize:
///  - `select` / `sub_select` (tree and list) read only the query's pinned
///    snapshot (`ExecContext::view`) and run their items on up to
///    `ExecContext::threads` workers.
///  - `apply` parallelizes when the lint effect analysis *certifies* its
///    function: either effect at most read-only
///    (`lint::NodeParallelCertified`) or a store-writing `FnExpr` with no
///    order dependence (`lint::NodeSnapshotWriteCertified`, the AQL021
///    analysis). Certified applies evaluate every item through a
///    snapshot-isolated `DeltaTxn`; write deltas are folded in item order
///    by one `ObjectStore::CommitBatch` after the join, so the result —
///    including the oids of created objects — is byte-identical to serial
///    at any thread count. An apply over a bare `std::function` or an
///    order-dependent write expression stays serial against the head.
///  - `split` / `all_anc` / `all_desc` invoke user callbacks with no
///    declared thread-safety contract and run serially too (see
///    docs/EXECUTION.md for the contract that would lift this).
///
/// Operators that may mutate the store (serial applies, opaque split-family
/// callbacks) re-snapshot `ExecContext::view` after completing, so
/// downstream operators observe their writes.
///
/// A null plan compiles to an error operator that reproduces the
/// interpreter's "(null)" span and InvalidArgument status, so `Compile`
/// never returns null.
PhysicalOpRef Compile(const PlanRef& plan);

/// The scheduling decision `Compile` makes for an apply node, exposed for
/// tests and the shell: true iff `plan` is a tree/list apply whose
/// function the effect analysis certifies for the morsel-parallel path.
/// (`Compile` counts each certification in `exec.apply_parallel_certified`.)
bool ApplyParallelCertified(const PlanRef& plan);

/// True iff `plan` is a tree/list apply whose store-writing function is
/// certified order-independent (AQL021-clean), so it runs morsel-parallel
/// with thread-local write deltas and a single order-stable commit.
/// Disjoint from `ApplyParallelCertified` (which covers effect <=
/// read-only).
bool ApplySnapshotWriteCertified(const PlanRef& plan);

/// A physical operator evaluating a *group* of pattern queries that share
/// one input (same `PlanEquals` child) in a single scan. The shared child
/// runs once; each tree/list item is then probed with a merged product
/// automaton (lists — `MultiNfa`/`LazyMultiDfa` over a shared
/// `PredicateAlphabet`, see `pattern/multi.h`) or a columnar
/// necessary-predicate gate (trees), and only the patterns the probe cannot
/// rule out run the unchanged per-pattern matcher. Per-plan outputs are
/// merged in item order, so each is byte-identical to what a standalone
/// serial `Execute` of that plan would return — including per-plan errors,
/// which land in `plan_results()` without failing the batch.
///
/// `Run` returns an empty set placeholder on success (read the per-plan
/// results instead); a non-OK `Run` is batch-fatal (shared-input failure,
/// item type error, cancellation) and applies to every plan in the group.
class BatchedPatternOp : public PhysicalOp {
 public:
  BatchedPatternOp(PlanRef plan, std::vector<PhysicalOpRef> children,
                   std::vector<PlanRef> plans)
      : PhysicalOp(std::move(plan), std::move(children)),
        plans_(std::move(plans)),
        results_(plans_.size(),
                 Result<Datum>(Status::Internal("batch not run"))) {}

  size_t num_plans() const { return plans_.size(); }
  const std::vector<PlanRef>& plans() const { return plans_; }

  /// Per-plan results, positional with the `plans` given to `CompileBatch`.
  /// Meaningful after an OK `Run`.
  const std::vector<Result<Datum>>& plan_results() const { return results_; }

 protected:
  std::vector<PlanRef> plans_;
  std::vector<Result<Datum>> results_;
};

/// Compiles a query group into one `BatchedPatternOp` when the plans are
/// co-compilable: 2..64 plans, all `kListSubSelect` or all
/// `kTreeSubSelect`, each with one child, and every child `PlanEquals` the
/// first (the executor pre-keys candidate groups by digest fingerprint;
/// this is the structural verification, constants included), and no list
/// body holding a tree atom, which the list automaton cannot compile, so
/// that plan fails alone as its own `Execute` does. Returns null
/// when the group is not batchable — callers then execute the plans
/// individually. Counts the group size in `exec.batched_patterns`.
std::shared_ptr<BatchedPatternOp> CompileBatch(
    const std::vector<PlanRef>& plans);

}  // namespace aqua::exec

#endif  // AQUA_EXEC_COMPILE_H_
