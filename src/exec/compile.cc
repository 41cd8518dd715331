#include "exec/compile.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "algebra/derived.h"
#include "algebra/fn_expr.h"
#include "algebra/list_ops.h"
#include "algebra/tree_ops.h"
#include "bulk/concat.h"
#include "exec/worker_local.h"
#include "lint/effects.h"
#include "object/store_txn.h"
#include "obs/metrics.h"
#include "pattern/list_matcher.h"
#include "pattern/multi.h"

namespace aqua::exec {

namespace {

/// Stand-in for a null plan node: reproduces the interpreter's "(null)"
/// span (via the Run wrapper) and its InvalidArgument status.
class NullOp : public PhysicalOp {
 public:
  NullOp() : PhysicalOp(nullptr, {}) {}

 protected:
  Result<Datum> RunImpl(ExecContext&) override {
    return Status::InvalidArgument("null plan node");
  }
};

/// Leaf and scalar operators (scans, constants): one evaluation on the
/// query thread, no fan-out.
class SimpleOp : public PhysicalOp {
 public:
  using Fn = std::function<Result<Datum>(ExecContext&, const PlanNode&)>;

  SimpleOp(PlanRef plan, std::vector<PhysicalOpRef> children, Fn fn)
      : PhysicalOp(std::move(plan), std::move(children)), fn_(std::move(fn)) {}

 protected:
  Result<Datum> RunImpl(ExecContext& ctx) override { return fn_(ctx, *plan_); }

 private:
  Fn fn_;
};

/// Configuration of the generic map-over-set fan-out (the single code path
/// that replaced the interpreter's ForEachTree / ForEachList / per-op set
/// loops).
struct FanOutSpec {
  /// Item type, type-error messages and whether set items may run on pool
  /// workers. Not parallel for ops that mutate the head store (uncertified
  /// `apply`) or invoke user callbacks with no thread-safety contract
  /// (`split` / `all_anc` / `all_desc`).
  ItemLoop items;
  /// When the input is a single collection (not a set), return the item
  /// result directly instead of wrapping it in a set — the `apply` and
  /// list-`select` quirk.
  bool single_passthrough = false;
  /// Re-snapshot `ExecContext::view` after the batch (even on error): set
  /// for ops whose item evaluation may mutate the head store, so
  /// downstream operators observe the writes. Nearly free when nothing
  /// changed (the head-version cache returns the same `StoreVersion`).
  bool refresh_view = false;
  /// How one item's result datum joins the output set.
  enum class Merge {
    kUnionChildren,  ///< item result is a set; insert its elements
    kInsertResult,   ///< insert the item result itself
  };
  Merge merge = Merge::kUnionChildren;
};

/// Maps an operator over the tree/list items of its input.
///
/// Items run through `PhysicalOp::ForEachItem`: as morsels, contiguous
/// item ranges claimed by up to `ExecContext::threads` participants, each
/// holding a distinct worker slot for `WorkerLocal` state. Per-item results
/// land in an index-addressed slot vector and are merged serially in item
/// order after the join, so the output set (`SetInsert` dedups, keeping
/// first occurrence) is byte-identical to the serial interpreter's. On
/// failure the returned Status is the lowest-indexed failing item's — the
/// same error the serial in-order loop would have returned. Execution
/// counters may include items past the first failure (serial stops there;
/// parallel morsels already running complete), which is the one documented
/// divergence, on error paths only.
class FanOutOp : public PhysicalOp {
 public:
  FanOutOp(PlanRef plan, std::vector<PhysicalOpRef> children, FanOutSpec spec)
      : PhysicalOp(std::move(plan), std::move(children)), spec_(spec) {}

 protected:
  using Slots = std::vector<std::optional<Result<Datum>>>;

  /// Evaluates the operator on one collection item. `index` is the item's
  /// position in the batch (0 for a single non-set input); `worker` is the
  /// fan-out worker slot (0 on the serial path and for single inputs).
  virtual Result<Datum> RunOnItem(ExecContext& ctx, const Datum& item,
                                  size_t index, size_t worker) = 0;

  /// Called on the query thread before any item runs, with the batch size.
  virtual void OnBatchStart(ExecContext&, size_t) {}

  /// A `RangeLoop` for splitting one item's own work: parallel only when
  /// the batch is that one item and its loop may use workers.
  RangeLoop ItemRanges(size_t min_per_range) const {
    return RangeLoop{single_item_ && spec_.items.parallel, min_per_range};
  }

  /// Called on the query thread after every item succeeded, before the
  /// merge; may rewrite the slot datums in place (the certified-apply
  /// commit hook). Not called when an item failed — a failing batch
  /// publishes nothing.
  virtual Status AfterItems(ExecContext&, Slots*) { return Status::OK(); }

  Result<Datum> RunImpl(ExecContext& ctx) override {
    Result<Datum> out = RunBatch(ctx);
    // Even on error: a serial apply mutates the head up to the failing
    // item, and those writes must be visible downstream.
    if (spec_.refresh_view && ctx.db != nullptr) ctx.view = ctx.db->store();
    return out;
  }

 private:
  Result<Datum> RunBatch(ExecContext& ctx) {
    AQUA_ASSIGN_OR_RETURN(Datum input, RunChild(0, ctx));
    const size_t n = input.is_set() ? input.children().size() : 1;
    single_item_ = n == 1;
    OnBatchStart(ctx, n);
    Slots slots(n);
    AQUA_RETURN_IF_ERROR(ForEachItem(
        ctx, input, spec_.items,
        [&](const Datum& item, size_t i, size_t worker) -> Status {
          Result<Datum> r = RunOnItem(ctx, item, i, worker);
          Status st = r.status();
          slots[i].emplace(std::move(r));
          return st;
        }));
    // Every slot holds an OK result; merging in item order reproduces the
    // serial insertion sequence exactly.
    AQUA_RETURN_IF_ERROR(AfterItems(ctx, &slots));
    if (!input.is_set() && spec_.single_passthrough) {
      return std::move(**slots[0]);
    }
    Datum out = Datum::Set({});
    for (auto& slot : slots) MergeInto(&out, std::move(**slot));
    return out;
  }

  void MergeInto(Datum* out, Datum&& r) const {
    if (spec_.merge == FanOutSpec::Merge::kUnionChildren) {
      out->SetUnion(std::move(r));
    } else {
      out->SetInsert(std::move(r));
    }
  }

  FanOutSpec spec_;
  bool single_item_ = false;  // this run's input is one item
};

/// Fan-out whose per-item evaluation is a stateless function of the plan
/// node — every fan-out operator except list sub_select.
class LambdaFanOutOp : public FanOutOp {
 public:
  using ItemFn =
      std::function<Result<Datum>(ExecContext&, const PlanNode&, const Datum&)>;

  LambdaFanOutOp(PlanRef plan, std::vector<PhysicalOpRef> children,
                 FanOutSpec spec, ItemFn fn)
      : FanOutOp(std::move(plan), std::move(children), spec),
        fn_(std::move(fn)) {}

 protected:
  Result<Datum> RunOnItem(ExecContext& ctx, const Datum& item, size_t,
                          size_t) override {
    return fn_(ctx, *plan_, item);
  }

 private:
  ItemFn fn_;
};

/// The certified `apply` path, tree and list: every item evaluates through
/// a `DeltaTxn` over the query snapshot, so reads never touch the head
/// lock. Read-only-certified applies produce empty deltas and commit
/// nothing. Snapshot-write-certified applies (AQL021-clean, see
/// `lint::NodeSnapshotWriteCertified`) buffer thread-local write deltas
/// per item; after the join, one `CommitBatch` folds them in item order —
/// one new store version per apply, allocating exactly the oids a serial
/// left-to-right fold would have — and the provisional oids in each item's
/// result are rewritten to their committed finals. One documented
/// divergence from the serial path: a failing certified apply commits
/// nothing (all-or-nothing), where serial leaves the writes of the items
/// before the failure.
class CertifiedApplyOp : public FanOutOp {
 public:
  CertifiedApplyOp(PlanRef plan, std::vector<PhysicalOpRef> children,
                   FanOutSpec spec, bool writes)
      : FanOutOp(std::move(plan), std::move(children), spec),
        writes_(writes) {}

 protected:
  void OnBatchStart(ExecContext&, size_t n) override {
    deltas_.assign(n, ItemDelta{});
  }

  Result<Datum> RunOnItem(ExecContext& ctx, const Datum& item, size_t index,
                          size_t) override {
    // Certification implies a structured fn_expr (opaque functions are
    // never certified), so the dereference is safe.
    const FnExpr& fn = *plan_->fn_expr;
    DeltaTxn txn(ctx.view);
    auto cell = [&fn](StoreTxn& t, Oid oid) { return fn.Eval(t, oid); };
    Result<Datum> out = [&]() -> Result<Datum> {
      if (plan_->op == PlanOp::kListApply) {
        AQUA_ASSIGN_OR_RETURN(List mapped,
                              ListApplyTxn(txn, item.list(), cell));
        return Datum::Of(std::move(mapped));
      }
      AQUA_ASSIGN_OR_RETURN(Tree mapped, TreeApplyTxn(txn, item.tree(), cell));
      return Datum::Of(std::move(mapped));
    }();
    // Distinct indices, so worker threads never write the same slot.
    if (writes_ && out.ok()) deltas_[index] = txn.Take();
    return out;
  }

  Status AfterItems(ExecContext& ctx, Slots* slots) override {
    if (!writes_) return Status::OK();
    AQUA_ASSIGN_OR_RETURN(std::vector<std::vector<Oid>> finals,
                          ctx.db->store().CommitBatch(std::move(deltas_)));
    deltas_.clear();
    AQUA_OBS_COUNT("exec.apply_snapshot_commits", 1);
    for (size_t i = 0; i < slots->size(); ++i) {
      const std::vector<Oid>& f = finals[i];
      auto remap = [&f](Oid oid) {
        return IsProvisionalOid(oid) ? f[ProvisionalOidIndex(oid)] : oid;
      };
      Datum& d = **(*slots)[i];
      if (d.is_list()) {
        List l = d.list();
        l.MapCells(remap);
        d = Datum::Of(std::move(l));
      } else {
        Tree t = d.tree();
        t.MapCells(remap);
        d = Datum::Of(std::move(t));
      }
    }
    // Downstream operators read the version this apply just committed.
    ctx.view = ctx.db->store();
    return Status::OK();
  }

 private:
  bool writes_;
  std::vector<ItemDelta> deltas_;
};

/// The existence automaton of a list operator: the merged search
/// automaton of `bodies`, compiled and sealed once per Execute (the
/// interpreter compiles it per list) and shared read-only across workers,
/// plus one `LazyMultiDfa` per worker slot over it. A DFA mutates its
/// transition cache and alphabet scratch while matching, so instances are
/// per worker, and each cache amortizes across all the lists one worker
/// scans.
class ListSearchDfas {
 public:
  /// Fails, like the matcher's validation, on a body with a tree atom.
  Status Prepare(const std::vector<ListPatternRef>& bodies, size_t threads) {
    AQUA_ASSIGN_OR_RETURN(MultiNfa nfa, MultiNfa::CompileSearch(bodies));
    nfa_.emplace(std::move(nfa));
    dfas_.emplace(std::max<size_t>(threads, 1), [&] {
      Result<LazyMultiDfa> dfa = LazyMultiDfa::Make(&*nfa_);  // sealed: ok
      return std::move(*dfa);
    });
    return Status::OK();
  }

  LazyMultiDfa& at(size_t worker) { return dfas_->at(worker); }

 private:
  std::optional<MultiNfa> nfa_;
  std::optional<WorkerLocal<LazyMultiDfa>> dfas_;
};

/// Fewest begin positions per range of a split single-list sub_select. A
/// list of fewer than twice this many runs as one range: matching 4096
/// begins costs at least tens of microseconds, well above what one morsel
/// costs to schedule.
constexpr size_t kListBeginsPerRange = 4096;

/// List sub_select with the existence prefilter's automaton hoisted into
/// `Prepare`. The backtracking search over a single input list splits its
/// begin positions into ranges (`ForEachRange`): matches at distinct
/// begins are independent, and `ListMatcher::FindAllInRange` of
/// consecutive ranges concatenates to `FindAll`'s answer, so the result
/// and the summed steps equal the serial ones. A pattern with a match or
/// step budget stays one range, because both budgets count per matcher
/// call and a split would hit them elsewhere than the serial loop does.
class ListSubSelectOp : public FanOutOp {
 public:
  using FanOutOp::FanOutOp;

  Status Prepare(ExecContext& ctx) override {
    AQUA_RETURN_IF_ERROR(FanOutOp::Prepare(ctx));
    return dfas_.Prepare({plan_->lpattern.body}, ctx.threads);
  }

 protected:
  Result<Datum> RunOnItem(ExecContext& ctx, const Datum& item, size_t,
                          size_t worker) override {
    const List& list = item.list();
    const AnchoredListPattern& lp = plan_->lpattern;
    const ListMatchOptions& budget = plan_->lsplit_opts.match;
    AQUA_ASSIGN_OR_RETURN(
        bool rejected,
        ListPrefilterRejects(ctx.view, list, lp.body, &dfas_.at(worker)));
    if (rejected) return Datum::Set({});
    RangeLoop loop = ItemRanges(kListBeginsPerRange);
    loop.parallel = loop.parallel && !lp.anchor_begin &&
                    budget.max_matches == 0 && budget.max_steps == 0;
    const auto ranges = SplitRange(ctx, list.size() + 1, loop);
    std::vector<std::vector<ListMatch>> parts(ranges.size());
    AQUA_RETURN_IF_ERROR(
        ForEachRange(ctx, ranges, [&](size_t r, size_t) -> Status {
          ListMatcher matcher(ctx.view, list);
          AQUA_ASSIGN_OR_RETURN(
              parts[r], matcher.FindAllInRange(lp, ranges[r].first,
                                               ranges[r].second, budget));
          return Status::OK();
        }));
    std::vector<ListMatch> matches = std::move(parts[0]);
    for (size_t r = 1; r < parts.size(); ++r) {
      std::move(parts[r].begin(), parts[r].end(), std::back_inserter(matches));
    }
    return ListSubSelectOfMatches(list, matches);
  }

 private:
  ListSearchDfas dfas_;
};

/// A single input tree of at least this many nodes builds its select
/// forest in parallel; a smaller one costs less than scheduling morsels.
constexpr size_t kTreeSelectMinNodes = 4096;

/// Tree select (§4). Over a single input tree large enough, the result
/// trees of the topmost kept nodes are built as ranges of those roots
/// (`ForEachRange`): each range builds its own set, and the sets merge in
/// range order with their stored hashes, which yields the serial
/// insertion order.
class TreeSelectOp : public FanOutOp {
 public:
  using FanOutOp::FanOutOp;

 protected:
  Result<Datum> RunOnItem(ExecContext& ctx, const Datum& item, size_t,
                          size_t) override {
    const Tree& tree = item.tree();
    AQUA_ASSIGN_OR_RETURN(std::vector<NodeId> roots,
                          TreeSelectRoots(ctx.view, tree, plan_->pred));
    RangeLoop loop = ItemRanges(/*min_per_range=*/1);
    loop.parallel = loop.parallel && tree.size() >= kTreeSelectMinNodes;
    const auto ranges = SplitRange(ctx, roots.size(), loop);
    std::vector<Datum> parts(ranges.size());
    AQUA_RETURN_IF_ERROR(
        ForEachRange(ctx, ranges, [&](size_t r, size_t) -> Status {
          Datum part = Datum::Set({});
          for (size_t i = ranges[r].first; i < ranges[r].second; ++i) {
            part.SetInsert(Datum::Of(
                TreeSelectBuild(ctx.view, tree, *plan_->pred, roots[i])));
          }
          parts[r] = std::move(part);
          return Status::OK();
        }));
    Datum out = Datum::Set({});
    for (Datum& part : parts) out.SetUnion(std::move(part));
    return out;
  }
};

constexpr char kTreeSetErr[] = "tree operator over a set containing a non-tree";
constexpr char kTreeSingleErr[] = "tree operator applied to a non-tree datum";
constexpr char kTreeApplySetErr[] = "apply over a set containing a non-tree";
constexpr char kTreeApplySingleErr[] = "apply over a non-tree datum";
constexpr char kListSetErr[] = "list operator over a set containing a non-list";
constexpr char kListSingleErr[] = "list operator applied to a non-list datum";
constexpr char kListApplySetErr[] = "apply over a set containing a non-list";
constexpr char kListApplySingleErr[] = "apply over a non-list datum";

ItemLoop TreeItems(bool parallel) {
  return ItemLoop{false, kTreeSetErr, kTreeSingleErr, parallel};
}

ItemLoop ListItems(bool parallel) {
  return ItemLoop{true, kListSetErr, kListSingleErr, parallel};
}

FanOutSpec TreeSpec(bool parallel) { return {TreeItems(parallel)}; }

FanOutSpec ListSpec(bool parallel) { return {ListItems(parallel)}; }

// Spec for the split family: serial (the user callback declares no
// thread-safety contract), and since that callback may capture the
// database and mutate it, the query view refreshes after the batch.
FanOutSpec OpaqueTreeSpec() {
  FanOutSpec spec = TreeSpec(/*parallel=*/false);
  spec.refresh_view = true;
  return spec;
}

FanOutSpec OpaqueListSpec() {
  FanOutSpec spec = ListSpec(/*parallel=*/false);
  spec.refresh_view = true;
  return spec;
}

/// Index-anchored sub_select, tree or list: one probe of the anchor's
/// index, counted on this op, then the pattern matched at the candidates
/// only, in document order.
class IndexedSubSelectOp : public PhysicalOp {
 public:
  using PhysicalOp::PhysicalOp;

 protected:
  Result<Datum> RunImpl(ExecContext& ctx) override {
    const PlanNode& n = *plan_;
    if (n.op == PlanOp::kIndexedSubSelect) {
      AQUA_ASSIGN_OR_RETURN(const Tree* tree, ctx.db->GetTree(n.collection));
      AQUA_ASSIGN_OR_RETURN(std::vector<NodeId> candidates, Probe(ctx));
      return TreeSubSelectAtRoots(ctx.view, *tree, n.tpattern, candidates,
                                  n.split_opts);
    }
    AQUA_ASSIGN_OR_RETURN(const List* list, ctx.db->GetList(n.collection));
    AQUA_ASSIGN_OR_RETURN(std::vector<NodeId> candidates, Probe(ctx));
    return ListSubSelectAtBegins(ctx.view, *list, n.lpattern, candidates,
                                 n.lsplit_opts);
  }

 private:
  Result<std::vector<NodeId>> Probe(ExecContext& ctx) {
    const PlanNode& n = *plan_;
    AQUA_ASSIGN_OR_RETURN(const AttributeIndex* index,
                          ctx.db->indexes().Get(n.collection, n.attr));
    AQUA_ASSIGN_OR_RETURN(std::vector<NodeId> candidates,
                          index->Probe(*n.anchor));
    CountProbe(candidates.size());
    return candidates;
  }
};

}  // namespace

bool ApplyParallelCertified(const PlanRef& plan) {
  return plan != nullptr && lint::NodeParallelCertified(*plan);
}

bool ApplySnapshotWriteCertified(const PlanRef& plan) {
  return plan != nullptr && lint::NodeSnapshotWriteCertified(*plan);
}

PhysicalOpRef Compile(const PlanRef& plan) {
  if (plan == nullptr) return std::make_shared<NullOp>();
  std::vector<PhysicalOpRef> children;
  children.reserve(plan->children.size());
  for (const PlanRef& c : plan->children) children.push_back(Compile(c));

  switch (plan->op) {
    case PlanOp::kEmptySet:
      return std::make_shared<SimpleOp>(
          plan, std::move(children),
          [](ExecContext&, const PlanNode&) -> Result<Datum> {
            return Datum::Set({});
          });
    case PlanOp::kEmptyList:
      return std::make_shared<SimpleOp>(
          plan, std::move(children),
          [](ExecContext&, const PlanNode&) -> Result<Datum> {
            return Datum::Of(List());
          });
    case PlanOp::kScanTree:
      return std::make_shared<SimpleOp>(
          plan, std::move(children),
          [](ExecContext& ctx, const PlanNode& n) -> Result<Datum> {
            AQUA_ASSIGN_OR_RETURN(std::shared_ptr<const Tree> tree,
                                  ctx.db->ShareTree(n.collection));
            return Datum::Of(std::move(tree));
          });
    case PlanOp::kScanList:
      return std::make_shared<SimpleOp>(
          plan, std::move(children),
          [](ExecContext& ctx, const PlanNode& n) -> Result<Datum> {
            AQUA_ASSIGN_OR_RETURN(std::shared_ptr<const List> list,
                                  ctx.db->ShareList(n.collection));
            return Datum::Of(std::move(list));
          });
    case PlanOp::kTreeSelect:
      return std::make_shared<TreeSelectOp>(plan, std::move(children),
                                            TreeSpec(/*parallel=*/true));
    case PlanOp::kTreeApply: {
      // Three-mode compile. Certified (read-only effect, or store-writing
      // with no order dependence): snapshot-isolated morsel-parallel path.
      // Uncertified: serial against the head, re-snapshotting after.
      bool read_cert = ApplyParallelCertified(plan);
      bool write_cert = ApplySnapshotWriteCertified(plan);
      FanOutSpec spec = TreeSpec(/*parallel=*/read_cert || write_cert);
      spec.items.set_error = kTreeApplySetErr;
      spec.items.single_error = kTreeApplySingleErr;
      spec.single_passthrough = true;
      spec.merge = FanOutSpec::Merge::kInsertResult;
      if (read_cert || write_cert) {
        AQUA_OBS_COUNT("exec.apply_parallel_certified", 1);
        return std::make_shared<CertifiedApplyOp>(plan, std::move(children),
                                                  spec, write_cert);
      }
      spec.refresh_view = true;  // node_fn may have mutated the head
      return std::make_shared<LambdaFanOutOp>(
          plan, std::move(children), spec,
          [](ExecContext& ctx, const PlanNode& n,
             const Datum& item) -> Result<Datum> {
            AQUA_ASSIGN_OR_RETURN(
                Tree mapped,
                TreeApply(ctx.db->store(), item.tree(), n.node_fn));
            return Datum::Of(std::move(mapped));
          });
    }
    case PlanOp::kTreeSubSelect:
      return std::make_shared<LambdaFanOutOp>(
          plan, std::move(children), TreeSpec(/*parallel=*/true),
          [](ExecContext& ctx, const PlanNode& n,
             const Datum& item) -> Result<Datum> {
            return TreeSubSelect(ctx.view, item.tree(), n.tpattern,
                                 n.split_opts);
          });
    case PlanOp::kTreeSplit:
      return std::make_shared<LambdaFanOutOp>(
          plan, std::move(children), OpaqueTreeSpec(),
          [](ExecContext& ctx, const PlanNode& n,
             const Datum& item) -> Result<Datum> {
            return TreeSplit(ctx.view, item.tree(), n.tpattern, n.split_fn,
                             n.split_opts);
          });
    case PlanOp::kTreeAllAnc:
      return std::make_shared<LambdaFanOutOp>(
          plan, std::move(children), OpaqueTreeSpec(),
          [](ExecContext& ctx, const PlanNode& n,
             const Datum& item) -> Result<Datum> {
            return TreeAllAnc(ctx.view, item.tree(), n.tpattern, n.anc_fn,
                              n.split_opts);
          });
    case PlanOp::kTreeAllDesc:
      return std::make_shared<LambdaFanOutOp>(
          plan, std::move(children), OpaqueTreeSpec(),
          [](ExecContext& ctx, const PlanNode& n,
             const Datum& item) -> Result<Datum> {
            return TreeAllDesc(ctx.view, item.tree(), n.tpattern, n.desc_fn,
                               n.split_opts);
          });
    case PlanOp::kIndexedSubSelect:
    case PlanOp::kIndexedListSubSelect:
      return std::make_shared<IndexedSubSelectOp>(plan, std::move(children));
    case PlanOp::kListSelect: {
      FanOutSpec spec = ListSpec(/*parallel=*/true);
      spec.single_passthrough = true;
      spec.merge = FanOutSpec::Merge::kInsertResult;
      return std::make_shared<LambdaFanOutOp>(
          plan, std::move(children), spec,
          [](ExecContext& ctx, const PlanNode& n,
             const Datum& item) -> Result<Datum> {
            AQUA_ASSIGN_OR_RETURN(List filtered,
                                  ListSelect(ctx.view, item.list(), n.pred));
            return Datum::Of(std::move(filtered));
          });
    }
    case PlanOp::kListApply: {
      bool read_cert = ApplyParallelCertified(plan);
      bool write_cert = ApplySnapshotWriteCertified(plan);
      FanOutSpec spec = ListSpec(/*parallel=*/read_cert || write_cert);
      spec.items.set_error = kListApplySetErr;
      spec.items.single_error = kListApplySingleErr;
      spec.single_passthrough = true;
      spec.merge = FanOutSpec::Merge::kInsertResult;
      if (read_cert || write_cert) {
        AQUA_OBS_COUNT("exec.apply_parallel_certified", 1);
        return std::make_shared<CertifiedApplyOp>(plan, std::move(children),
                                                  spec, write_cert);
      }
      spec.refresh_view = true;  // lnode_fn may have mutated the head
      return std::make_shared<LambdaFanOutOp>(
          plan, std::move(children), spec,
          [](ExecContext& ctx, const PlanNode& n,
             const Datum& item) -> Result<Datum> {
            AQUA_ASSIGN_OR_RETURN(
                List mapped,
                ListApply(ctx.db->store(), item.list(), n.lnode_fn));
            return Datum::Of(std::move(mapped));
          });
    }
    case PlanOp::kListSubSelect:
      return std::make_shared<ListSubSelectOp>(plan, std::move(children),
                                               ListSpec(/*parallel=*/true));
    case PlanOp::kListSplit:
      return std::make_shared<LambdaFanOutOp>(
          plan, std::move(children), OpaqueListSpec(),
          [](ExecContext& ctx, const PlanNode& n,
             const Datum& item) -> Result<Datum> {
            return ListSplit(ctx.view, item.list(), n.lpattern, n.lsplit_fn,
                             n.lsplit_opts);
          });
    case PlanOp::kListAllAnc:
      return std::make_shared<LambdaFanOutOp>(
          plan, std::move(children), OpaqueListSpec(),
          [](ExecContext& ctx, const PlanNode& n,
             const Datum& item) -> Result<Datum> {
            return ListAllAnc(ctx.view, item.list(), n.lpattern, n.lanc_fn,
                              n.lsplit_opts);
          });
    case PlanOp::kListAllDesc:
      return std::make_shared<LambdaFanOutOp>(
          plan, std::move(children), OpaqueListSpec(),
          [](ExecContext& ctx, const PlanNode& n,
             const Datum& item) -> Result<Datum> {
            return ListAllDesc(ctx.view, item.list(), n.lpattern, n.ldesc_fn,
                               n.lsplit_opts);
          });
  }
  return std::make_shared<NullOp>();  // unreachable with a valid enum
}

namespace {

/// Shared batch machinery of the list/tree batched operators: run the
/// common child once, walk its items with the same `ForEachItem` loop as
/// `FanOutOp` (per-item checkpoint, exact interpreter type errors, item
/// count, order-stable slots), and merge each plan's per-item results in
/// item order. Per item, the subclass's gate picks the members that must
/// run their matcher (the rest yield the empty set); over a single input
/// item those members run as ranges on the pool (`ForEachRange`), since
/// there is no item parallelism to use. Item type errors and checkpoint
/// failures are batch-fatal (a standalone execution of *every* plan in
/// the group would fail identically, since they share the input); a
/// per-plan matcher error is not — it becomes that plan's result, chosen
/// from the lowest-indexed failing item like the serial in-order loop.
class BatchedMatchOpBase : public BatchedPatternOp {
 public:
  BatchedMatchOpBase(PlanRef plan, std::vector<PhysicalOpRef> children,
                     std::vector<PlanRef> plans)
      : BatchedPatternOp(std::move(plan), std::move(children),
                         std::move(plans)),
        items_(plan_->op == PlanOp::kListSubSelect
                   ? ListItems(/*parallel=*/true)
                   : TreeItems(/*parallel=*/true)) {
    // One logical pattern evaluation per plan, so the item count mirrors
    // the work the group replaced.
    items_.evaluations = plans_.size();
  }

 protected:
  /// The group's shared scan of one item: bit j is set when plan j must
  /// run its matcher there; a clear bit proves plan j matches nothing.
  virtual uint64_t Gate(ExecContext& ctx, const Datum& item,
                        size_t worker) = 0;

  /// Plan j's own matcher over one item (any thread; no worker state).
  virtual Result<Datum> RunMember(ExecContext& ctx, const Datum& item,
                                  size_t j) = 0;

  Result<Datum> RunImpl(ExecContext& ctx) override {
    AQUA_ASSIGN_OR_RETURN(Datum input, RunChild(0, ctx));
    const size_t n_items = input.is_set() ? input.children().size() : 1;
    const size_t n_plans = plans_.size();
    std::vector<std::vector<Result<Datum>>> slots(
        n_items,
        std::vector<Result<Datum>>(n_plans, Result<Datum>(Datum::Set({}))));
    const RangeLoop members_loop{n_items == 1 && items_.parallel, 1};
    AQUA_RETURN_IF_ERROR(ForEachItem(
        ctx, input, items_,
        [&](const Datum& item, size_t i, size_t worker) -> Status {
          const uint64_t run = Gate(ctx, item, worker);
          std::vector<size_t> members;
          for (size_t j = 0; j < n_plans; ++j) {
            if ((run >> j) & 1) members.push_back(j);
          }
          const auto ranges = SplitRange(ctx, members.size(), members_loop);
          return ForEachRange(ctx, ranges, [&](size_t r, size_t) -> Status {
            for (size_t k = ranges[r].first; k < ranges[r].second; ++k) {
              slots[i][members[k]] = RunMember(ctx, item, members[k]);
            }
            return Status::OK();
          });
        }));

    // Per plan: first failing item (in item order) wins, exactly like the
    // serial loop; otherwise merge in item order (union of set children —
    // sub_select results are sets, and a single non-set input wraps the
    // same way in `FanOutOp`).
    for (size_t j = 0; j < n_plans; ++j) {
      Datum out = Datum::Set({});
      Status failed = Status::OK();
      for (size_t i = 0; i < n_items; ++i) {
        if (!slots[i][j].ok()) {
          failed = slots[i][j].status();
          break;
        }
        out.SetUnion(std::move(*slots[i][j]));
      }
      results_[j] = failed.ok() ? Result<Datum>(std::move(out))
                                : Result<Datum>(std::move(failed));
    }
    return Datum::Set({});  // placeholder; callers read plan_results()
  }

 private:
  ItemLoop items_;
};

/// Batched list sub_select: the merged search automaton answers "does
/// pattern j match somewhere in this list" for all patterns in one columnar
/// scan, which is every member's existence prefilter at once. A hit runs
/// the unchanged serial matcher; a miss produces the empty set, exactly
/// what the serial prefilter-reject path returns (anchors only narrow the
/// unanchored body's language, so a negative unanchored existence scan is
/// sound — see `ListSubSelect`). `CompileBatch` admits only groups whose
/// bodies all compile, so `Prepare` fails only as a lone member would.
class BatchedListMatchOp : public BatchedMatchOpBase {
 public:
  using BatchedMatchOpBase::BatchedMatchOpBase;

  Status Prepare(ExecContext& ctx) override {
    AQUA_RETURN_IF_ERROR(BatchedPatternOp::Prepare(ctx));
    std::vector<ListPatternRef> bodies;
    for (const PlanRef& p : plans_) bodies.push_back(p->lpattern.body);
    return dfas_.Prepare(bodies, ctx.threads);
  }

 protected:
  uint64_t Gate(ExecContext& ctx, const Datum& item, size_t worker) override {
    size_t rows = 0;
    const uint64_t matched =
        dfas_.at(worker).MatchAll(ctx.view, item.list(), &rows);
    if (rows > 0) AQUA_OBS_COUNT("exec.batch_scan_rows", rows);
    return matched;
  }

  Result<Datum> RunMember(ExecContext& ctx, const Datum& item,
                          size_t j) override {
    return ListSubSelectMatches(ctx.view, item.list(), plans_[j]->lpattern,
                                plans_[j]->lsplit_opts);
  }

 private:
  ListSearchDfas dfas_;
};

/// One necessary condition on any match of a tree pattern: some node of
/// the tree must satisfy one of the predicates in `mask` (a disjunction
/// across `kAlt` arms of the pattern's possible match roots).
/// `unconstrained` disables the gate for that pattern (a `?` root, a free
/// point, a star, or a predicate beyond the 64-slot mask).
struct RootClause {
  bool unconstrained = false;
  uint64_t mask = 0;
};

/// Accumulates the match-root predicate disjunction of `tp` into `c`:
/// every way a match can start contributes either one alphabet slot or
/// `unconstrained`. Conservative — substitution at concatenation points
/// only ever replaces point leaves, so the root predicate of `first()` is
/// preserved by `∘_α`.
void CollectRootClause(const TreePattern& tp, PredicateAlphabet* alphabet,
                       RootClause* c) {
  switch (tp.kind()) {
    case TreePattern::Kind::kLeaf:
    case TreePattern::Kind::kNode: {
      if (tp.is_any()) {
        c->unconstrained = true;
        return;
      }
      uint32_t slot = alphabet->Intern(tp.pred());
      if (slot >= 64) {
        c->unconstrained = true;
        return;
      }
      c->mask |= 1ULL << slot;
      return;
    }
    case TreePattern::Kind::kAlt:
      for (const TreePatternRef& alt : tp.alts()) {
        CollectRootClause(*alt, alphabet, c);
      }
      return;
    case TreePattern::Kind::kConcatAt:
      CollectRootClause(*tp.first(), alphabet, c);
      return;
    case TreePattern::Kind::kPlusAt:
      CollectRootClause(*tp.inner(), alphabet, c);
      return;
    case TreePattern::Kind::kRootAnchor:
    case TreePattern::Kind::kLeafAnchor:
    case TreePattern::Kind::kPrune:
      CollectRootClause(*tp.inner(), alphabet, c);
      return;
    case TreePattern::Kind::kPoint:
    case TreePattern::Kind::kStarAt:
      // A free point can match nothing at all; a star can iterate zero
      // times. Neither pins a predicate on the match root.
      c->unconstrained = true;
      return;
  }
}

/// Batched tree sub_select: one columnar pass over each tree's cells
/// evaluates the group's shared root-predicate alphabet and accumulates a
/// seen-predicates mask; a pattern whose root clause intersects nothing in
/// the tree cannot match anywhere, so it skips its `TreeSubSelect` and
/// yields the empty set — byte-identical to the serial zero-match result.
class BatchedTreeMatchOp : public BatchedMatchOpBase {
 public:
  using BatchedMatchOpBase::BatchedMatchOpBase;

  Status Prepare(ExecContext& ctx) override {
    AQUA_RETURN_IF_ERROR(BatchedPatternOp::Prepare(ctx));
    clauses_.resize(plans_.size());
    for (size_t j = 0; j < plans_.size(); ++j) {
      if (plans_[j]->tpattern == nullptr) {
        clauses_[j].unconstrained = true;  // matcher reports the error
        continue;
      }
      CollectRootClause(*plans_[j]->tpattern, &alphabet_, &clauses_[j]);
      if (!clauses_[j].unconstrained) needed_ |= clauses_[j].mask;
    }
    alphabet_.Seal();
    gate_enabled_ = needed_ != 0 && alphabet_.size() <= 64;
    if (gate_enabled_) {
      scratch_.emplace(std::max<size_t>(ctx.threads, 1));
    }
    return Status::OK();
  }

 protected:
  uint64_t Gate(ExecContext& ctx, const Datum& item, size_t worker) override {
    if (!gate_enabled_) {
      return plans_.size() >= 64 ? ~uint64_t{0}
                                 : (uint64_t{1} << plans_.size()) - 1;
    }
    const Tree& tree = item.tree();
    uint64_t seen = 0;
    AlphabetScratch& scratch = scratch_->at(worker);
    std::vector<NodeId> order = tree.Preorder();
    size_t rows = 0;
    constexpr size_t kChunk = 256;
    for (size_t base = 0; base < order.size() && (seen & needed_) != needed_;
         base += kChunk) {
      const size_t end = std::min(base + kChunk, order.size());
      scratch.oids.clear();
      for (size_t i = base; i < end; ++i) {
        const NodePayload& p = tree.payload(order[i]);
        if (p.is_cell()) scratch.oids.push_back(p.oid());
      }
      alphabet_.EvalBatch(ctx.view, scratch.oids.data(), scratch.oids.size(),
                          &scratch);
      rows += end - base;
      for (size_t i = 0; i < scratch.oids.size(); ++i) {
        seen |= scratch.sigs[i];  // stride 1: at most 64 slots
      }
    }
    if (rows > 0) AQUA_OBS_COUNT("exec.batch_scan_rows", rows);
    // The clause is a disjunction over possible match roots: ruled out
    // only when no node in the tree satisfied any of its predicates.
    uint64_t run = 0;
    for (size_t j = 0; j < plans_.size(); ++j) {
      if (clauses_[j].unconstrained || (clauses_[j].mask & seen) != 0) {
        run |= uint64_t{1} << j;
      }
    }
    return run;
  }

  Result<Datum> RunMember(ExecContext& ctx, const Datum& item,
                          size_t j) override {
    return TreeSubSelect(ctx.view, item.tree(), plans_[j]->tpattern,
                         plans_[j]->split_opts);
  }

 private:
  PredicateAlphabet alphabet_;
  std::vector<RootClause> clauses_;
  uint64_t needed_ = 0;
  bool gate_enabled_ = false;
  std::optional<WorkerLocal<AlphabetScratch>> scratch_;
};

}  // namespace

std::shared_ptr<BatchedPatternOp> CompileBatch(
    const std::vector<PlanRef>& plans) {
  if (plans.size() < 2 || plans.size() > 64) return nullptr;
  const PlanRef& first = plans[0];
  if (first == nullptr || first->children.size() != 1) return nullptr;
  const PlanOp op = first->op;
  if (op != PlanOp::kListSubSelect && op != PlanOp::kTreeSubSelect) {
    return nullptr;
  }
  for (const PlanRef& p : plans) {
    if (p == nullptr || p->op != op || p->children.size() != 1) {
      return nullptr;
    }
    if (!PlanEquals(p->children[0], first->children[0])) return nullptr;
    if (op == PlanOp::kListSubSelect &&
        (p->lpattern.body == nullptr ||
         !ListMatcher::ValidateListPattern(*p->lpattern.body).ok())) {
      return nullptr;
    }
  }
  AQUA_OBS_COUNT("exec.batched_patterns", plans.size());
  std::vector<PhysicalOpRef> children;
  children.push_back(Compile(first->children[0]));
  if (op == PlanOp::kListSubSelect) {
    return std::make_shared<BatchedListMatchOp>(first, std::move(children),
                                                plans);
  }
  return std::make_shared<BatchedTreeMatchOp>(first, std::move(children),
                                              plans);
}

}  // namespace aqua::exec
