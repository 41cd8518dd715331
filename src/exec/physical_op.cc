#include "exec/physical_op.h"

#include <string>

#include "exec/morsel.h"
#include "obs/digest.h"
#include "obs/metrics.h"

namespace aqua::exec {

namespace {

size_t DatumCardinality(const Datum& d) {
  switch (d.kind()) {
    case Datum::Kind::kSet:
    case Datum::Kind::kTuple:
      return d.size();
    case Datum::Kind::kTree:
      return d.tree().size();
    case Datum::Kind::kList:
      return d.list().size();
    default:
      return 1;
  }
}

/// The fan-out setup every item loop and range split shares.
FanOutOptions FanOutFor(ExecContext& ctx, size_t threads) {
  FanOutOptions opts;
  opts.threads = threads;
  opts.trace = ctx.trace;
  opts.morsels_run = &ctx.morsels_run;
  opts.morsel_max_ns = &ctx.morsel_max_ns;
  opts.query = ctx.query;
  return opts;
}

ThreadPool& PoolFor(const ExecContext& ctx) {
  return ctx.pool != nullptr ? *ctx.pool : ThreadPool::Shared();
}

}  // namespace

size_t ApproxDatumBytes(const Datum& d) {
  // Per-node / per-element constants approximate the payload cell plus the
  // containers' bookkeeping; exactness does not matter — the estimate only
  // needs to scale with materialized data so peaks and limits are honest.
  constexpr size_t kTreeNodeBytes = 48;   // payload + child vector slot
  constexpr size_t kListElemBytes = 24;   // payload cell
  constexpr size_t kDatumBytes = 64;      // Datum shell + shared_ptr blocks
  switch (d.kind()) {
    case Datum::Kind::kTree:
      return kDatumBytes + d.tree().size() * kTreeNodeBytes;
    case Datum::Kind::kList:
      return kDatumBytes + d.list().size() * kListElemBytes;
    case Datum::Kind::kSet:
    case Datum::Kind::kTuple: {
      size_t total = kDatumBytes;
      for (const Datum& c : d.children()) total += ApproxDatumBytes(c);
      return total;
    }
    default:
      return kDatumBytes;
  }
}

Status PhysicalOp::Prepare(ExecContext& ctx) {
  for (const PhysicalOpRef& child : children_) {
    AQUA_RETURN_IF_ERROR(child->Prepare(ctx));
  }
  return Status::OK();
}

Result<Datum> PhysicalOp::Run(ExecContext& ctx) {
  // Lazy snapshot for contexts built without one (op-level unit tests).
  // Run always executes on the query thread, so this cannot race a worker.
  if (!ctx.view.valid() && ctx.db != nullptr) ctx.view = ctx.db->store();
  obs::Span span(ctx.trace,
                 plan_ == nullptr ? "(null)" : PlanOpToString(plan_->op));
  if (plan_ != nullptr && ctx.query != nullptr) {
    ctx.query->set_current_op(PlanOpToString(plan_->op));
  }
  uint64_t cpu0 =
      ctx.query != nullptr ? obs::QueryContext::ThreadCpuNs() : 0;
  Result<Datum> result = RunImpl(ctx);
  uint64_t ns = span.ElapsedNs();
  AQUA_OBS_RECORD("exec.operator_ns", ns);
  if (plan_ == nullptr) return result;
  ++invocations_;
  total_ns_ += ns;
  if (ctx.query != nullptr) {
    cpu_ns_ += obs::QueryContext::ThreadCpuNs() - cpu0;
  }
  if (!result.ok()) return result;
  size_t out = DatumCardinality(*result);
  last_output_size_ = out;
  span.AddAttr("out", static_cast<int64_t>(out));
  // Observed input cardinality: what this op actually consumed. With
  // inputs it is their combined outputs; an index probe consumes its
  // candidate set; a source leaf "consumes" what it materialized
  // (selectivity 1 by definition).
  size_t in = 0;
  if (!children_.empty()) {
    for (const PhysicalOpRef& child : children_) {
      in += child->last_output_size();
    }
  } else if (probes_ != 0) {
    in = candidates_;
  } else {
    in = out;
  }
  in_rows_ = in;
  if (ctx.query != nullptr) {
    // Charge this op's materialized output and release the children's:
    // their results were just consumed to produce ours, so the live
    // estimate tracks the high-water of operator outputs in flight. The
    // reported `out_bytes_` stays.
    out_bytes_ = ApproxDatumBytes(*result);
    live_bytes_ = out_bytes_;
    ctx.query->AddMem(static_cast<int64_t>(live_bytes_));
    for (const PhysicalOpRef& child : children_) {
      if (child->live_bytes_ != 0) {
        ctx.query->AddMem(-static_cast<int64_t>(child->live_bytes_));
        child->live_bytes_ = 0;
      }
    }
  }
  return result;
}

Result<Datum> PhysicalOp::RunChild(size_t i, ExecContext& ctx) {
  if (i >= children_.size()) {
    return Status::Internal("plan node missing input " + std::to_string(i));
  }
  return children_[i]->Run(ctx);
}

Status PhysicalOp::ForEachItem(
    ExecContext& ctx, const Datum& input, const ItemLoop& loop,
    FunctionRef<Status(const Datum&, size_t, size_t)> fn) {
  std::atomic<size_t>& count = loop.over_lists ? lists_ : trees_;
  auto run_item = [&](const Datum& item, bool in_set, size_t index,
                      size_t worker) -> Status {
    if (ctx.query != nullptr) {
      AQUA_RETURN_IF_ERROR(ctx.query->CheckPoint());
      ctx.query->AddRows(1);
    }
    if (loop.over_lists ? !item.is_list() : !item.is_tree()) {
      return Status::TypeError(in_set ? loop.set_error : loop.single_error);
    }
    count.fetch_add(loop.evaluations, std::memory_order_relaxed);
    return fn(item, index, worker);
  };
  if (!input.is_set()) return run_item(input, /*in_set=*/false, 0, 0);

  const std::vector<Datum>& items = input.children();
  return RunMorsels(PoolFor(ctx), items.size(),
                    FanOutFor(ctx, loop.parallel ? ctx.threads : 1),
                    [&](const Morsel& m) -> Status {
                      for (size_t i = m.begin; i < m.end; ++i) {
                        AQUA_RETURN_IF_ERROR(run_item(items[i],
                                                      /*in_set=*/true, i,
                                                      m.worker));
                      }
                      return Status::OK();
                    });
}

std::vector<std::pair<size_t, size_t>> PhysicalOp::SplitRange(
    const ExecContext& ctx, size_t n, const RangeLoop& loop) {
  if (!loop.parallel || ctx.threads <= 1 || n < 2 * loop.min_per_range) {
    return {{0, n}};
  }
  return PartitionMorsels(n, ctx.threads, loop.min_per_range);
}

Status PhysicalOp::ForEachRange(
    ExecContext& ctx, const std::vector<std::pair<size_t, size_t>>& ranges,
    FunctionRef<Status(size_t, size_t)> fn) {
  if (ranges.size() <= 1) return ranges.empty() ? Status::OK() : fn(0, 0);
  // At most 4 ranges per participant (PartitionMorsels), so each morsel
  // claims one range.
  return RunMorsels(PoolFor(ctx), ranges.size(), FanOutFor(ctx, ctx.threads),
                    [&](const Morsel& m) -> Status {
                      for (size_t r = m.begin; r < m.end; ++r) {
                        if (ctx.query != nullptr) {
                          AQUA_RETURN_IF_ERROR(ctx.query->CheckPoint());
                        }
                        AQUA_RETURN_IF_ERROR(fn(r, m.worker));
                      }
                      return Status::OK();
                    });
}

namespace {

void CollectOpSamplesInto(const PhysicalOpRef& op, const std::string& path,
                          std::vector<obs::OpSample>* out) {
  if (op == nullptr) return;
  if (op->plan() != nullptr && op->invocations() > 0) {
    obs::OpSample s;
    s.op_name = PlanOpToString(op->plan()->op);
    s.path = path;
    s.node_fp = obs::FingerprintPlan(op->plan_ref());
    s.node = op->plan();
    s.calls = op->invocations();
    s.in_rows = op->in_rows();
    s.out_rows = op->last_output_size();
    s.out_bytes = op->out_bytes();
    s.wall_ns = op->total_ns();
    s.cpu_ns = op->cpu_ns();
    s.probes = op->probes();
    s.candidates = op->candidates();
    s.trees = op->trees();
    s.lists = op->lists();
    out->push_back(std::move(s));
  }
  for (size_t i = 0; i < op->children().size(); ++i) {
    CollectOpSamplesInto(op->children()[i], path + "." + std::to_string(i),
                         out);
  }
}

}  // namespace

void CollectOpSamples(const PhysicalOpRef& root,
                      std::vector<obs::OpSample>* out) {
  CollectOpSamplesInto(root, "0", out);
}

}  // namespace aqua::exec
