#include "query/executor.h"

#include <cinttypes>
#include <cstdio>

#include <algorithm>
#include <map>

#include "lint/lint.h"
#include "obs/digest.h"
#include "obs/query_context.h"
#include "obs/recorder.h"
#include "obs/stats.h"
#include "obs/tasks.h"
#include "query/cost.h"

namespace aqua {

Status Executor::LintGate(const PlanRef& plan) {
  // At AQUA_LINT=error the lint pass is a gate: a plan carrying any
  // error-severity finding (kind-flow contradictions, parameter
  // mismatches, unsafe shapes) is refused before compilation.
  if (lint::EnforcementLevel() != lint::Level::kError) return Status::OK();
  std::vector<lint::Diagnostic> diags = lint::LintPlan(*db_, plan);
  if (!lint::HasErrors(diags)) return Status::OK();
  AQUA_OBS_COUNT("exec.lint_refusals", 1);
  std::string msg = "lint refuses to execute the plan (AQUA_LINT=error):";
  for (const lint::Diagnostic& d : diags) {
    if (d.severity != lint::Severity::kError) continue;
    msg += "\n  " + lint::FormatDiagnostic(d);
  }
  return Status::InvalidArgument(std::move(msg));
}

Result<Datum> Executor::Execute(const PlanRef& plan) {
  AQUA_RETURN_IF_ERROR(LintGate(plan));
  // Compile fresh per call: the physical ops carry this call's per-op
  // measurement atomics, so stats are per-Execute by construction.
  return RunUnit(exec::Compile(plan), {&plan, 1});
}

Result<Datum> Executor::RunUnit(const exec::PhysicalOpRef& root,
                                std::span<const PlanRef> plans) {
  stats_ = ExecStats{};
  op_samples_.clear();
  batch_members_.clear();
  trace_.Clear();
  last_counters_.reset();

  // Lifecycle context for this unit: limits armed from the executor
  // overrides or the env defaults, descriptor filled before registration
  // so the task table shows what is running from the first snapshot (a
  // group under its first member's shape).
  obs::QueryContext qctx;
  qctx.set_threads(static_cast<uint32_t>(threads()));
  uint64_t timeout_ns = timeout_ms_ != 0 ? timeout_ms_ * 1000000ull
                                         : obs::DefaultQueryTimeoutNs();
  if (timeout_ns != 0) qctx.set_deadline_after_ns(timeout_ns);
  uint64_t mem_limit = mem_limit_bytes_ != 0
                           ? mem_limit_bytes_
                           : obs::DefaultQueryMemLimitBytes();
  if (mem_limit != 0) qctx.set_mem_limit_bytes(mem_limit);

  // The plan catalogue keys: the optimizer's learned statistics hang off
  // them, so they are computed in every build.
  std::vector<std::string> normalized(plans.size());
  std::vector<uint64_t> fingerprints(plans.size());
  for (size_t j = 0; j < plans.size(); ++j) {
    normalized[j] = obs::NormalizePlan(plans[j]);
    fingerprints[j] = obs::Fnv1a(normalized[j]);
  }
  qctx.set_fingerprint(fingerprints[0]);
  qctx.set_plan_text(normalized[0]);

  exec::ExecContext ctx;
  ctx.db = db_;
  ctx.pool = &exec::ThreadPool::Shared();
  ctx.threads = threads();
  ctx.trace = &trace_;
  ctx.query = &qctx;
  // Pin the read snapshot for the whole unit: every read path below
  // traverses this version lock-free; mutating operators re-snapshot as
  // they commit. The pinned epoch is part of the task descriptor.
  ctx.view = db_->store();
  uint64_t epoch_before = ctx.view.epoch();
  qctx.set_pinned_epoch(epoch_before);

  // Installed thread-locally for the matcher checkpoints and this query's
  // counters until the unit returns (the epilogue's counter adds are this
  // query's too). Registered in the live task table only while the plan
  // runs, so `\tasks`, `\kill` and the watchdog never see a finished
  // query. The query thread's CPU (its morsel share included) is measured
  // here once; helpers account for their own in the morsel scheduler.
  obs::Span wall(nullptr, "");  // pure scoped timer for the whole unit
  obs::QueryContext::Scope scope(&qctx);
  AQUA_OBS_COUNT("exec.executes", plans.size());
  Result<Datum> result = [&]() -> Result<Datum> {
    obs::TaskRegistry::Guard task(&qctx);
    uint64_t cpu0 = obs::QueryContext::ThreadCpuNs();
    obs::Span root_span(&trace_, "Execute");
    Result<Datum> r = [&]() -> Result<Datum> {
      AQUA_RETURN_IF_ERROR(root->Prepare(ctx));
      return root->Run(ctx);
    }();
    qctx.AddCpuNs(obs::QueryContext::ThreadCpuNs() - cpu0);
    // A cancelled fan-out can surface any status its morsels produced;
    // report the cancellation itself, which is what the caller asked for.
    if (!r.ok() && qctx.cancel_requested()) return qctx.CancelStatus();
    return r;
  }();
  uint64_t wall_ns = wall.ElapsedNs();

  // The one harvest of the unit's per-op records; ExecStats sums them.
  exec::CollectOpSamples(root, &op_samples_);
  for (const obs::OpSample& s : op_samples_) {
    stats_.operators_evaluated += s.calls;
    stats_.trees_processed += s.trees;
    stats_.lists_processed += s.lists;
    stats_.index_probes += s.probes;
    stats_.index_candidates += s.candidates;
  }
  stats_.query_id = qctx.id();
  stats_.cpu_ns = qctx.cpu_ns();
  stats_.mem_peak_bytes = qctx.mem_peak_bytes();

  // Mirror this execution's ExecStats into the registry (and so into this
  // query's counters) before those are copied out.
  AQUA_OBS_COUNT("exec.operators_evaluated", stats_.operators_evaluated);
  AQUA_OBS_COUNT("exec.trees_processed", stats_.trees_processed);
  AQUA_OBS_COUNT("exec.lists_processed", stats_.lists_processed);
  AQUA_OBS_RECORD("exec.execute_ns", wall_ns);
  // Store-version levels after this unit (OpenMetrics `\metrics`,
  // `\snapshot`): the epoch, how many versions and pins are alive, and the
  // COW bytes kept only for snapshots.
  const StoreLevels levels = db_->store().Levels();
  bool store_commit = levels.epoch != epoch_before;
  AQUA_OBS_GAUGE_SET("store.epoch", levels.epoch);
  AQUA_OBS_GAUGE_SET("store.versions_live", levels.versions_live);
  AQUA_OBS_GAUGE_SET("store.cow_copies", levels.cow_copies);
  AQUA_OBS_GAUGE_SET("store.snapshot_pins", levels.snapshot_pins);
  AQUA_OBS_GAUGE_SET("store.retained_bytes", levels.retained_bytes);
  last_query_counters_ = qctx.counters();

  // Plan catalogue, one row per member plan: this run's latency and
  // outcome. A single plan also folds its per-op observations
  // (cardinalities, candidates-per-probe, wall/CPU) into the learned
  // records the cost model reads back. Group members split the wall time
  // evenly and carry no op samples, so batching leaves the learned
  // statistics and plan choice as they are. A batch-fatal outcome is every
  // member's; otherwise each member's own result decides its row.
  const exec::BatchedPatternOp* batch =
      plans.size() > 1
          ? dynamic_cast<const exec::BatchedPatternOp*>(root.get())
          : nullptr;
  static const std::vector<obs::OpSample> kNoSamples;
  for (size_t j = 0; j < plans.size(); ++j) {
    StatusCode code = result.ok() && batch != nullptr
                          ? batch->plan_results()[j].status().code()
                          : result.status().code();
    if (batch != nullptr) {
      BatchedMember m{plans[j]};
      const Result<Datum>& r = batch->plan_results()[j];
      if (result.ok() && r.ok()) {
        m.out_rows = r->size();
        m.out_bytes = exec::ApproxDatumBytes(*r);
      }
      batch_members_.push_back(std::move(m));
    }
    obs::StatsWarehouse::Global().Record(
        fingerprints[j], normalized[j], wall_ns / plans.size(),
        qctx.mem_peak_bytes(), code, store_commit,
        batch == nullptr ? op_samples_ : kNoSamples);
  }

#ifndef AQUA_OBS_DISABLED
  if (obs::Registry::enabled()) {
    // Flight recorder: one structured event per unit, with this query's
    // counter highlights and the parallel-path shape.
    auto slot = [](const char* name) {
      return obs::Registry::Global().GetCounter(name)->slot();
    };
    static const size_t kTreeSteps = slot("pattern.tree_steps");
    static const size_t kListSteps = slot("pattern.list_steps");
    static const size_t kNodesVisited =
        slot("algebra.structural_nodes_visited");
    obs::FlightEvent ev;
    ev.kind = static_cast<uint32_t>(obs::FlightEventKind::kExecute);
    ev.ok = result.ok() ? 1 : 0;
    ev.fingerprint = fingerprints[0];
    ev.wall_ns = wall_ns;
    ev.threads = static_cast<uint32_t>(ctx.threads);
    ev.morsels = static_cast<uint32_t>(
        ctx.morsels_run.load(std::memory_order_relaxed));
    ev.max_morsel_ns = ctx.morsel_max_ns.load(std::memory_order_relaxed);
    ev.tree_steps = qctx.counter(kTreeSteps);
    ev.list_steps = qctx.counter(kListSteps);
    ev.index_probes = stats_.index_probes;
    ev.nodes_visited = qctx.counter(kNodesVisited);
    ev.query_id = qctx.id();
    ev.cpu_ns = qctx.cpu_ns();
    ev.mem_peak = qctx.mem_peak_bytes();
    ev.code = static_cast<uint32_t>(result.status().code());
    ev.pinned_epoch = static_cast<uint32_t>(qctx.pinned_epoch());
    obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
    recorder.Record(ev);

    // Slow-query log: full context (every member's plan, span tree when
    // tracing was on, this query's counters) for any unit at or above the
    // threshold.
    uint64_t threshold = recorder.slow_query_threshold_ns();
    if (threshold > 0 && wall_ns >= threshold) {
      std::string text;
      for (const PlanRef& p : plans) text += Explain(p);
      recorder.AppendSlowQuery(wall_ns, fingerprints[0], text,
                               trace_.ToTextReport(), last_counters());
    }
  }
#endif
  return result;
}

std::vector<Result<Datum>> Executor::ExecuteBatch(
    const std::vector<PlanRef>& plans) {
  std::vector<Result<Datum>> results(
      plans.size(), Result<Datum>(Status::Internal("not executed")));

  // Group batchable plans by their shared input. The digest fingerprint of
  // the child is the fast pre-key (constants are elided by normalization,
  // so two different scans can collide); `PlanEquals` is the structural
  // verification, constants included.
  struct Group {
    PlanOp op;
    uint64_t child_fp;
    std::vector<size_t> indices;
  };
  std::vector<Group> groups;
  std::vector<size_t> singles;
  for (size_t i = 0; i < plans.size(); ++i) {
    const PlanRef& p = plans[i];
    const bool batchable =
        p != nullptr &&
        (p->op == PlanOp::kListSubSelect || p->op == PlanOp::kTreeSubSelect) &&
        p->children.size() == 1 && p->children[0] != nullptr;
    if (!batchable) {
      singles.push_back(i);
      continue;
    }
    uint64_t fp = obs::FingerprintPlan(p->children[0]);
    bool placed = false;
    for (Group& g : groups) {
      if (g.op != p->op || g.child_fp != fp) continue;
      if (g.indices.size() >= 64) continue;  // chunk oversized groups
      if (!PlanEquals(p->children[0], plans[g.indices[0]]->children[0])) {
        continue;
      }
      g.indices.push_back(i);
      placed = true;
      break;
    }
    if (!placed) groups.push_back(Group{p->op, fp, {i}});
  }

  for (const Group& g : groups) {
    if (g.indices.size() < 2) {
      singles.push_back(g.indices[0]);
      continue;
    }
    ExecuteGroup(plans, g.indices, &results);
  }
  for (size_t i : singles) results[i] = Execute(plans[i]);
  return results;
}

void Executor::ExecuteGroup(const std::vector<PlanRef>& plans,
                            const std::vector<size_t>& indices,
                            std::vector<Result<Datum>>* out) {
  // Lint-gate each member individually: a refused plan gets its refusal as
  // its result and leaves the group; the rest still batch when >= 2 remain.
  std::vector<PlanRef> group;
  std::vector<size_t> members;
  for (size_t i : indices) {
    Status gate = LintGate(plans[i]);
    if (!gate.ok()) {
      (*out)[i] = gate;
      continue;
    }
    group.push_back(plans[i]);
    members.push_back(i);
  }
  std::shared_ptr<exec::BatchedPatternOp> root =
      group.size() >= 2 ? exec::CompileBatch(group) : nullptr;
  if (root == nullptr) {
    for (size_t i : members) {
      (*out)[i] = RunUnit(exec::Compile(plans[i]), {&plans[i], 1});
    }
    return;
  }

  // One scan answers every member. Batch-fatal outcomes (shared-input
  // failure, item type error, cancellation, deadline) apply to every
  // member — a standalone Execute of each would have failed the same way.
  // Otherwise each member takes its own per-plan result.
  Result<Datum> run = RunUnit(root, group);
  for (size_t j = 0; j < group.size(); ++j) {
    (*out)[members[j]] =
        run.ok() ? root->plan_results()[j] : Result<Datum>(run.status());
  }
}

namespace {

/// One estimated-rows figure per plan node, from the stats-informed cost
/// model. Nodes the model cannot estimate (e.g. set ops outside its
/// heuristics, or a missing collection) simply carry no estimate.
void CollectEstimates(const CostModel& model, const PlanRef& node,
                      std::map<const PlanNode*, double>* ests) {
  if (node == nullptr) return;
  Result<CostEstimate> est = model.Estimate(node);
  if (est.ok()) (*ests)[node.get()] = est->out_nodes;
  for (const PlanRef& child : node->children) {
    CollectEstimates(model, child, ests);
  }
}

/// Gives every node of `member` the figures of its counterpart in `lead`
/// (two structurally equal subplans; the group ran only the lead's).
void AliasSamples(const PlanRef& lead, const PlanRef& member,
                  std::map<const PlanNode*, obs::OpSample>* ops) {
  if (lead == nullptr || member == nullptr || lead == member) return;
  auto it = ops->find(lead.get());
  if (it != ops->end()) (*ops)[member.get()] = it->second;
  for (size_t i = 0;
       i < lead->children.size() && i < member->children.size(); ++i) {
    AliasSamples(lead->children[i], member->children[i], ops);
  }
}

/// `batched` (may be empty) prefixes the root's figures, e.g. "batched 2/8, ".
void RenderAnalyzed(const PlanRef& node,
                    const std::map<const PlanNode*, obs::OpSample>& ops,
                    const std::map<const PlanNode*, double>& ests,
                    const std::string& batched, size_t indent,
                    std::string* out) {
  out->append(indent * 2, ' ');
  if (node == nullptr) {
    *out += "(null)\n";
    return;
  }
  *out += DescribeNode(*node);
  auto it = ops.find(node.get());
  if (it != ops.end()) {
    const obs::OpSample& op = it->second;
    char buf[144];
    *out += "  (" + batched;
    std::snprintf(buf, sizeof(buf),
                  "%" PRIu64 " call%s, %.3f ms, out=%" PRIu64
                  ", cpu=%.3f ms, bytes~%" PRIu64,
                  op.calls, op.calls == 1 ? "" : "s", op.wall_ns / 1e6,
                  op.out_rows, op.cpu_ns / 1e6, op.out_bytes);
    *out += buf;
    auto est_it = ests.find(node.get());
    if (est_it != ests.end()) {
      // Q-error: the symmetric misestimation factor, +1-smoothed so empty
      // outputs compare cleanly. 1.00 = perfect.
      double est = est_it->second;
      double act = static_cast<double>(op.out_rows);
      double q = std::max((est + 1.0) / (act + 1.0), (act + 1.0) / (est + 1.0));
      std::snprintf(buf, sizeof(buf), ", est=%.0f, act=%.0f, q=%.2f", est,
                    act, q);
      *out += buf;
    }
    *out += ")";
  } else {
    *out += "  (not executed)";
  }
  *out += "\n";
  for (const PlanRef& child : node->children) {
    RenderAnalyzed(child, ops, ests, "", indent + 1, out);
  }
}

}  // namespace

const obs::Snapshot& Executor::last_counters() const {
  if (!last_counters_) {
    last_counters_ = obs::Registry::Global().ForQuery(last_query_counters_);
  }
  return *last_counters_;
}

std::string Executor::ExplainAnalyze(const PlanRef& plan) const {
  std::map<const PlanNode*, double> ests;
  CostModel model(db_, &obs::StatsWarehouse::Global());
  CollectEstimates(model, plan, &ests);
  // A plan node shared between two parents compiles to two physical ops;
  // their figures are summed (the last output's cardinality is kept).
  std::map<const PlanNode*, obs::OpSample> ops;
  for (const obs::OpSample& s : op_samples_) {
    obs::OpSample& sum = ops[s.node];
    sum.calls += s.calls;
    sum.wall_ns += s.wall_ns;
    sum.cpu_ns += s.cpu_ns;
    sum.out_bytes += s.out_bytes;
    sum.out_rows = s.out_rows;
  }
  // A group member: the group op (compiled from the lead plan) stands for
  // its root, with the member's own output; its input is the lead's.
  std::string batched;
  for (size_t j = 0; j < batch_members_.size(); ++j) {
    const BatchedMember& m = batch_members_[j];
    if (m.plan != plan) continue;
    const PlanRef& lead = batch_members_[0].plan;
    AliasSamples(lead, plan, &ops);
    obs::OpSample& root = ops[plan.get()];
    root.out_rows = m.out_rows;
    root.out_bytes = m.out_bytes;
    batched = "batched " + std::to_string(j + 1) + "/" +
              std::to_string(batch_members_.size()) + ", ";
    break;
  }
  std::string out;
  RenderAnalyzed(plan, ops, ests, batched, 0, &out);
  return out;
}

}  // namespace aqua
