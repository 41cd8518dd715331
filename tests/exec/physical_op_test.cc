#include "exec/physical_op.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/compile.h"
#include "obs/digest.h"
#include "exec/thread_pool.h"
#include "query/builder.h"
#include "query/executor.h"
#include "test_util.h"

namespace aqua {
namespace {

class PhysicalOpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(RegisterItemType(db_.store()));
    atom_ = MakeInterningAtomFn(&db_.store(), "Item", "name");
    label_ = AttrLabelFn(&db_.store(), "name");
    ASSERT_OK_AND_ASSIGN(Tree t,
                         ParseTreeLiteral("r(b(d e) x(b(d f)))", atom_));
    ASSERT_OK(db_.RegisterTree("t", std::move(t)));
    ASSERT_OK_AND_ASSIGN(List l, ParseListLiteral("[a x a y]", atom_));
    ASSERT_OK(db_.RegisterList("l", std::move(l)));
  }

  TreePatternRef TP(const std::string& p) {
    auto tp = ParseTreePattern(p);
    EXPECT_TRUE(tp.ok()) << tp.status().ToString();
    return tp.ok() ? *tp : nullptr;
  }
  AnchoredListPattern LP(const std::string& p) {
    auto lp = ParseListPattern(p);
    EXPECT_TRUE(lp.ok()) << lp.status().ToString();
    return lp.ok() ? *lp : AnchoredListPattern{};
  }
  PredicateRef P(const std::string& p) {
    auto pred = ParsePredicate(p);
    EXPECT_TRUE(pred.ok()) << pred.status().ToString();
    return pred.ok() ? *pred : nullptr;
  }
  std::string Str(const Datum& d) { return d.ToString(label_); }

  /// A plan whose fan-out input is a set of two trees (the two `b(d ?)`
  /// match pieces), so TreeSelect maps over a real forest.
  PlanRef ForestFanOut() {
    return Q::TreeSelect(Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)")),
                         P("name != \"zzz\""));
  }

  Database db_;
  AtomFn atom_;
  LabelFn label_;
};

TEST_F(PhysicalOpTest, CompileNeverReturnsNull) {
  auto op = exec::Compile(nullptr);
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->plan(), nullptr);

  exec::ExecContext ctx;
  ctx.db = &db_;
  auto r = op->Run(ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  // The null op does not count as an evaluated operator (interpreter parity).
  EXPECT_EQ(ctx.operators_evaluated.load(), 0u);
}

TEST_F(PhysicalOpTest, CompiledTreeMirrorsPlanShape) {
  auto plan = Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)"));
  auto op = exec::Compile(plan);
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->plan(), plan.get());
  ASSERT_EQ(op->children().size(), 1u);
  EXPECT_EQ(op->children()[0]->plan(), plan->children[0].get());
}

TEST_F(PhysicalOpTest, RunRecordsPerOpMeasurements) {
  auto plan = Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)"));
  auto op = exec::Compile(plan);
  exec::ExecContext ctx;
  ctx.db = &db_;
  ASSERT_OK(op->Prepare(ctx));
  ASSERT_OK_AND_ASSIGN(Datum out, op->Run(ctx));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(op->invocations(), 1u);
  EXPECT_EQ(op->last_output_size(), 2u);
  EXPECT_EQ(op->children()[0]->invocations(), 1u);
  EXPECT_EQ(ctx.operators_evaluated.load(), 2u);
}

// Regression: every ExecStats field and the per-op tables must be reset at
// the top of Execute, so stats always describe the *last* call only.
TEST_F(PhysicalOpTest, ExecStatsResetBetweenExecutes) {
  Executor exec(&db_);
  auto tree_plan = Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)"));
  ASSERT_OK(exec.Execute(tree_plan).status());
  EXPECT_GT(exec.stats().operators_evaluated, 0u);
  EXPECT_GT(exec.stats().trees_processed, 0u);
  EXPECT_EQ(exec.stats().lists_processed, 0u);

  // A list-only query afterwards must not inherit the tree counters.
  auto list_plan = Q::ListSelect(Q::ScanList("l"), P("name == \"a\""));
  ASSERT_OK(exec.Execute(list_plan).status());
  EXPECT_EQ(exec.stats().trees_processed, 0u);
  EXPECT_GT(exec.stats().lists_processed, 0u);
  EXPECT_EQ(exec.stats().index_probes, 0u);
  EXPECT_EQ(exec.stats().index_candidates, 0u);

  // Per-op stats follow the same rule: the old plan now renders unexecuted.
  std::string analyzed = exec.ExplainAnalyze(tree_plan);
  EXPECT_NE(analyzed.find("(not executed)"), std::string::npos);

  // A failing Execute also resets: no stale counts survive the error.
  ASSERT_FALSE(exec.Execute(Q::ScanTree("missing")).ok());
  EXPECT_EQ(exec.stats().lists_processed, 0u);
  EXPECT_EQ(exec.stats().trees_processed, 0u);
}

TEST_F(PhysicalOpTest, ParallelFanOutMatchesSerialByteForByte) {
  auto plan = ForestFanOut();
  Executor serial(&db_);
  serial.set_threads(1);
  ASSERT_OK_AND_ASSIGN(Datum want, serial.Execute(plan));

  Executor parallel(&db_);
  parallel.set_threads(4);
  ASSERT_OK_AND_ASSIGN(Datum got, parallel.Execute(plan));
  EXPECT_EQ(Str(got), Str(want));
}

TEST_F(PhysicalOpTest, ParallelFanOutEmitsMorselSpans) {
  Executor exec(&db_);
  exec.set_threads(4);
  exec.set_trace_enabled(true);
  obs::Snapshot before = obs::Registry::Global().Snap();
  ASSERT_OK(exec.Execute(ForestFanOut()).status());
  obs::Snapshot window = obs::Registry::Global().Snap().DeltaSince(before);

  // The fan-out (TreeSelect over 2 match pieces) runs morsel-parallel; its
  // per-morsel span buffers are stitched under the TreeSelect span.
  const auto& spans = exec.trace().spans();
  size_t select_idx = obs::SpanRecord::kNoParent;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "TreeSelect") select_idx = i;
  }
  ASSERT_NE(select_idx, obs::SpanRecord::kNoParent);
  size_t morsels = 0;
  for (const auto& s : spans) {
    if (s.name == "Morsel") {
      ++morsels;
      EXPECT_EQ(s.parent, select_idx);
    }
  }
  EXPECT_GE(morsels, 2u);

#ifndef AQUA_OBS_DISABLED
  // Morsel counters surface in this execution's counters, morsel
  // durations in the process histogram over the execute (the metric
  // macros expand to nothing when observability is compiled out).
  EXPECT_GE(exec.last_counters().CounterValue("exec.tasks_run"), 2u);
  EXPECT_TRUE(exec.last_counters().histograms.empty());
  bool saw_morsel_ms = false;
  for (const auto& h : window.histograms) {
    if (h.name == "exec.morsel_ms" && h.count > 0) saw_morsel_ms = true;
  }
  EXPECT_TRUE(saw_morsel_ms);
#endif
}

TEST_F(PhysicalOpTest, SerialExecutionEmitsNoMorselSpans) {
  Executor exec(&db_);
  exec.set_threads(1);
  exec.set_trace_enabled(true);
  ASSERT_OK(exec.Execute(ForestFanOut()).status());
  for (const auto& s : exec.trace().spans()) {
    EXPECT_NE(s.name, "Morsel");
  }
  EXPECT_EQ(exec.last_counters().CounterValue("exec.tasks_run"), 0u);
}

TEST_F(PhysicalOpTest, ListSubSelectSharesNfaAcrossWorkers) {
  // Nested list sub_select: the inner one produces a set of sublists, the
  // outer fans out over them with one per-worker lazy DFA over a shared
  // search NFA (compiled once in Prepare).
  auto plan = Q::ListSubSelect(Q::ListSubSelect(Q::ScanList("l"), LP("? ?")),
                               LP("a"));
  Executor serial(&db_);
  serial.set_threads(1);
  ASSERT_OK_AND_ASSIGN(Datum want, serial.Execute(plan));
  ASSERT_TRUE(want.is_set());

  Executor parallel(&db_);
  parallel.set_threads(4);
  ASSERT_OK_AND_ASSIGN(Datum got, parallel.Execute(plan));
  EXPECT_EQ(Str(got), Str(want));
}

TEST_F(PhysicalOpTest, ParallelErrorMatchesSerialError) {
  // Map a tree operator over a set that contains non-tree items: the error
  // text must be the serial one regardless of thread count.
  auto bad = Q::TreeSubSelect(Q::ListSubSelect(Q::ScanList("l"), LP("? ?")),
                              TP("b(d ?)"));
  Executor serial(&db_);
  serial.set_threads(1);
  Status want = serial.Execute(bad).status();
  ASSERT_FALSE(want.ok());

  Executor parallel(&db_);
  parallel.set_threads(4);
  Status got = parallel.Execute(bad).status();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.ToString(), want.ToString());
}

TEST_F(PhysicalOpTest, ExplainAnalyzeCountsOncePerExecute) {
  // Ops are compiled fresh per Execute, so invocation counts never
  // accumulate across calls.
  Executor exec(&db_);
  auto plan = Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)"));
  ASSERT_OK(exec.Execute(plan).status());
  ASSERT_OK(exec.Execute(plan).status());
  std::string analyzed = exec.ExplainAnalyze(plan);
  EXPECT_NE(analyzed.find("(1 call,"), std::string::npos);
  EXPECT_EQ(analyzed.find("2 calls"), std::string::npos);
}

TEST_F(PhysicalOpTest, CollectOpSamplesWalksPreorderWithStablePaths) {
  // select(sub_select(scan)) -> paths 0, 0.0, 0.0.0 in preorder.
  auto plan = ForestFanOut();
  auto op = exec::Compile(plan);
  exec::ExecContext ctx;
  ctx.db = &db_;
  ASSERT_OK(op->Run(ctx).status());

  std::vector<obs::OpSample> samples;
  exec::CollectOpSamples(op, &samples);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].path, "0");
  EXPECT_EQ(samples[0].op_name, std::string("TreeSelect"));
  EXPECT_EQ(samples[1].path, "0.0");
  EXPECT_EQ(samples[1].op_name, std::string("TreeSubSelect"));
  EXPECT_EQ(samples[2].path, "0.0.0");
  EXPECT_EQ(samples[2].op_name, std::string("ScanTree"));
  // Each sample's node fingerprint is the fingerprint of its subplan.
  EXPECT_EQ(samples[0].node_fp, obs::FingerprintPlan(plan));
  EXPECT_EQ(samples[1].node_fp, obs::FingerprintPlan(plan->children[0]));
  // in_rows chains outputs: scan emits 8 nodes, sub_select keeps 2 trees.
  EXPECT_EQ(samples[2].out_rows, 8u);
  EXPECT_EQ(samples[1].in_rows, 8u);
  EXPECT_EQ(samples[1].out_rows, 2u);
  EXPECT_EQ(samples[1].in_rows, samples[2].out_rows);
  EXPECT_EQ(samples[0].in_rows, samples[1].out_rows);
  EXPECT_EQ(samples[0].calls, 1u);
  EXPECT_EQ(samples[0].probes, 0u);  // nothing indexed in this plan
}

TEST_F(PhysicalOpTest, CollectOpSamplesSkipsNeverRanOps) {
  auto plan = Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)"));
  auto op = exec::Compile(plan);
  std::vector<obs::OpSample> samples;
  exec::CollectOpSamples(op, &samples);
  EXPECT_TRUE(samples.empty());  // compiled but never executed
}

TEST_F(PhysicalOpTest, IndexedProbeAttributesCandidatesToItsOp) {
  ASSERT_OK(db_.CreateIndex("t", "name"));
  auto tp = TP("{name == \"b\"}(?*)");
  auto plan = Q::IndexedSubSelect("t", "name", P("name == \"b\""), tp);
  auto op = exec::Compile(plan);
  exec::ExecContext ctx;
  ctx.db = &db_;
  ASSERT_OK(op->Run(ctx).status());

  std::vector<obs::OpSample> samples;
  exec::CollectOpSamples(op, &samples);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_GE(samples[0].probes, 1u);
  EXPECT_EQ(samples[0].candidates, 2u);   // two b-labeled anchors
  EXPECT_EQ(samples[0].in_rows, 2u);      // probe consumes its candidates
}

}  // namespace
}  // namespace aqua
