#include "query/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "exec/physical_op.h"
#include "obs/digest.h"
#include "obs/recorder.h"
#include "query/builder.h"
#include "test_util.h"

namespace aqua {
namespace {

class ExecutorTest : public ::testing::Test {
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

  Database db_;
  AtomFn atom_;
  LabelFn label_;
};

TEST_F(ExecutorTest, ScanReturnsCollection) {
  Executor exec(&db_);
  ASSERT_OK_AND_ASSIGN(Datum tree, exec.Execute(Q::ScanTree("t")));
  EXPECT_TRUE(tree.is_tree());
  ASSERT_OK_AND_ASSIGN(Datum list, exec.Execute(Q::ScanList("l")));
  EXPECT_TRUE(list.is_list());
  EXPECT_TRUE(
      exec.Execute(Q::ScanTree("missing")).status().IsNotFound());
  // A tree name is not a list name.
  EXPECT_TRUE(exec.Execute(Q::ScanList("t")).status().IsNotFound());
}

TEST_F(ExecutorTest, ScanSharesTheRegisteredCollection) {
  Datum tree;
  Datum list;
  {
    Executor exec(&db_);
    ASSERT_OK_AND_ASSIGN(tree, exec.Execute(Q::ScanTree("t")));
    ASSERT_OK_AND_ASSIGN(list, exec.Execute(Q::ScanList("l")));
    ASSERT_OK_AND_ASSIGN(const Tree* registered_tree, db_.GetTree("t"));
    ASSERT_OK_AND_ASSIGN(const List* registered_list, db_.GetList("l"));
    // No copy: the result aliases the registered collection.
    EXPECT_EQ(&tree.tree(), registered_tree);
    EXPECT_EQ(&list.list(), registered_list);
    ASSERT_OK_AND_ASSIGN(Datum again, exec.Execute(Q::ScanTree("t")));
    EXPECT_EQ(&again.tree(), registered_tree);
  }
  // The executor is gone; the results stay valid.
  EXPECT_EQ(Str(tree), "r(b(d e) x(b(d f)))");
  EXPECT_EQ(Str(list), "[a x a y]");
}

TEST_F(ExecutorTest, ScanResultOutlivesTheDatabase) {
  Datum tree;
  {
    Database db;
    ASSERT_OK(RegisterItemType(db.store()));
    AtomFn atom = MakeInterningAtomFn(&db.store(), "Item", "name");
    ASSERT_OK_AND_ASSIGN(Tree t, ParseTreeLiteral("r(a b(c))", atom));
    ASSERT_OK(db.RegisterTree("t", std::move(t)));
    Executor exec(&db);
    ASSERT_OK_AND_ASSIGN(tree, exec.Execute(Q::ScanTree("t")));
  }
  // The datum holds its own reference to the collection.
  ASSERT_TRUE(tree.is_tree());
  EXPECT_EQ(tree.tree().size(), 4u);
  EXPECT_EQ(tree.tree().arity(tree.tree().root()), 2u);
}

TEST_F(ExecutorTest, TreeSubSelectOverScan) {
  Executor exec(&db_);
  ASSERT_OK_AND_ASSIGN(Datum out,
                       exec.Execute(Q::TreeSubSelect(Q::ScanTree("t"),
                                                     TP("b(d ?)"))));
  ASSERT_TRUE(out.is_set());
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(ExecutorTest, OperatorsMapOverForestInputs) {
  // select produces a forest; sub_select then maps over it.
  Executor exec(&db_);
  auto plan = Q::TreeSubSelect(
      Q::TreeSelect(Q::ScanTree("t"), P("name != \"r\"")), TP("b(d ?)"));
  ASSERT_OK_AND_ASSIGN(Datum out, exec.Execute(plan));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_GE(exec.stats().trees_processed, 2u);
}

TEST_F(ExecutorTest, TreeSelectProducesForestSet) {
  Executor exec(&db_);
  ASSERT_OK_AND_ASSIGN(
      Datum out,
      exec.Execute(Q::TreeSelect(Q::ScanTree("t"), P("name == \"b\""))));
  ASSERT_TRUE(out.is_set());
  EXPECT_EQ(out.size(), 1u);  // two identical b-trees collapse in a set
}

TEST_F(ExecutorTest, TreeApplyOverScan) {
  Executor exec(&db_);
  NodeFn fn = [](ObjectStore& store, Oid oid) -> Result<Oid> {
    AQUA_ASSIGN_OR_RETURN(Value name, store.GetAttr(oid, "name"));
    return store.Create("Item",
                        {{"name", Value::String(name.string_value() + "!")},
                         {"val", Value::Null()}});
  };
  ASSERT_OK_AND_ASSIGN(Datum out,
                       exec.Execute(Q::TreeApply(Q::ScanTree("t"), fn)));
  ASSERT_TRUE(out.is_tree());
  EXPECT_EQ(Str(out), "r!(b!(d! e!) x!(b!(d! f!)))");
}

TEST_F(ExecutorTest, TreeSplitPlan) {
  Executor exec(&db_);
  SplitFn fn = [](const Tree& x, const Tree& y,
                  const std::vector<Tree>& z) -> Result<Datum> {
    (void)x;
    (void)z;
    return Datum::Scalar(Value::Int(static_cast<int64_t>(y.size())));
  };
  ASSERT_OK_AND_ASSIGN(
      Datum out, exec.Execute(Q::TreeSplit(Q::ScanTree("t"), TP("b"), fn)));
  ASSERT_TRUE(out.is_set());
  ASSERT_EQ(out.size(), 1u);  // both matches give y of size 3 (b + 2 cuts)
  EXPECT_EQ(out.at(0).scalar().int_value(), 3);
}

TEST_F(ExecutorTest, AllAncAllDescPlans) {
  Executor exec(&db_);
  AncFn anc = [](const Tree& x, const Tree& y) -> Result<Datum> {
    return Datum::Tuple({Datum::Of(x), Datum::Of(y)});
  };
  ASSERT_OK_AND_ASSIGN(
      Datum anc_out,
      exec.Execute(Q::TreeAllAnc(Q::ScanTree("t"), TP("d"), anc)));
  EXPECT_EQ(anc_out.size(), 2u);

  DescFn desc = [](const Tree& y, const std::vector<Tree>& z) -> Result<Datum> {
    return Datum::Tuple(
        {Datum::Of(y), Datum::Scalar(Value::Int(static_cast<int64_t>(
                           z.size())))});
  };
  ASSERT_OK_AND_ASSIGN(
      Datum desc_out,
      exec.Execute(Q::TreeAllDesc(Q::ScanTree("t"), TP("b"), desc)));
  EXPECT_EQ(desc_out.size(), 1u);
}

TEST_F(ExecutorTest, IndexedSubSelectPlan) {
  ASSERT_OK(db_.CreateIndex("t", "name"));
  Executor exec(&db_);
  auto plan = Q::IndexedSubSelect("t", "name", P("name == \"b\""),
                                  TP("b(d ?)"));
  ASSERT_OK_AND_ASSIGN(Datum indexed, exec.Execute(plan));
  EXPECT_EQ(exec.stats().index_probes, 1u);
  EXPECT_EQ(exec.stats().index_candidates, 2u);

  Executor exec2(&db_);
  ASSERT_OK_AND_ASSIGN(
      Datum naive,
      exec2.Execute(Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)"))));
  EXPECT_TRUE(indexed.Equals(naive));
}

TEST_F(ExecutorTest, ListPlans) {
  Executor exec(&db_);
  ASSERT_OK_AND_ASSIGN(
      Datum filtered,
      exec.Execute(Q::ListSelect(Q::ScanList("l"), P("name == \"a\""))));
  ASSERT_TRUE(filtered.is_list());
  EXPECT_EQ(filtered.list().size(), 2u);

  ASSERT_OK_AND_ASSIGN(
      Datum sub, exec.Execute(Q::ListSubSelect(Q::ScanList("l"), LP("a ?"))));
  ASSERT_TRUE(sub.is_set());
  EXPECT_EQ(sub.size(), 2u);  // [a x] and [a y]

  ListSplitFn fn = [](const List& x, const List& y,
                      const std::vector<List>& z) -> Result<Datum> {
    (void)x;
    (void)z;
    return Datum::Scalar(Value::Int(static_cast<int64_t>(y.size())));
  };
  ASSERT_OK_AND_ASSIGN(
      Datum split,
      exec.Execute(Q::ListSplit(Q::ScanList("l"), LP("^a"), fn)));
  EXPECT_EQ(split.size(), 1u);

  ListNodeFn map = [](ObjectStore&, Oid oid) -> Result<Oid> { return oid; };
  ASSERT_OK_AND_ASSIGN(Datum mapped,
                       exec.Execute(Q::ListApply(Q::ScanList("l"), map)));
  EXPECT_TRUE(mapped.is_list());
}

TEST_F(ExecutorTest, ListAllAncAllDescPlans) {
  Executor exec(&db_);
  ListAncFn anc = [](const List& x, const List& y) -> Result<Datum> {
    return Datum::Tuple({Datum::Of(x), Datum::Of(y)});
  };
  ASSERT_OK_AND_ASSIGN(
      Datum anc_out,
      exec.Execute(Q::ListAllAnc(Q::ScanList("l"), LP("y$"), anc)));
  EXPECT_EQ(anc_out.size(), 1u);

  ListDescFn desc = [](const List& y,
                       const std::vector<List>& z) -> Result<Datum> {
    return Datum::Tuple({Datum::Of(y), Datum::Scalar(Value::Int(
                                           static_cast<int64_t>(z.size())))});
  };
  ASSERT_OK_AND_ASSIGN(
      Datum desc_out,
      exec.Execute(Q::ListAllDesc(Q::ScanList("l"), LP("^a"), desc)));
  EXPECT_EQ(desc_out.size(), 1u);
}

TEST_F(ExecutorTest, IndexedListSubSelectPlan) {
  ASSERT_OK(db_.CreateIndex("l", "name"));
  Executor exec(&db_);
  auto plan = Q::IndexedListSubSelect("l", "name", P("name == \"a\""),
                                      LP("a ?"));
  ASSERT_OK_AND_ASSIGN(Datum indexed, exec.Execute(plan));
  EXPECT_EQ(exec.stats().index_probes, 1u);
  Executor exec2(&db_);
  ASSERT_OK_AND_ASSIGN(
      Datum naive, exec2.Execute(Q::ListSubSelect(Q::ScanList("l"),
                                                  LP("a ?"))));
  EXPECT_TRUE(indexed.Equals(naive));
}

TEST_F(ExecutorTest, ExplainAnalyzeAnnotatesExecutedPlan) {
  Executor exec(&db_);
  auto plan = Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)"));
  ASSERT_OK(exec.Execute(plan).status());
  std::string analyzed = exec.ExplainAnalyze(plan);
  EXPECT_NE(analyzed.find("TreeSubSelect"), std::string::npos);
  EXPECT_NE(analyzed.find("1 call"), std::string::npos);
  EXPECT_NE(analyzed.find("ms"), std::string::npos);
  EXPECT_NE(analyzed.find("out=2"), std::string::npos) << analyzed;
  // A different (unexecuted) plan renders as not executed.
  auto other = Q::ScanTree("t");
  EXPECT_NE(exec.ExplainAnalyze(other).find("not executed"),
            std::string::npos);
}

TEST_F(ExecutorTest, ExplainAnalyzeShowsEstimateActualAndQError) {
  Executor exec(&db_);
  auto plan = Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)"));
  ASSERT_OK(exec.Execute(plan).status());
  std::string analyzed = exec.ExplainAnalyze(plan);
  // Every estimatable executed op carries est-vs-actual with its Q-error.
  EXPECT_NE(analyzed.find("est="), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("act="), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("q="), std::string::npos) << analyzed;
  // The scan is estimated exactly: est == act == 8 nodes, q == 1.00.
  EXPECT_NE(analyzed.find("est=8, act=8, q=1.00"), std::string::npos)
      << analyzed;
}

TEST_F(ExecutorTest, ExplainAnalyzeRendersEveryBatchedMember) {
  // After a batched group, each member renders with its own result size
  // and a batched mark, not the group operator's placeholder output, and
  // the second member is executed too (its input is the shared scan).
  Executor exec(&db_);
  auto first = Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)"));
  auto second = Q::TreeSubSelect(Q::ScanTree("t"), TP("x"));
  std::vector<Result<Datum>> out = exec.ExecuteBatch({first, second});
  ASSERT_OK(out[0]);
  ASSERT_OK(out[1]);
  ASSERT_EQ(out[0]->size(), 2u);
  ASSERT_EQ(out[1]->size(), 1u);
  const std::string a = exec.ExplainAnalyze(first);
  const std::string b = exec.ExplainAnalyze(second);
  EXPECT_NE(a.find("(batched 1/2, 1 call, "), std::string::npos) << a;
  EXPECT_NE(a.find("out=2, "), std::string::npos) << a;
  EXPECT_NE(a.find("act=2, "), std::string::npos) << a;
  EXPECT_NE(b.find("(batched 2/2, 1 call, "), std::string::npos) << b;
  EXPECT_NE(b.find("out=1, "), std::string::npos) << b;
  EXPECT_EQ(b.find("not executed"), std::string::npos) << b;
  // Both render the one shared scan of the 8-node tree.
  for (const std::string& text : {a, b}) {
    EXPECT_NE(text.find("ScanTree [t]  (1 call, "), std::string::npos)
        << text;
    EXPECT_NE(text.find("out=8, "), std::string::npos) << text;
  }
  // A plain Execute afterwards renders unbatched again.
  ASSERT_OK(exec.Execute(second).status());
  EXPECT_EQ(exec.ExplainAnalyze(second).find("batched"), std::string::npos);
}

TEST_F(ExecutorTest, ExecuteHarvestsPerOpRowsIntoStatsWarehouse) {
  obs::StatsWarehouse& wh = obs::StatsWarehouse::Global();
  wh.Reset();
  Executor exec(&db_);
  auto plan = Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)"));
  ASSERT_OK(exec.Execute(plan).status());

  uint64_t fp = obs::FingerprintPlan(plan);
  std::vector<obs::OpStatsRow> rows = wh.Row(fp).ops;
  ASSERT_EQ(rows.size(), 2u);  // sub_select + scan, preorder paths
  EXPECT_EQ(rows[0].path, "0");
  EXPECT_EQ(rows[1].path, "0.0");
  EXPECT_EQ(rows[0].calls, 1u);
  // Scan emitted 8 nodes into the sub_select, which kept 2 subtrees.
  EXPECT_DOUBLE_EQ(rows[1].out_rows, 8.0);
  EXPECT_DOUBLE_EQ(rows[0].in_rows, 8.0);
  EXPECT_DOUBLE_EQ(rows[0].out_rows, 2.0);
  EXPECT_NEAR(rows[0].selectivity, 2.0 / 8.0, 1e-9);

  // A second run of the same shape folds into the same rows.
  ASSERT_OK(exec.Execute(plan).status());
  EXPECT_EQ(wh.Row(fp).calls, 2u);
  rows = wh.Row(fp).ops;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].calls, 2u);

  // The learned index answers by subplan fingerprint.
  double sel = 0;
  uint64_t calls = 0;
  ASSERT_TRUE(wh.LearnedSelectivity(fp, &sel, &calls));
  EXPECT_EQ(calls, 2u);
  EXPECT_NEAR(sel, 2.0 / 8.0, 1e-9);
  wh.Reset();
}

TEST_F(ExecutorTest, PerOperatorStatsResetEachExecute) {
  Executor exec(&db_);
  auto plan = Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)"));
  ASSERT_OK(exec.Execute(plan).status());
  ASSERT_OK(exec.Execute(plan).status());
  // Stats describe the most recent Execute only: 1 call each, not 2.
  std::string analyzed = exec.ExplainAnalyze(plan);
  EXPECT_NE(analyzed.find("(1 call,"), std::string::npos) << analyzed;
  EXPECT_EQ(analyzed.find("2 calls"), std::string::npos) << analyzed;
  // Executing a different plan drops the previous plan's annotations
  // and aggregate stats.
  ASSERT_OK(exec.Execute(Q::ScanList("l")).status());
  EXPECT_NE(exec.ExplainAnalyze(plan).find("not executed"),
            std::string::npos);
  EXPECT_EQ(exec.stats().operators_evaluated, 1u);
}

TEST_F(ExecutorTest, ExplainAnalyzeKeepsBytesOfConsumedOps) {
  // The scan's output is consumed by the sub_select, which releases its
  // live memory charge; the reported bytes must stay.
  Executor scan_exec(&db_);
  ASSERT_OK_AND_ASSIGN(Datum scanned, scan_exec.Execute(Q::ScanTree("t")));
  const std::string want =
      "bytes~" + std::to_string(exec::ApproxDatumBytes(scanned)) + ",";

  Executor exec(&db_);
  auto plan = Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)"));
  ASSERT_OK(exec.Execute(plan).status());
  std::string analyzed = exec.ExplainAnalyze(plan);
  size_t scan = analyzed.find("ScanTree");
  ASSERT_NE(scan, std::string::npos) << analyzed;
  std::string scan_line =
      analyzed.substr(scan, analyzed.find('\n', scan) - scan);
  EXPECT_NE(scan_line.find(want), std::string::npos) << analyzed;
}

TEST_F(ExecutorTest, ExecStatsDoNotDependOnTheRegistry) {
  // ExecStats are summed from the per-op records, so they are the same
  // whether the metrics registry counts or not (and in a build with the
  // obs macros compiled out).
  ASSERT_OK(db_.CreateIndex("t", "name"));
  ASSERT_OK(db_.CreateIndex("l", "name"));
  PlanRef tree_in =
      Q::IndexedSubSelect("t", "name", P("name == \"b\""), TP("b(?*)"));
  PlanRef list_in =
      Q::IndexedListSubSelect("l", "name", P("name == \"a\""), LP("a ?"));
  auto run_all = [&]() {
    std::vector<ExecStats> out;
    Executor exec(&db_);
    exec.set_threads(2);
    auto execute = [&](const PlanRef& plan) {
      EXPECT_OK(exec.Execute(plan).status());
      out.push_back(exec.stats());
    };
    auto batch = [&](const std::vector<PlanRef>& plans) {
      for (const Result<Datum>& r : exec.ExecuteBatch(plans)) EXPECT_OK(r);
      out.push_back(exec.stats());
    };
    execute(Q::TreeSelect(Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)")),
                          P("name != \"zzz\"")));
    execute(tree_in);
    execute(list_in);
    batch({Q::TreeSubSelect(tree_in, TP("d")),
           Q::TreeSubSelect(tree_in, TP("b(d f)"))});
    batch({Q::ListSubSelect(list_in, LP("a")),
           Q::ListSubSelect(list_in, LP("? y"))});
    return out;
  };
  obs::Registry::set_enabled(false);
  std::vector<ExecStats> off = run_all();
  obs::Registry::set_enabled(true);
  std::vector<ExecStats> on = run_all();

  ASSERT_EQ(off.size(), 5u);
  ASSERT_EQ(on.size(), 5u);
  for (size_t i = 0; i < on.size(); ++i) {
    SCOPED_TRACE("plan set entry " + std::to_string(i));
    EXPECT_EQ(off[i].operators_evaluated, on[i].operators_evaluated);
    EXPECT_EQ(off[i].trees_processed, on[i].trees_processed);
    EXPECT_EQ(off[i].lists_processed, on[i].lists_processed);
    EXPECT_EQ(off[i].index_probes, on[i].index_probes);
    EXPECT_EQ(off[i].index_candidates, on[i].index_candidates);
    EXPECT_GT(on[i].operators_evaluated, 0u);
  }
  // The figures themselves: select(sub_select(scan)) maps over one tree,
  // then the two matched pieces.
  EXPECT_EQ(on[0].operators_evaluated, 3u);
  EXPECT_EQ(on[0].trees_processed, 3u);
  for (size_t i : {1, 2}) {
    EXPECT_EQ(on[i].index_probes, 1u);
    EXPECT_EQ(on[i].index_candidates, 2u);
  }
  // Each group scans its two items once for both plans: the indexed input
  // probed once, and every item counted once per member plan.
  EXPECT_EQ(on[3].index_probes, 1u);
  EXPECT_EQ(on[3].index_candidates, 2u);
  EXPECT_EQ(on[3].trees_processed, 4u);
  EXPECT_EQ(on[4].index_probes, 1u);
  EXPECT_EQ(on[4].lists_processed, 4u);
}

TEST_F(ExecutorTest, TraceCapturesSpanTreePerExecute) {
  Executor exec(&db_);
  EXPECT_FALSE(exec.trace_enabled());
  exec.set_trace_enabled(true);
  auto plan = Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)"));
  ASSERT_OK(exec.Execute(plan).status());
  // Execute -> TreeSubSelect -> ScanTree.
  ASSERT_EQ(exec.trace().size(), 3u);
  const auto& spans = exec.trace().spans();
  EXPECT_EQ(spans[0].name, "Execute");
  EXPECT_EQ(spans[1].name, "TreeSubSelect");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[2].name, "ScanTree");
  EXPECT_EQ(spans[2].parent, 1u);
  std::string report = exec.TraceReport();
  EXPECT_NE(report.find("Execute"), std::string::npos);
  EXPECT_NE(report.find("  TreeSubSelect"), std::string::npos);
  EXPECT_NE(report.find("    ScanTree"), std::string::npos);
  EXPECT_NE(report.find("[out=2]"), std::string::npos) << report;
  // Each Execute replaces the previous tree; disabling stops collection.
  ASSERT_OK(exec.Execute(Q::ScanList("l")).status());
  EXPECT_EQ(exec.trace().size(), 2u);
  exec.set_trace_enabled(false);
  ASSERT_OK(exec.Execute(plan).status());
  EXPECT_TRUE(exec.trace().empty());
}

#ifndef AQUA_OBS_DISABLED
TEST_F(ExecutorTest, IndexedListSubSelectAttributesLayerCounters) {
  ASSERT_OK(db_.CreateIndex("l", "name"));
  Executor exec(&db_);
  exec.set_trace_enabled(true);
  auto plan = Q::IndexedListSubSelect("l", "name", P("name == \"a\""),
                                      LP("a ?"));
  ASSERT_OK_AND_ASSIGN(Datum out, exec.Execute(plan));
  EXPECT_EQ(out.size(), 2u);
  ASSERT_EQ(exec.trace().size(), 2u);
  EXPECT_EQ(exec.trace().spans()[1].name, "IndexedListSubSelect");
  // The flight event's probe count is the execution's own.
  ASSERT_EQ(exec.stats().index_probes, 1u);
  EXPECT_EQ(obs::FlightRecorder::Global().Dump().back().index_probes, 1u);
  // The counter delta attributed to this execution shows the layers that
  // did the work: the index probe and the NFA prefilter under sub_select.
  const obs::Snapshot& delta = exec.last_counters();
  EXPECT_GT(delta.CounterValue("index.probes"), 0u);
  EXPECT_GT(delta.CounterValue("pattern.nfa_steps"), 0u);
  EXPECT_GT(delta.CounterValue("pattern.list_match_calls"), 0u);
  EXPECT_EQ(delta.CounterValue("exec.executes"), 1u);
  EXPECT_EQ(delta.CounterValue("exec.operators_evaluated"), 1u);
  // The Chrome-trace export carries the span tree and those counters.
  std::string json = exec.TraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"IndexedListSubSelect\""), std::string::npos);
  EXPECT_NE(json.find("\"pattern.nfa_steps\""), std::string::npos);
  EXPECT_NE(json.find("\"index.probes\""), std::string::npos);
}
TEST_F(ExecutorTest, ExecutePopulatesDigestTableAndFlightRecorder) {
  obs::StatsWarehouse::Global().Reset();
  obs::FlightRecorder::Global().Clear();
  Executor exec(&db_);
  auto plan = Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)"));
  ASSERT_OK(exec.Execute(plan).status());
  ASSERT_OK(exec.Execute(plan).status());

  // The catalogue accumulates both runs under one normalized fingerprint.
  uint64_t fp = obs::FingerprintPlan(plan);
  obs::PlanRow row = obs::StatsWarehouse::Global().Row(fp);
  EXPECT_EQ(row.calls, 2u);
  EXPECT_GT(row.total_ns, 0u);
  EXPECT_LE(row.min_ns, row.max_ns);
  EXPECT_NE(row.text.find("TreeSubSelect"), std::string::npos) << row.text;

  // The flight recorder retains one execute event per run, keyed by the
  // same fingerprint, with the counter-delta highlights filled in.
  std::vector<obs::FlightEvent> events = obs::FlightRecorder::Global().Dump();
  ASSERT_EQ(events.size(), 2u);
  for (const obs::FlightEvent& e : events) {
    EXPECT_EQ(e.kind, static_cast<uint32_t>(obs::FlightEventKind::kExecute));
    EXPECT_EQ(e.fingerprint, fp);
    EXPECT_EQ(e.ok, 1u);
    EXPECT_GT(e.wall_ns, 0u);
    EXPECT_GT(e.tree_steps, 0u);
  }

  // A failing execute records ok=0.
  EXPECT_FALSE(exec.Execute(Q::ScanTree("missing")).ok());
  events = obs::FlightRecorder::Global().Dump();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.back().ok, 0u);
  obs::StatsWarehouse::Global().Reset();
  obs::FlightRecorder::Global().Clear();
}

TEST_F(ExecutorTest, SlowQueryThresholdAppendsToLog) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Global();
  std::string path = ::testing::TempDir() + "/aqua_executor_slow.log";
  std::remove(path.c_str());
  std::string saved_path = rec.slow_query_log_path();
  uint64_t saved_threshold = rec.slow_query_threshold_ns();
  rec.set_slow_query_log_path(path);
  rec.set_slow_query_threshold_ns(1);  // every query is "slow"

  Executor exec(&db_);
  exec.set_trace_enabled(true);
  uint64_t before = rec.slow_queries_logged();
  ASSERT_OK(exec.Execute(Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)")))
                .status());
  EXPECT_EQ(rec.slow_queries_logged(), before + 1);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  std::string log = buf.str();
  EXPECT_NE(log.find("slow query:"), std::string::npos) << log;
  EXPECT_NE(log.find("TreeSubSelect"), std::string::npos);  // plan + spans
  EXPECT_NE(log.find("exec.executes"), std::string::npos);  // counter delta

  rec.set_slow_query_log_path(saved_path);
  rec.set_slow_query_threshold_ns(saved_threshold);
  std::remove(path.c_str());
}

TEST_F(ExecutorTest, ConcurrentExecutesReportOnlyTheirOwnCounters) {
  // Two plans whose serial runs take different numbers of matcher steps.
  const PlanRef plans[2] = {
      Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)")),
      Q::TreeSubSelect(Q::ScanTree("t"), TP("x(b(d f))")),
  };
  uint64_t expected[2];
  for (int k = 0; k < 2; ++k) {
    Executor exec(&db_);
    exec.set_threads(1);
    ASSERT_OK(exec.Execute(plans[k]).status());
    expected[k] = exec.last_counters().CounterValue("pattern.tree_steps");
    ASSERT_GT(expected[k], 0u);
  }
  ASSERT_NE(expected[0], expected[1]);

  // Run both concurrently: each execution's counters must be its own,
  // whatever the other thread does meanwhile.
  constexpr int kRuns = 1000;
  std::atomic<int> wrong[2] = {0, 0};
  std::vector<std::thread> threads;
  for (int k = 0; k < 2; ++k) {
    threads.emplace_back([&, k] {
      Executor exec(&db_);
      exec.set_threads(1);
      for (int i = 0; i < kRuns; ++i) {
        if (!exec.Execute(plans[k]).ok() ||
            exec.last_counters().CounterValue("pattern.tree_steps") !=
                expected[k] ||
            exec.last_counters().CounterValue("exec.executes") != 1) {
          wrong[k].fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong[0].load(), 0);
  EXPECT_EQ(wrong[1].load(), 0);
}

TEST_F(ExecutorTest, BatchedGroupIsObservedLikeExecute) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Global();
  std::string path = ::testing::TempDir() + "/aqua_executor_group_slow.log";
  std::remove(path.c_str());
  std::string saved_path = rec.slow_query_log_path();
  uint64_t saved_threshold = rec.slow_query_threshold_ns();
  rec.set_slow_query_log_path(path);
  rec.set_slow_query_threshold_ns(1);  // every query is "slow"
  rec.Clear();
  obs::Histogram* execute_ns =
      obs::Registry::Global().GetHistogram("exec.execute_ns");
  uint64_t samples_before = execute_ns->count();
  uint64_t slow_before = rec.slow_queries_logged();

  PlanRef scan = Q::ScanTree("t");
  std::vector<PlanRef> group = {Q::TreeSubSelect(scan, TP("b(d ?)")),
                                Q::TreeSubSelect(scan, TP("x"))};
  Executor exec(&db_);
  exec.set_threads(1);
  exec.set_trace_enabled(true);
  for (const Result<Datum>& r : exec.ExecuteBatch(group)) ASSERT_OK(r);

  // One unit: one latency sample, one execute event, one slow-log block.
  EXPECT_EQ(execute_ns->count(), samples_before + 1);
  size_t execute_events = 0;
  for (const obs::FlightEvent& e : rec.Dump()) {
    if (e.kind != static_cast<uint32_t>(obs::FlightEventKind::kExecute)) {
      continue;
    }
    ++execute_events;
    EXPECT_NE(e.query_id, 0u);
    EXPECT_EQ(e.query_id, exec.stats().query_id);
    EXPECT_GT(e.tree_steps, 0u);
  }
  EXPECT_EQ(execute_events, 1u);
  EXPECT_EQ(rec.slow_queries_logged(), slow_before + 1);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("slow query:"), std::string::npos) << buf.str();

  // The executor's own view describes the group.
  ASSERT_FALSE(exec.trace().empty());
  EXPECT_EQ(exec.trace().spans()[0].name, "Execute");
  EXPECT_NE(exec.stats().query_id, 0u);
  EXPECT_EQ(exec.last_counters().CounterValue("exec.executes"), 2u);

  rec.set_slow_query_log_path(saved_path);
  rec.set_slow_query_threshold_ns(saved_threshold);
  rec.Clear();
  std::remove(path.c_str());
}
#endif  // AQUA_OBS_DISABLED

TEST_F(ExecutorTest, TypeErrorsSurface) {
  Executor exec(&db_);
  // Tree operator over a list scan.
  auto bad = Q::TreeSubSelect(Q::ScanList("l"), TP("a"));
  EXPECT_TRUE(exec.Execute(bad).status().IsTypeError());
  auto bad2 = Q::ListSelect(Q::ScanTree("t"), P("true"));
  EXPECT_TRUE(exec.Execute(bad2).status().IsTypeError());
  EXPECT_TRUE(exec.Execute(nullptr).status().IsInvalidArgument());
}

}  // namespace
}  // namespace aqua
