// Serial-vs-parallel determinism: every query must produce byte-identical
// results at any thread count. The morsel fan-out partitions items in order
// and merges per-item results in that same order (see exec/morsel.h), so
// `set_threads(16)` is observationally equivalent to the serial
// interpreter — this suite pins that contract over the paper's workloads,
// including §4 rewrite pairs (original vs optimized plan).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "query/builder.h"
#include "query/executor.h"
#include "query/rewriter.h"
#include "test_util.h"

namespace aqua {
namespace {

const size_t kThreadCounts[] = {1, 4, 16};

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(RegisterItemType(db_.store()));
    ASSERT_OK(RegisterPersonType(db_.store()));
    label_ = AttrLabelFn(&db_.store(), "name");

    FamilyTreeSpec family;
    family.num_people = 200;
    family.seed = 7;
    ASSERT_OK_AND_ASSIGN(Tree f, MakeFamilyTree(db_.store(), family));
    ASSERT_OK(db_.RegisterTree("family", std::move(f)));

    RandomTreeSpec rand;
    rand.num_nodes = 800;
    rand.seed = 11;
    ASSERT_OK_AND_ASSIGN(Tree r, MakeRandomTree(db_.store(), rand));
    ASSERT_OK(db_.RegisterTree("rand", std::move(r)));
    ASSERT_OK(db_.CreateIndex("rand", "name"));

    ASSERT_OK_AND_ASSIGN(
        List items,
        MakeRandomList(db_.store(), 200, {"a", "b", "c", "d"}, 13));
    ASSERT_OK(db_.RegisterList("items", std::move(items)));
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

  /// Executes `plan` at the given thread count and dumps the result.
  Result<std::string> Dump(const PlanRef& plan, size_t threads) {
    Executor exec(&db_);
    exec.set_threads(threads);
    AQUA_ASSIGN_OR_RETURN(Datum out, exec.Execute(plan));
    return out.ToString(label_);
  }

  /// Asserts the plan's output is identical at every thread count.
  void CheckDeterministic(const PlanRef& plan, const std::string& what) {
    ASSERT_OK_AND_ASSIGN(std::string want, Dump(plan, 1));
    for (size_t threads : kThreadCounts) {
      ASSERT_OK_AND_ASSIGN(std::string got, Dump(plan, threads));
      EXPECT_EQ(got, want) << what << " diverged at threads=" << threads;
    }
  }

  Database db_;
  LabelFn label_;
};

TEST_F(DeterminismTest, FamilyTreeSubSelect) {
  // The paper's Figure 4 query: Brazilians with an American child.
  auto plan = Q::TreeSubSelect(
      Q::ScanTree("family"),
      TP("{citizen == \"Brazil\"}(?* {citizen == \"USA\"} ?*)"));
  CheckDeterministic(plan, "family sub_select");
}

TEST_F(DeterminismTest, ForestFanOutSelect) {
  // select over a sub_select forest: the canonical parallel fan-out.
  auto plan = Q::TreeSelect(
      Q::TreeSubSelect(Q::ScanTree("rand"),
                       TP("{name == \"a\"}(?* {name == \"b\"} ?*)")),
      P("val < 90"));
  CheckDeterministic(plan, "forest select");
}

TEST_F(DeterminismTest, NestedTreeSubSelect) {
  // sub_select over a sub_select forest: fan-out feeding fan-out.
  auto plan = Q::TreeSubSelect(
      Q::TreeSubSelect(Q::ScanTree("rand"),
                       TP("{name == \"a\"}(?* ? ?*)")),
      TP("{name == \"b\"}"));
  CheckDeterministic(plan, "nested sub_select");
}

TEST_F(DeterminismTest, NestedListSubSelect) {
  // The outer fan-out exercises the shared-NFA / per-worker-DFA prefilter.
  auto plan = Q::ListSubSelect(
      Q::ListSubSelect(Q::ScanList("items"), LP("a ?* b")), LP("a ? b"));
  CheckDeterministic(plan, "nested list sub_select");
}

TEST_F(DeterminismTest, ListSelectOverSublists) {
  auto plan = Q::ListSelect(
      Q::ListSubSelect(Q::ScanList("items"), LP("a ? ?")),
      P("name != \"d\""));
  CheckDeterministic(plan, "list select over sublists");
}

TEST_F(DeterminismTest, RewritePairAgreesAtEveryThreadCount) {
  // §4 rewrite pair: the logical plan and its optimizer output (the indexed
  // physical form on the indexed collection) must agree with each other and
  // with themselves across thread counts.
  auto logical = Q::TreeSubSelect(
      Q::ScanTree("rand"), TP("{name == \"a\"}(?* {name == \"b\"} ?*)"));
  Rewriter rewriter(&db_);
  rewriter.AddDefaultRules();
  ASSERT_OK_AND_ASSIGN(PlanRef optimized, rewriter.Optimize(logical));

  ASSERT_OK_AND_ASSIGN(std::string want, Dump(logical, 1));
  for (size_t threads : kThreadCounts) {
    ASSERT_OK_AND_ASSIGN(std::string got_logical, Dump(logical, threads));
    ASSERT_OK_AND_ASSIGN(std::string got_opt, Dump(optimized, threads));
    EXPECT_EQ(got_logical, want) << "logical plan at threads=" << threads;
    EXPECT_EQ(got_opt, want) << "optimized plan at threads=" << threads;
  }
}

TEST_F(DeterminismTest, StatsCountersAreThreadCountInvariant) {
  // Success-path ExecStats are exact counts of work items, independent of
  // how morsels were scheduled: for a plain fan-out, an indexed plan, and
  // a batched group over an indexed input.
  PlanRef anchored = Q::IndexedSubSelect(
      "rand", "name", P("name == \"a\""), TP("{name == \"a\"}(?* ? ?*)"));
  const std::vector<std::vector<PlanRef>> units = {
      {Q::TreeSelect(Q::TreeSubSelect(Q::ScanTree("rand"),
                                      TP("{name == \"a\"}(?* ? ?*)")),
                     P("val < 50"))},
      {Q::TreeSelect(anchored, P("val < 50"))},
      {Q::TreeSubSelect(anchored, TP("{name == \"b\"}")),
       Q::TreeSubSelect(anchored, TP("?(? {name == \"c\"})")),
       Q::TreeSubSelect(anchored, TP("{val < 50}"))},
  };
  auto run = [&](const std::vector<PlanRef>& unit, size_t threads) {
    Executor exec(&db_);
    exec.set_threads(threads);
    if (unit.size() == 1) {
      EXPECT_OK(exec.Execute(unit[0]).status());
    } else {
      for (const Result<Datum>& r : exec.ExecuteBatch(unit)) EXPECT_OK(r);
    }
    return exec.stats();
  };
  for (size_t u = 0; u < units.size(); ++u) {
    ExecStats want = run(units[u], 1);
    if (u > 0) {
      EXPECT_EQ(want.index_probes, 1u) << "unit " << u;
      EXPECT_GT(want.index_candidates, 0u) << "unit " << u;
    }
    for (size_t threads : kThreadCounts) {
      ExecStats got = run(units[u], threads);
      SCOPED_TRACE("unit " + std::to_string(u) + " at threads=" +
                   std::to_string(threads));
      EXPECT_EQ(got.operators_evaluated, want.operators_evaluated);
      EXPECT_EQ(got.trees_processed, want.trees_processed);
      EXPECT_EQ(got.lists_processed, want.lists_processed);
      EXPECT_EQ(got.index_probes, want.index_probes);
      EXPECT_EQ(got.index_candidates, want.index_candidates);
    }
  }
}

TEST_F(DeterminismTest, StatsWarmedPlanIsByteIdenticalAtEveryThreadCount) {
  // Learned statistics may change WHICH plan the rewriter picks — never
  // WHAT it returns. Warm the warehouse with real executions, re-optimize,
  // and pin the warmed plan's output against the logical plan's serial
  // result at every thread count.
  PlanRef logical = Q::TreeSubSelect(
      Q::ScanTree("rand"), TP("{name == \"a\"}(?* {name == \"b\"} ?*)"));
  obs::StatsWarehouse::Global().Reset();
  Rewriter cold(&db_, &obs::StatsWarehouse::Global());
  cold.AddDefaultRules();
  ASSERT_OK_AND_ASSIGN(PlanRef cold_plan, cold.Optimize(logical));
  ASSERT_OK_AND_ASSIGN(std::string want, Dump(logical, 1));
  for (int i = 0; i < 3; ++i) {  // past kMinConfidence for both shapes
    ASSERT_OK(Dump(logical, 1).status());
    ASSERT_OK(Dump(cold_plan, 1).status());
  }
  Rewriter warm(&db_, &obs::StatsWarehouse::Global());
  warm.AddDefaultRules();
  ASSERT_OK_AND_ASSIGN(PlanRef warm_plan, warm.Optimize(logical));
  for (size_t threads : kThreadCounts) {
    ASSERT_OK_AND_ASSIGN(std::string got, Dump(warm_plan, threads));
    EXPECT_EQ(got, want) << "stats-warmed plan diverged at threads="
                         << threads;
  }
  obs::StatsWarehouse::Global().Reset();
}

}  // namespace
}  // namespace aqua
