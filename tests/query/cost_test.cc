#include "query/cost.h"

#include <gtest/gtest.h>

#include "obs/digest.h"
#include "obs/metrics.h"
#include "query/builder.h"
#include "test_util.h"

namespace aqua {
namespace {

class CostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(RegisterItemType(db_.store()));
    RandomTreeSpec spec;
    spec.num_nodes = 500;
    ASSERT_OK_AND_ASSIGN(Tree t, MakeRandomTree(db_.store(), spec));
    ASSERT_OK(db_.RegisterTree("t", std::move(t)));
    ASSERT_OK(db_.CreateIndex("t", "name"));
  }

  TreePatternRef TP(const std::string& pattern) {
    auto tp = ParseTreePattern(pattern);
    EXPECT_TRUE(tp.ok());
    return tp.ok() ? *tp : nullptr;
  }

  Database db_;
};

TEST_F(CostTest, ScanCostIsCollectionSize) {
  CostModel model(&db_);
  ASSERT_OK_AND_ASSIGN(CostEstimate est, model.Estimate(Q::ScanTree("t")));
  EXPECT_DOUBLE_EQ(est.out_nodes, 500.0);
}

TEST_F(CostTest, UnknownCollectionFails) {
  CostModel model(&db_);
  EXPECT_TRUE(model.Estimate(Q::ScanTree("nope")).status().IsNotFound());
  EXPECT_TRUE(model.Estimate(nullptr).status().IsInvalidArgument());
}

TEST_F(CostTest, SubSelectCostGrowsWithPatternSize) {
  CostModel model(&db_);
  ASSERT_OK_AND_ASSIGN(
      CostEstimate small,
      model.Estimate(Q::TreeSubSelect(Q::ScanTree("t"), TP("a"))));
  ASSERT_OK_AND_ASSIGN(
      CostEstimate big,
      model.Estimate(Q::TreeSubSelect(Q::ScanTree("t"), TP("a(b c d e)"))));
  EXPECT_LT(small.cost, big.cost);
}

TEST_F(CostTest, ClosuresMultiplyPatternWork) {
  EXPECT_LT(CostModel::PatternWork(TP("a(b)")),
            CostModel::PatternWork(TP("a(b*)")));
  EXPECT_LT(CostModel::PatternWork(TP("a(b*)")),
            CostModel::PatternWork(TP("a(b* c*)")));
}

TEST_F(CostTest, IndexedSubSelectIsCheaperForSelectiveAnchors) {
  CostModel model(&db_);
  auto tp = TP("{name == \"a\"}(?*)");
  auto anchor = ParsePredicate("name == \"a\"");
  ASSERT_TRUE(anchor.ok());
  ASSERT_OK_AND_ASSIGN(
      CostEstimate naive,
      model.Estimate(Q::TreeSubSelect(Q::ScanTree("t"), tp)));
  ASSERT_OK_AND_ASSIGN(
      CostEstimate indexed,
      model.Estimate(Q::IndexedSubSelect("t", "name", *anchor, tp)));
  // Selectivity of one label out of five is ~0.2; the probe wins.
  EXPECT_LT(indexed.cost, naive.cost);
}

TEST_F(CostTest, SelectCascadeCostsAreComparable) {
  CostModel model(&db_);
  auto conj = ParsePredicate("name == \"a\" && val > 10");
  ASSERT_TRUE(conj.ok());
  ASSERT_OK_AND_ASSIGN(
      CostEstimate one,
      model.Estimate(Q::TreeSelect(Q::ScanTree("t"), *conj)));
  auto p1 = ParsePredicate("name == \"a\"");
  auto p2 = ParsePredicate("val > 10");
  ASSERT_OK_AND_ASSIGN(
      CostEstimate cascade,
      model.Estimate(
          Q::TreeSelect(Q::TreeSelect(Q::ScanTree("t"), *p1), *p2)));
  // The cascade runs the second predicate on a reduced input.
  EXPECT_LT(cascade.cost, one.cost + 1500);
}

/// Folds one execution of plan 0x1 carrying the op sample `s` into `wh`.
void Harvest(obs::StatsWarehouse* wh, const obs::OpSample& s) {
  wh->Record(0x1, "plan", 1000, 0, StatusCode::kOk, false, {s});
}

TEST_F(CostTest, LearnedSelectivityOverridesStaticDefault) {
  auto tp = TP("{name == \"a\"}(?*)");
  PlanRef plan = Q::TreeSubSelect(Q::ScanTree("t"), tp);
  CostModel statics(&db_);
  ASSERT_OK_AND_ASSIGN(CostEstimate cold, statics.Estimate(plan));

  // Teach the warehouse that this subplan keeps almost everything.
  obs::StatsWarehouse wh(/*capacity=*/64);
  obs::OpSample s;
  s.op_name = "sub_select";
  s.path = "0";
  s.node_fp = obs::FingerprintPlan(plan);
  s.calls = 1;
  s.in_rows = 500;
  s.out_rows = 450;
  s.wall_ns = 1000;
  for (int i = 0; i < 2; ++i) Harvest(&wh, s);  // reach kMinConfidence

  CostModel learned(&db_, &wh);
  ASSERT_OK_AND_ASSIGN(CostEstimate warm, learned.Estimate(plan));
  EXPECT_GT(warm.out_nodes, cold.out_nodes);
  EXPECT_NEAR(warm.out_nodes, 500 * 0.9, 500 * 0.9 * 0.5);
}

TEST_F(CostTest, LearnedSelectivityRequiresConfidence) {
  auto tp = TP("{name == \"a\"}(?*)");
  PlanRef plan = Q::TreeSubSelect(Q::ScanTree("t"), tp);
  obs::OpSample s;
  s.op_name = "sub_select";
  s.path = "0";
  s.node_fp = obs::FingerprintPlan(plan);
  s.calls = 1;
  s.in_rows = 500;
  s.out_rows = 500;
  obs::StatsWarehouse wh(/*capacity=*/64);
  Harvest(&wh, s);  // one harvest < kMinConfidence

  CostModel statics(&db_);
  CostModel learned(&db_, &wh);
  ASSERT_OK_AND_ASSIGN(CostEstimate cold, statics.Estimate(plan));
  ASSERT_OK_AND_ASSIGN(CostEstimate warm, learned.Estimate(plan));
  EXPECT_DOUBLE_EQ(warm.out_nodes, cold.out_nodes);  // fell back
}

TEST_F(CostTest, LearnedCandidatesFeedIndexedProbeEstimate) {
  auto tp = TP("{name == \"a\"}(?*)");
  auto anchor = ParsePredicate("name == \"a\"");
  ASSERT_TRUE(anchor.ok());
  PlanRef plan = Q::IndexedSubSelect("t", "name", *anchor, tp);

  CostModel statics(&db_);
  ASSERT_OK_AND_ASSIGN(CostEstimate cold, statics.Estimate(plan));

  // Observed: each probe returns just 2 candidates (static guess: ~100).
  obs::OpSample s;
  s.op_name = "indexed_sub_select";
  s.path = "0";
  s.node_fp = obs::FingerprintPlan(plan);
  s.calls = 1;
  s.in_rows = 2;
  s.out_rows = 1;
  s.probes = 1;
  s.candidates = 2;
  obs::StatsWarehouse wh(/*capacity=*/64);
  for (int i = 0; i < 2; ++i) Harvest(&wh, s);

  CostModel learned(&db_, &wh);
  ASSERT_OK_AND_ASSIGN(CostEstimate warm, learned.Estimate(plan));
  EXPECT_LT(warm.cost, cold.cost);
}

#ifndef AQUA_OBS_DISABLED
TEST_F(CostTest, LearnedModeBumpsHitAndMissCounters) {
  obs::Snapshot before = obs::Registry::Global().Snap();
  auto tp = TP("{name == \"a\"}(?*)");
  PlanRef plan = Q::TreeSubSelect(Q::ScanTree("t"), tp);

  obs::StatsWarehouse wh(/*capacity=*/64);
  CostModel learned(&db_, &wh);
  ASSERT_OK(learned.Estimate(plan).status());  // empty warehouse: misses
  obs::OpSample s;
  s.op_name = "sub_select";
  s.path = "0";
  s.node_fp = obs::FingerprintPlan(plan);
  s.calls = 1;
  s.in_rows = 100;
  s.out_rows = 50;
  for (int i = 0; i < 2; ++i) Harvest(&wh, s);
  ASSERT_OK(learned.Estimate(plan).status());  // now a hit

  obs::Snapshot delta = obs::Registry::Global().Snap().DeltaSince(before);
  EXPECT_GE(delta.CounterValue("cost.learned_misses"), 1u);
  EXPECT_GE(delta.CounterValue("cost.learned_hits"), 1u);

  // The static model must touch neither counter.
  obs::Snapshot before2 = obs::Registry::Global().Snap();
  CostModel statics(&db_);
  ASSERT_OK(statics.Estimate(plan).status());
  obs::Snapshot d2 = obs::Registry::Global().Snap().DeltaSince(before2);
  EXPECT_EQ(d2.CounterValue("cost.learned_hits"), 0u);
  EXPECT_EQ(d2.CounterValue("cost.learned_misses"), 0u);
}
#endif  // AQUA_OBS_DISABLED

TEST_F(CostTest, ListPlanEstimates) {
  ASSERT_OK_AND_ASSIGN(List l,
                       MakeRandomList(db_.store(), 100, {"a", "b"}, 1));
  ASSERT_OK(db_.RegisterList("songs", std::move(l)));
  CostModel model(&db_);
  auto lp = ParseListPattern("a ? b");
  ASSERT_TRUE(lp.ok());
  ASSERT_OK_AND_ASSIGN(
      CostEstimate est,
      model.Estimate(Q::ListSubSelect(Q::ScanList("songs"), *lp)));
  EXPECT_GT(est.cost, 100.0);
}

}  // namespace
}  // namespace aqua
