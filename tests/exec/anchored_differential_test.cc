// Seeded differential test of the §4 index-anchored operators: over random
// trees whose NodeIds are out of preorder, the fused index plans
// (`kIndexedSubSelect`, `kIndexedListSubSelect`) must print byte-identical
// results to the naive `sub_select` plans, at one and at four threads.
// Result sets keep insertion order, so this pins the anchored path's match
// order to the naive scan's document order, not only its match set.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "algebra/derived.h"
#include "query/builder.h"
#include "query/executor.h"
#include "test_util.h"

namespace aqua {
namespace {

struct DiffCase {
  size_t nodes;
  uint64_t seed;
};

void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << c.nodes << " nodes, seed " << c.seed;
}

class AnchoredDifferentialTest : public ::testing::TestWithParam<DiffCase> {
 protected:
  void SetUp() override {
    const DiffCase c = GetParam();
    ASSERT_OK(RegisterItemType(db_.store()));
    label_ = AttrLabelFn(&db_.store(), "name");
    for (size_t i = 0; i < 8; ++i) labels_.push_back("t" + std::to_string(i));

    RandomTreeSpec spec;
    spec.num_nodes = c.nodes;
    spec.labels = labels_;
    spec.seed = c.seed;
    ASSERT_OK_AND_ASSIGN(Tree tree, MakeRandomTree(db_.store(), spec));
    std::vector<NodeId> preorder = tree.Preorder();
    ASSERT_FALSE(std::is_sorted(preorder.begin(), preorder.end()));
    ASSERT_OK(db_.RegisterTree("t", std::move(tree)));
    ASSERT_OK(db_.CreateIndex("t", "name"));
    ASSERT_OK(db_.CreateIndex("t", "val"));

    ASSERT_OK_AND_ASSIGN(List list, MakeRandomList(db_.store(), c.nodes,
                                                   labels_, c.seed + 1));
    ASSERT_OK(db_.RegisterList("l", std::move(list)));
    ASSERT_OK(db_.CreateIndex("l", "name"));
    ASSERT_OK(db_.CreateIndex("l", "val"));
  }

  /// A label drawn from the seed, so each case anchors differently.
  std::string Label(size_t k) const {
    return labels_[(GetParam().seed + k) % labels_.size()];
  }

  Result<std::string> Dump(const PlanRef& plan, size_t threads) {
    Executor exec(&db_);
    exec.set_threads(threads);
    AQUA_ASSIGN_OR_RETURN(Datum out, exec.Execute(plan));
    return out.ToString(label_);
  }

  /// Runs both plans at 1 and 4 threads; every printout must equal the
  /// naive plan's serial one, which must hold more than one result (a
  /// single result cannot show an ordering fault).
  void ExpectSame(const PlanRef& naive, const PlanRef& indexed,
                  const std::string& what) {
    ASSERT_OK_AND_ASSIGN(std::string want, Dump(naive, 1));
    ASSERT_OK_AND_ASSIGN(Datum check, Executor(&db_).Execute(naive));
    EXPECT_GT(check.size(), 1u) << what;
    for (size_t threads : {1, 4}) {
      ASSERT_OK_AND_ASSIGN(std::string naive_out, Dump(naive, threads));
      ASSERT_OK_AND_ASSIGN(std::string indexed_out, Dump(indexed, threads));
      EXPECT_EQ(naive_out, want) << what << " naive, threads=" << threads;
      EXPECT_EQ(indexed_out, want) << what << " indexed, threads=" << threads;
    }
  }

  Database db_;
  LabelFn label_;
  std::vector<std::string> labels_;
};

TEST_P(AnchoredDifferentialTest, TreeSubSelectAgreesWithIndexedPlan) {
  const std::vector<std::string> patterns = {
      "{name == \"" + Label(0) + "\"}(?* {name == \"" + Label(1) + "\"} ?*)",
      "{name == \"" + Label(2) + "\"}(? ?*)",
      "{name == \"" + Label(3) + "\"}(!?* {val < 50} ?*)",
      // A range anchor: its candidates merge several index runs.
      "{val < 4}(?* {name == \"" + Label(4) + "\"} ?*)",
  };
  for (const std::string& text : patterns) {
    ASSERT_OK_AND_ASSIGN(TreePatternRef tp, ParseTreePattern(text));
    ASSERT_OK_AND_ASSIGN(PredicateRef anchor, ExtractRootPredicate(tp));
    ExpectSame(Q::TreeSubSelect(Q::ScanTree("t"), tp),
               Q::IndexedSubSelect("t", anchor->attr(), anchor, tp), text);
  }
}

TEST_P(AnchoredDifferentialTest, ListSubSelectAgreesWithIndexedPlan) {
  const std::vector<std::string> patterns = {
      "{name == \"" + Label(0) + "\"} ? ?",
      "{name == \"" + Label(1) + "\"} !? {val < 50}",
      "{val < 4} ? {name == \"" + Label(2) + "\"}",
  };
  for (const std::string& text : patterns) {
    ASSERT_OK_AND_ASSIGN(AnchoredListPattern lp, ParseListPattern(text));
    ASSERT_OK_AND_ASSIGN(PredicateRef anchor, ExtractHeadPredicate(lp.body));
    ExpectSame(Q::ListSubSelect(Q::ScanList("l"), lp),
               Q::IndexedListSubSelect("l", anchor->attr(), anchor, lp), text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnchoredDifferentialTest,
                         ::testing::Values(DiffCase{1000, 31},
                                           DiffCase{1000, 32},
                                           DiffCase{5000, 33},
                                           DiffCase{20000, 34}),
                         [](const ::testing::TestParamInfo<DiffCase>& info) {
                           return "n" + std::to_string(info.param.nodes) +
                                  "_seed" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace aqua
