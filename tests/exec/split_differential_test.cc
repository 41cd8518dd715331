// Single-item splits against serial execution. Over one input item the
// engine splits the item's own work into ranges on the pool: a list
// sub_select runs its begin positions as ranges, a batched group runs its
// members as ranges, and a tree select builds its forest as ranges of
// roots (exec/compile.cc). Each must print exactly as the 1-thread
// execution, fail with the same status, and count the same matcher steps,
// at 1, 4 and 16 threads, over seeded patterns.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "query/builder.h"
#include "query/executor.h"
#include "test_util.h"
#include "workload/generators.h"

namespace aqua {
namespace {

const size_t kThreadCounts[] = {1, 4, 16};

// The registry counters read 0 in a build with the metrics compiled out;
// the equalities below still hold there, the positive counts do not.
#ifdef AQUA_OBS_DISABLED
constexpr bool kCounting = false;
#else
constexpr bool kCounting = true;
#endif
const std::vector<std::string> kNames = {"a", "b", "c", "d", "e"};

/// What one unit printed and counted.
struct Outcome {
  std::string text;
  uint64_t list_steps = 0;
  uint64_t tree_steps = 0;
  uint64_t list_match_calls = 0;
  uint64_t morsels = 0;  // pool morsels run (exec.tasks_run)
};

class SplitDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(RegisterItemType(db_.store()));
    label_ = AttrLabelFn(&db_.store(), "name");
    // Long enough for several ranges of 4096 begins at every thread count.
    ASSERT_OK_AND_ASSIGN(List song,
                         MakeRandomList(db_.store(), 30000, kNames, 5));
    ASSERT_OK(db_.RegisterList("song", std::move(song)));
    RandomTreeSpec spec;
    spec.num_nodes = 20000;
    spec.seed = 9;
    ASSERT_OK_AND_ASSIGN(Tree tree, MakeRandomTree(db_.store(), spec));
    ASSERT_OK(db_.RegisterTree("rand", std::move(tree)));
    // Twelve random trees under a root no `val < k` keeps, so a select
    // over it has many topmost roots.
    std::vector<Tree> trees;
    for (uint64_t i = 0; i < 12; ++i) {
      spec.num_nodes = 1500;
      spec.seed = 100 + i;
      ASSERT_OK_AND_ASSIGN(Tree t, MakeRandomTree(db_.store(), spec));
      trees.push_back(std::move(t));
    }
    ASSERT_OK_AND_ASSIGN(
        Oid root, db_.store().Create("Item", {{"name", Value::String("root")},
                                              {"val", Value::Int(1000)}}));
    ASSERT_OK(db_.RegisterTree(
        "forest", Tree::Node(NodePayload::Cell(root), std::move(trees))));
  }

  AnchoredListPattern LP(const std::string& p) {
    auto lp = ParseListPattern(p);
    EXPECT_TRUE(lp.ok()) << lp.status().ToString() << " in " << p;
    return lp.ok() ? *lp : AnchoredListPattern{};
  }
  TreePatternRef TP(const std::string& p) {
    auto tp = ParseTreePattern(p);
    EXPECT_TRUE(tp.ok()) << tp.status().ToString() << " in " << p;
    return tp.ok() ? *tp : nullptr;
  }
  PredicateRef P(const std::string& p) {
    auto pred = ParsePredicate(p);
    EXPECT_TRUE(pred.ok()) << pred.status().ToString() << " in " << p;
    return pred.ok() ? *pred : nullptr;
  }

  /// Runs one plan (`Execute`) or a group (`ExecuteBatch`) and records
  /// every result or status in order, plus the unit's matcher counters.
  Outcome Run(const std::vector<PlanRef>& plans, size_t threads) {
    Executor exec(&db_);
    exec.set_threads(threads);
    std::vector<Result<Datum>> results;
    if (plans.size() == 1) {
      results.push_back(exec.Execute(plans[0]));
    } else {
      results = exec.ExecuteBatch(plans);
    }
    Outcome out;
    for (const Result<Datum>& r : results) {
      out.text += (r.ok() ? r->ToString(label_) : r.status().ToString()) +
                  "\n";
    }
    const obs::Snapshot& c = exec.last_counters();
    out.list_steps = c.CounterValue("pattern.list_steps");
    out.tree_steps = c.CounterValue("pattern.tree_steps");
    out.list_match_calls = c.CounterValue("pattern.list_match_calls");
    out.morsels = c.CounterValue("exec.tasks_run");
    return out;
  }

  /// Asserts the unit prints and counts the same at every thread count;
  /// returns the serial outcome.
  Outcome ExpectSerialEverywhere(const std::vector<PlanRef>& plans,
                                 const std::string& what) {
    Outcome want = Run(plans, 1);
    for (size_t threads : kThreadCounts) {
      Outcome got = Run(plans, threads);
      EXPECT_EQ(got.text, want.text) << what << " at threads=" << threads;
      EXPECT_EQ(got.list_steps, want.list_steps)
          << what << " at threads=" << threads;
      EXPECT_EQ(got.tree_steps, want.tree_steps)
          << what << " at threads=" << threads;
      EXPECT_EQ(got.list_match_calls, want.list_match_calls)
          << what << " at threads=" << threads;
    }
    return want;
  }

  /// The unit's input is one item, so any morsel at 4 threads comes from
  /// a split of that item's own work.
  void ExpectSplit(const std::vector<PlanRef>& plans, const std::string& what) {
    if (!kCounting) return;
    EXPECT_GT(Run(plans, 4).morsels, 1u) << what;
    EXPECT_EQ(Run(plans, 1).morsels, 0u) << what;
  }

  /// A seeded list pattern: prune and non-prune shapes whose backtracking
  /// stays bounded on a random list.
  std::string RandomListPattern(std::mt19937_64& rng) {
    auto name = [&] { return kNames[rng() % kNames.size()]; };
    switch (rng() % 6) {
      case 0:
        return name() + " " + name() + " " + name();
      case 1:
        return name() + " !? " + name();
      case 2:
        return name() + " [[!" + name() + "]]+ " + name();
      case 3:
        return "[[" + name() + " | " + name() + "]]+ " + name();
      case 4:
        return name() + " ? !" + name() + " " + name();
      default:
        return "!" + name() + " " + name() + "+";
    }
  }

  Database db_;
  LabelFn label_;
};

TEST_F(SplitDifferentialTest, ListSubSelectOverOneListMatchesSerial) {
  std::mt19937_64 rng(2026);
  size_t nonempty = 0;
  for (int i = 0; i < 14; ++i) {
    const std::string pattern = RandomListPattern(rng);
    const std::vector<PlanRef> plan = {
        Q::ListSubSelect(Q::ScanList("song"), LP(pattern))};
    Outcome want = ExpectSerialEverywhere(plan, pattern);
    if (kCounting) {
      EXPECT_GT(want.list_steps, 0u) << pattern;
      EXPECT_EQ(want.list_match_calls, 1u) << pattern;
    }
    if (want.text != "{}\n") ExpectSplit(plan, pattern);
    nonempty += want.text != "{}\n" ? 1 : 0;
  }
  EXPECT_GE(nonempty, 10u);
  // Shapes that stay one range: an anchored head, and the match and step
  // budgets (they count per matcher call).
  ExpectSerialEverywhere(
      {Q::ListSubSelect(Q::ScanList("song"), LP("^ a ? b"))}, "anchored");
  ListSplitOptions capped;
  capped.match.max_matches = 7;
  ExpectSerialEverywhere(
      {Q::ListSubSelect(Q::ScanList("song"), LP("a ? b"), capped)},
      "max_matches");
  ListSplitOptions budget;
  budget.match.max_steps = 20000;
  Outcome over = ExpectSerialEverywhere(
      {Q::ListSubSelect(Q::ScanList("song"), LP("a ? b"), budget)},
      "max_steps");
  EXPECT_NE(over.text.find("step budget"), std::string::npos) << over.text;
}

TEST_F(SplitDifferentialTest, ListDepthLimitFailsLikeSerial) {
  // One derivation from begin 0 walks the whole list before its final
  // atom: past the depth limit in every build. Every other begin fails on
  // its first atom, so only the range holding begin 0 fails.
  std::string lit = "[a";
  for (int i = 0; i < 29998; ++i) lit += " b";
  lit += " z]";
  AtomFn atom = MakeInterningAtomFn(&db_.store(), "Item", "name");
  ASSERT_OK_AND_ASSIGN(List deep, ParseListLiteral(lit, atom));
  ASSERT_OK(db_.RegisterList("deep", std::move(deep)));
  Outcome want = Run({Q::ListSubSelect(Q::ScanList("deep"), LP("a ?* z"))}, 1);
  EXPECT_NE(want.text.find("depth limit"), std::string::npos) << want.text;
  for (size_t threads : kThreadCounts) {
    Outcome got =
        Run({Q::ListSubSelect(Q::ScanList("deep"), LP("a ?* z"))}, threads);
    EXPECT_EQ(got.text, want.text) << "threads=" << threads;
  }
}

TEST_F(SplitDifferentialTest, BatchedListGroupOverOneListMatchesSerial) {
  std::mt19937_64 rng(4051);
  for (size_t g = 0; g < 5; ++g) {
    const size_t size = 2 + rng() % 15;
    std::vector<PlanRef> plans;
    std::string want_each;
    for (size_t j = 0; j < size; ++j) {
      // Every third member names an absent item: the group's scan rules
      // it out, so the members that run are not a prefix of the group.
      const std::string pattern =
          j % 3 == g % 3 ? "zz " + RandomListPattern(rng)
                         : RandomListPattern(rng);
      plans.push_back(Q::ListSubSelect(Q::ScanList("song"), LP(pattern)));
      want_each += Run({plans.back()}, 1).text;
    }
    Outcome batched = ExpectSerialEverywhere(
        plans, "list group " + std::to_string(g));
    // Every member also prints as its own Execute.
    EXPECT_EQ(batched.text, want_each) << "list group " << g;
    ExpectSplit(plans, "list group " + std::to_string(g));
  }
}

TEST_F(SplitDifferentialTest, TreeSelectOverOneTreeMatchesSerial) {
  for (const char* tree : {"forest", "rand"}) {
    for (int k : {0, 3, 20, 50, 90, 100}) {
      const std::string what = std::string(tree) + " val < " +
                               std::to_string(k);
      const PlanRef select =
          Q::TreeSelect(Q::ScanTree(tree), P("val < " + std::to_string(k)));
      Outcome forest = ExpectSerialEverywhere({select}, what);
      if (k == 0) {
        EXPECT_EQ(forest.text, "{}\n");
      }
      // Over "rand" a kept root leaves one result tree: nothing to split.
      if (k >= 20 && std::string(tree) == "forest") {
        ExpectSplit({select}, what);
      }
      // A fan-out over the forest counts the same tree steps.
      Outcome matched = ExpectSerialEverywhere(
          {Q::TreeSubSelect(select, TP("{name == \"a\"}(?* ? ?*)"))},
          "sub_select over " + what);
      if (kCounting && k >= 50) {
        EXPECT_GT(matched.tree_steps, 0u) << what;
      }
    }
  }
}

TEST_F(SplitDifferentialTest, BatchedTreeGroupOverOneTreeMatchesSerial) {
  std::vector<PlanRef> plans;
  std::string want_each;
  for (const char* p : {"{name == \"a\"}(?* {name == \"b\"} ?*)",
                        "{name == \"c\"}(? ?)", "{val < 5}",
                        "?({name == \"e\"})", "{name == \"zz\"}"}) {
    plans.push_back(Q::TreeSubSelect(Q::ScanTree("rand"), TP(p)));
    want_each += Run({plans.back()}, 1).text;
  }
  Outcome batched = ExpectSerialEverywhere(plans, "tree group");
  EXPECT_EQ(batched.text, want_each);
  if (kCounting) {
    EXPECT_GT(batched.tree_steps, 0u);
  }
  ExpectSplit(plans, "tree group");
}

}  // namespace
}  // namespace aqua
