#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "exec/compile.h"
#include "obs/metrics.h"
#include "query/builder.h"
#include "query/executor.h"
#include "test_util.h"
#include "workload/generators.h"

namespace aqua {
namespace {

// The query-group fast path must be invisible: for every plan in the batch,
// `ExecuteBatch` returns byte-for-byte what a standalone `Execute` of that
// plan returns, at any thread count.
class BatchedMatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(RegisterItemType(db_.store()));
    atom_ = MakeInterningAtomFn(&db_.store(), "Item", "name");
    ASSERT_OK_AND_ASSIGN(
        Tree t, ParseTreeLiteral("r(b(d e) x(b(d f)) b(g))", atom_));
    ASSERT_OK(db_.RegisterTree("t", std::move(t)));
    ASSERT_OK_AND_ASSIGN(List l,
                         ParseListLiteral("[a b c a b d a]", atom_));
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

  /// Runs the batch and N standalone executes at `threads` and asserts the
  /// results agree plan by plan (values and error statuses both).
  void CheckBatchEqualsSequential(const std::vector<PlanRef>& plans,
                                  size_t threads) {
    Executor batch_exec(&db_);
    batch_exec.set_threads(threads);
    std::vector<Result<Datum>> batched = batch_exec.ExecuteBatch(plans);
    ASSERT_EQ(batched.size(), plans.size());

    // The reference runs serial (threads=1): fan-out merges are
    // order-stable, so any thread count must reproduce this exactly.
    Executor ref_exec(&db_);
    ref_exec.set_threads(1);
    for (size_t j = 0; j < plans.size(); ++j) {
      Result<Datum> expected = ref_exec.Execute(plans[j]);
      ASSERT_EQ(batched[j].ok(), expected.ok())
          << "plan " << j << " at threads=" << threads << ": batched="
          << (batched[j].ok() ? "ok" : batched[j].status().ToString())
          << " expected="
          << (expected.ok() ? "ok" : expected.status().ToString());
      if (expected.ok()) {
        EXPECT_TRUE(batched[j]->Equals(*expected))
            << "plan " << j << " diverged at threads=" << threads;
      } else {
        EXPECT_EQ(batched[j].status().code(), expected.status().code());
        EXPECT_EQ(batched[j].status().message(),
                  expected.status().message());
      }
    }
  }

  Database db_;
  AtomFn atom_;
};

TEST_F(BatchedMatchTest, TreeGroupMatchesSequentialAtAllThreadCounts) {
  PlanRef scan = Q::ScanTree("t");
  std::vector<PlanRef> plans = {
      Q::TreeSubSelect(scan, TP("b(d ?)")), Q::TreeSubSelect(scan, TP("b")),
      Q::TreeSubSelect(scan, TP("x")),
      Q::TreeSubSelect(scan, TP("nomatch")),
      Q::TreeSubSelect(scan, TP("b(d ?)")),  // duplicate pattern
  };
  for (size_t threads : {1u, 4u, 16u}) {
    CheckBatchEqualsSequential(plans, threads);
  }
}

TEST_F(BatchedMatchTest, ListGroupMatchesSequentialAtAllThreadCounts) {
  PlanRef scan = Q::ScanList("l");
  std::vector<PlanRef> plans = {
      Q::ListSubSelect(scan, LP("a b")), Q::ListSubSelect(scan, LP("b c")),
      Q::ListSubSelect(scan, LP("a ?* d")),
      Q::ListSubSelect(scan, LP("zz")),
      Q::ListSubSelect(scan, LP("[[a | b]]+")),
  };
  for (size_t threads : {1u, 4u, 16u}) {
    CheckBatchEqualsSequential(plans, threads);
  }
}

#ifndef AQUA_OBS_DISABLED
TEST_F(BatchedMatchTest, ListGroupReportsTheAutomatonCounters) {
  // The batched list probe is a lazy DFA like the single-pattern
  // prefilter, so it moves the same `pattern.dfa_*` counters. Its rows are
  // counted in `exec.batch_scan_rows`; single-pattern prefilter scans are
  // not batch scans and leave that counter alone.
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter* hits = reg.GetCounter("pattern.dfa_hits");
  obs::Counter* misses = reg.GetCounter("pattern.dfa_misses");
  obs::Counter* rows = reg.GetCounter("exec.batch_scan_rows");
  PlanRef scan = Q::ScanList("l");
  // Neither pattern matches [a b c a b d a], so the probe scans all seven
  // elements, and the repeated a/b steps hit cached transitions.
  std::vector<PlanRef> plans = {Q::ListSubSelect(scan, LP("zz")),
                                Q::ListSubSelect(scan, LP("d d"))};
  Executor exec(&db_);
  exec.set_threads(1);

  uint64_t hits0 = hits->value(), misses0 = misses->value();
  uint64_t rows0 = rows->value();
  for (const Result<Datum>& r : exec.ExecuteBatch(plans)) ASSERT_OK(r);
  EXPECT_GT(hits->value(), hits0);
  EXPECT_GT(misses->value(), misses0);
  EXPECT_EQ(rows->value() - rows0, 7u);

  hits0 = hits->value();
  rows0 = rows->value();
  ASSERT_OK(exec.Execute(plans[1]).status());
  EXPECT_GT(hits->value(), hits0);
  EXPECT_EQ(rows->value(), rows0);
}
#endif  // AQUA_OBS_DISABLED

TEST_F(BatchedMatchTest, ForestInputsFanOutPerItem) {
  // sub_select over a select's forest output: the batch shares the forest
  // scan and probes every subtree item once for all patterns.
  PlanRef forest = Q::TreeSelect(Q::ScanTree("t"), P("name != \"r\""));
  std::vector<PlanRef> plans = {
      Q::TreeSubSelect(forest, TP("b(d ?)")),
      Q::TreeSubSelect(forest, TP("d")),
      Q::TreeSubSelect(forest, TP("g")),
  };
  for (size_t threads : {1u, 4u, 16u}) {
    CheckBatchEqualsSequential(plans, threads);
  }
}

TEST_F(BatchedMatchTest, StructurallyEqualChildrenGroupTogether) {
  // Children built separately (distinct PlanRefs, equal structure) must
  // still group — the fingerprint pre-key is verified with PlanEquals.
  std::vector<PlanRef> plans = {
      Q::TreeSubSelect(Q::ScanTree("t"), TP("b")),
      Q::TreeSubSelect(Q::ScanTree("t"), TP("x")),
  };
  ASSERT_NE(plans[0]->children[0].get(), plans[1]->children[0].get());
  auto op = exec::CompileBatch(plans);
  EXPECT_NE(op, nullptr);
  EXPECT_EQ(op->num_plans(), 2u);
  CheckBatchEqualsSequential(plans, 4);
}

TEST_F(BatchedMatchTest, MixedGroupsAndSinglesAllAnswerCorrectly) {
  // Two tree plans over "t", two list plans over "l", one unbatchable
  // select, one lone sub_select over a different input: every result is
  // still positional and standalone-identical.
  PlanRef tscan = Q::ScanTree("t");
  PlanRef lscan = Q::ScanList("l");
  std::vector<PlanRef> plans = {
      Q::TreeSubSelect(tscan, TP("b")),
      Q::ListSubSelect(lscan, LP("a b")),
      Q::TreeSelect(tscan, P("name == \"b\"")),  // not a sub_select
      Q::TreeSubSelect(tscan, TP("x")),
      Q::ListSubSelect(lscan, LP("c a")),
      Q::TreeSubSelect(Q::TreeSelect(tscan, P("name != \"r\"")), TP("d")),
  };
  for (size_t threads : {1u, 4u}) {
    CheckBatchEqualsSequential(plans, threads);
  }
}

TEST_F(BatchedMatchTest, PerPlanErrorsMatchStandaloneExecution) {
  // A null pattern errors inside the matcher for exactly that plan; the
  // healthy plans in the group still answer.
  PlanRef scan = Q::ScanTree("t");
  std::vector<PlanRef> plans = {
      Q::TreeSubSelect(scan, TP("b")),
      Q::TreeSubSelect(scan, nullptr),
      Q::TreeSubSelect(scan, TP("x")),
  };
  CheckBatchEqualsSequential(plans, 4);
}

TEST_F(BatchedMatchTest, ListTreeAtomFailsOnlyItsOwnPlan) {
  // A tree atom has no list automaton: the group declines to batch, and
  // that plan fails alone with the matcher's error, as standalone.
  PlanRef scan = Q::ScanList("l");
  AnchoredListPattern tree_atom{ListPattern::TreeAtom(TreePattern::AnyLeaf()),
                                false, false};
  std::vector<PlanRef> plans = {Q::ListSubSelect(scan, LP("a b")),
                                Q::ListSubSelect(scan, tree_atom),
                                Q::ListSubSelect(scan, LP("c a"))};
  EXPECT_EQ(exec::CompileBatch(plans), nullptr);
  CheckBatchEqualsSequential(plans, 4);
}

TEST_F(BatchedMatchTest, SeededListGroupsMatchSerialExecution) {
  // Seeded random groups of 2-64 list sub_selects over the 8-element
  // windows of one 300-element list. Names are skewed towards w0-w7 so
  // most patterns match somewhere; the last group gives each plan two
  // names of its own (never in the list), so its merged alphabet exceeds
  // 64 predicates. Every batched result must print exactly as that plan's
  // own Execute.
  std::mt19937_64 rng(20261019);
  auto name = [&] {
    return "w" + std::to_string(rng() % 4 == 0 ? rng() % 180 : rng() % 8);
  };
  std::string lit = "[";
  for (int i = 0; i < 300; ++i) lit += (i > 0 ? " " : "") + name();
  ASSERT_OK_AND_ASSIGN(List words, ParseListLiteral(lit + "]", atom_));
  ASSERT_OK(db_.RegisterList("words", std::move(words)));
  PlanRef windows =
      Q::ListSubSelect(Q::ScanList("words"), LP("? ? ? ? ? ? ? ?"));
  const LabelFn label = AttrLabelFn(&db_.store(), "name");

  size_t nonempty = 0;
  for (int g = 0; g < 6; ++g) {
    const bool wide = g == 5;
    const size_t size = wide ? 40 : 2 + rng() % 63;
    std::vector<PlanRef> plans;
    for (size_t j = 0; j < size; ++j) {
      std::string pattern;
      if (wide) {
        pattern = name() + " [[" + name() + " | w" +
                  std::to_string(200 + 2 * j) + " | w" +
                  std::to_string(201 + 2 * j) + "]]";
      } else if (const int shape = rng() % 4; shape == 0) {
        pattern = name() + " " + name();
      } else if (shape == 1) {
        pattern = name() + " ?* " + name();
      } else if (shape == 2) {
        pattern = "[[" + name() + " | " + name() + "]]+ " + name();
      } else {
        pattern = "^ " + name() + " ? " + name();
      }
      plans.push_back(Q::ListSubSelect(windows, LP(pattern)));
    }
    Executor serial(&db_);
    serial.set_threads(1);
    std::vector<std::string> expected;
    for (const PlanRef& p : plans) {
      ASSERT_OK_AND_ASSIGN(Datum d, serial.Execute(p));
      nonempty += d.children().empty() ? 0 : 1;
      expected.push_back(d.ToString(label));
    }
    for (size_t threads : {1u, 4u}) {
      Executor exec(&db_);
      exec.set_threads(threads);
      std::vector<Result<Datum>> out = exec.ExecuteBatch(plans);
      ASSERT_EQ(out.size(), plans.size());
      for (size_t j = 0; j < plans.size(); ++j) {
        ASSERT_OK(out[j]);
        EXPECT_EQ(out[j]->ToString(label), expected[j])
            << "group " << g << " plan " << j << " at threads=" << threads;
      }
    }
  }
  EXPECT_GT(nonempty, 20u);  // most groups must exercise the matcher
}

TEST_F(BatchedMatchTest, SharedInputErrorsAreBatchFatal) {
  PlanRef scan = Q::ScanTree("missing");
  std::vector<PlanRef> plans = {
      Q::TreeSubSelect(scan, TP("b")),
      Q::TreeSubSelect(scan, TP("x")),
  };
  Executor exec(&db_);
  std::vector<Result<Datum>> out = exec.ExecuteBatch(plans);
  ASSERT_EQ(out.size(), 2u);
  for (const auto& r : out) {
    EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
  }
}

TEST_F(BatchedMatchTest, CompileBatchRejectsNonGroups) {
  PlanRef scan = Q::ScanTree("t");
  PlanRef other = Q::ScanList("l");
  // Too few plans.
  EXPECT_EQ(exec::CompileBatch({Q::TreeSubSelect(scan, TP("b"))}), nullptr);
  // Mixed operators.
  EXPECT_EQ(exec::CompileBatch({Q::TreeSubSelect(scan, TP("b")),
                                Q::ListSubSelect(other, LP("a"))}),
            nullptr);
  // Different inputs.
  EXPECT_EQ(
      exec::CompileBatch({Q::TreeSubSelect(Q::ScanTree("t"), TP("b")),
                          Q::TreeSubSelect(Q::ScanTree("t2"), TP("b"))}),
      nullptr);
  // Non-pattern operators.
  EXPECT_EQ(exec::CompileBatch({Q::TreeSelect(scan, P("name == \"b\"")),
                                Q::TreeSelect(scan, P("name == \"x\""))}),
            nullptr);
}

// ---------------------------------------------------------------------------
// Randomized property test over generated workloads.
// ---------------------------------------------------------------------------

class BatchedMatchRandomTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FamilyTreeSpec spec;
    spec.num_people = 300;
    spec.brazil_fraction = 0.15;
    spec.seed = 20260809;
    ASSERT_OK_AND_ASSIGN(Tree family, MakeFamilyTree(db_.store(), spec));
    ASSERT_OK(db_.RegisterTree("family", std::move(family)));

    SongSpec song_spec;
    song_spec.num_notes = 400;
    song_spec.seed = 20260809;
    ASSERT_OK_AND_ASSIGN(List song, MakeSong(db_.store(), song_spec));
    ASSERT_OK(db_.RegisterList("song", std::move(song)));
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

  Database db_;
};

TEST_F(BatchedMatchRandomTest, FamilyPatternBatteryIsByteIdentical) {
  PlanRef scan = Q::ScanTree("family");
  std::vector<PlanRef> plans;
  const char* kPatterns[] = {
      "{citizen == \"Brazil\"}",
      "{citizen == \"USA\"}({citizen == \"Brazil\"} ?*)",
      "{age > 60}",
      "{citizen == \"Brazil\"}(?* {age < 10} ?*)",
      "{eyes == \"brown\"}",
      "{citizen == \"France\"}",
      "{age > 30}({age > 60})",
      "{name == \"P3\"}",
  };
  for (const char* p : kPatterns) {
    plans.push_back(Q::TreeSubSelect(scan, TP(p)));
  }
  Executor ref(&db_);
  ref.set_threads(1);
  std::vector<Result<Datum>> expected;
  for (const auto& p : plans) expected.push_back(ref.Execute(p));

  for (size_t threads : {1u, 4u, 16u}) {
    Executor exec(&db_);
    exec.set_threads(threads);
    std::vector<Result<Datum>> out = exec.ExecuteBatch(plans);
    ASSERT_EQ(out.size(), plans.size());
    for (size_t j = 0; j < plans.size(); ++j) {
      ASSERT_OK(expected[j]);
      ASSERT_OK(out[j]);
      EXPECT_TRUE(out[j]->Equals(*expected[j]))
          << kPatterns[j] << " at threads=" << threads;
    }
  }
}

TEST_F(BatchedMatchRandomTest, SongPatternBatteryIsByteIdentical) {
  PlanRef scan = Q::ScanList("song");
  std::vector<PlanRef> plans;
  const char* kPatterns[] = {
      "{pitch == \"A\"} {pitch == \"B\"}",
      "{pitch == \"C\"}+",
      "{pitch == \"G\"} ?* {pitch == \"A\"}",
      "{duration > 6} {duration > 6}",
      "{pitch == \"E\"} {pitch == \"F\"} {pitch == \"G\"}",
      "{pitch == \"Z\"}",
  };
  for (const char* p : kPatterns) {
    plans.push_back(Q::ListSubSelect(scan, LP(p)));
  }
  Executor ref(&db_);
  ref.set_threads(1);
  std::vector<Result<Datum>> expected;
  for (const auto& p : plans) expected.push_back(ref.Execute(p));

  for (size_t threads : {1u, 4u, 16u}) {
    Executor exec(&db_);
    exec.set_threads(threads);
    std::vector<Result<Datum>> out = exec.ExecuteBatch(plans);
    ASSERT_EQ(out.size(), plans.size());
    for (size_t j = 0; j < plans.size(); ++j) {
      ASSERT_OK(expected[j]);
      ASSERT_OK(out[j]);
      EXPECT_TRUE(out[j]->Equals(*expected[j]))
          << kPatterns[j] << " at threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace aqua
