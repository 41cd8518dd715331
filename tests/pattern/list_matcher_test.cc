#include "pattern/list_matcher.h"

#include <gtest/gtest.h>

#include "query/builder.h"
#include "query/executor.h"
#include "test_util.h"

namespace aqua {
namespace {

class ListMatcherTest : public testing::AquaTestBase {
 protected:
  std::vector<ListMatch> Find(const std::string& list_lit,
                              const std::string& pattern,
                              ListMatchOptions opts = {}) {
    list_ = L(list_lit);
    ListMatcher matcher(store_, list_);
    auto matches = matcher.FindAll(LP(pattern), opts);
    EXPECT_TRUE(matches.ok()) << matches.status().ToString();
    return matches.ok() ? *matches : std::vector<ListMatch>{};
  }

  bool Whole(const std::string& list_lit, const std::string& pattern) {
    list_ = L(list_lit);
    ListMatcher matcher(store_, list_);
    auto r = matcher.MatchesWhole(LP(pattern).body);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && *r;
  }

  List list_;
};

TEST_F(ListMatcherTest, SingleAtom) {
  auto matches = Find("[a b a]", "a");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].begin, 0u);
  EXPECT_EQ(matches[0].end, 1u);
  EXPECT_EQ(matches[1].begin, 2u);
}

TEST_F(ListMatcherTest, MelodyFixedPattern) {
  // §6: sub_select([A??F]) — the melody query shape.
  auto matches = Find("[a x y f b a q r f]", "a ? ? f");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].begin, 0u);
  EXPECT_EQ(matches[0].end, 4u);
  EXPECT_EQ(matches[1].begin, 5u);
  EXPECT_EQ(matches[1].end, 9u);
}

TEST_F(ListMatcherTest, Disjunction) {
  auto matches = Find("[a b c]", "a | c");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].begin, 0u);
  EXPECT_EQ(matches[1].begin, 2u);
}

TEST_F(ListMatcherTest, StarEnumeratesAllExtents) {
  auto matches = Find("[a a]", "a*");
  // Extents: [0,0) [0,1) [0,2) [1,1) [1,2) [2,2).
  EXPECT_EQ(matches.size(), 6u);
}

TEST_F(ListMatcherTest, PlusRequiresOne) {
  auto matches = Find("[a a b]", "a+");
  // [0,1) [0,2) [1,2).
  EXPECT_EQ(matches.size(), 3u);
}

TEST_F(ListMatcherTest, AnchorsRestrictExtents) {
  auto begin_anchored = Find("[a b a]", "^a");
  ASSERT_EQ(begin_anchored.size(), 1u);
  EXPECT_EQ(begin_anchored[0].begin, 0u);

  auto end_anchored = Find("[a b a]", "a$");
  ASSERT_EQ(end_anchored.size(), 1u);
  EXPECT_EQ(end_anchored[0].begin, 2u);

  auto both = Find("[a b a]", "^a ? a$");
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0].end, 3u);
}

TEST_F(ListMatcherTest, WholeListMembership) {
  EXPECT_TRUE(Whole("[a b c]", "a b c"));
  EXPECT_TRUE(Whole("[a b c]", "a ?* c"));
  EXPECT_FALSE(Whole("[a b c]", "a b"));
  EXPECT_TRUE(Whole("[]", "a*"));
  EXPECT_FALSE(Whole("[]", "a+"));
}

TEST_F(ListMatcherTest, PredicateAtoms) {
  ASSERT_OK(RegisterNoteType(store_));
  List song;
  for (const char* pitch : {"A", "C", "E", "F"}) {
    auto note = store_.Create("Note", {{"pitch", Value::String(pitch)},
                                       {"duration", Value::Int(4)}});
    ASSERT_OK(note);
    song.Append(NodePayload::Cell(*note));
  }
  ListMatcher matcher(store_, song);
  ASSERT_OK_AND_ASSIGN(
      auto matches,
      matcher.FindAll(LP("{pitch == \"A\"} ? ? {pitch == \"F\"}")));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].begin, 0u);
  EXPECT_EQ(matches[0].end, 4u);
}

TEST_F(ListMatcherTest, PruneRecordsPositions) {
  auto matches = Find("[x a b c y]", "a !?* c");
  // Only one derivation reaches c: !?* consumes b.
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].begin, 1u);
  EXPECT_EQ(matches[0].end, 4u);
  ASSERT_EQ(matches[0].pruned.size(), 1u);
  EXPECT_EQ(matches[0].pruned[0], 2u);
}

TEST_F(ListMatcherTest, PruneRanges) {
  ListMatch m;
  m.begin = 0;
  m.end = 8;
  m.pruned = {1, 2, 3, 5, 7};
  auto ranges = m.PruneRanges();
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0], (std::pair<size_t, size_t>{1, 4}));
  EXPECT_EQ(ranges[1], (std::pair<size_t, size_t>{5, 6}));
  EXPECT_EQ(ranges[2], (std::pair<size_t, size_t>{7, 8}));
}

TEST_F(ListMatcherTest, DistinctPruneDecompositionsAreDistinctMatches) {
  auto matches = Find("[a a]", "!a* a*");
  // Extent [0,2) admits prunes {}, {0}, {0,1}; plus extents of length 0/1.
  size_t with_two = 0;
  for (const auto& m : matches) {
    if (m.begin == 0 && m.end == 2) ++with_two;
  }
  EXPECT_EQ(with_two, 3u);
}

TEST_F(ListMatcherTest, DistinctExtentsOnlyOption) {
  ListMatchOptions opts;
  opts.distinct_extents_only = true;
  auto matches = Find("[a a]", "!a* a*", opts);
  size_t with_two = 0;
  for (const auto& m : matches) {
    if (m.begin == 0 && m.end == 2) ++with_two;
  }
  EXPECT_EQ(with_two, 1u);
}

TEST_F(ListMatcherTest, MaxMatchesBound) {
  ListMatchOptions opts;
  opts.max_matches = 2;
  auto matches = Find("[a a a a a a]", "a", opts);
  EXPECT_EQ(matches.size(), 2u);
}

TEST_F(ListMatcherTest, InstancePointsAreInvisibleToPredicates) {
  // §3.5: only concatenation sees labeled NULLs; `?` skips them too.
  auto matches = Find("[a @x b]", "a ? b");
  EXPECT_TRUE(matches.empty());
  auto with_point = Find("[a @x b]", "a @x b");
  ASSERT_EQ(with_point.size(), 1u);
  EXPECT_EQ(with_point[0].end, 3u);
}

TEST_F(ListMatcherTest, PatternPointMayCloseWithNull) {
  // `@x` consumes an instance point or nothing.
  auto matches = Find("[a b]", "a @x b");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].end, 2u);
}

TEST_F(ListMatcherTest, PointLabelMustAgree) {
  EXPECT_TRUE(Find("[a @y b]", "a @x b").empty());
}

TEST_F(ListMatcherTest, GroupingAndNesting) {
  auto matches = Find("[a b a b c]", "[[a b]]+ c");
  // Two iterations from 0, or one iteration from 2.
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].begin, 0u);
  EXPECT_EQ(matches[0].end, 5u);
  EXPECT_EQ(matches[1].begin, 2u);
  EXPECT_EQ(matches[1].end, 5u);
}

TEST_F(ListMatcherTest, NullableStarOfNullableDoesNotLoop) {
  // [[a*]]* must terminate despite its nullable body.
  auto matches = Find("[a]", "[[a*]]*");
  EXPECT_FALSE(matches.empty());
}

TEST_F(ListMatcherTest, TreeAtomRejected) {
  list_ = L("[a]");
  ListMatcher matcher(store_, list_);
  AnchoredListPattern bad;
  bad.body = ListPattern::TreeAtom(TreePattern::AnyLeaf());
  EXPECT_TRUE(matcher.FindAll(bad).status().IsInvalidArgument());
  AnchoredListPattern null_pattern;
  EXPECT_TRUE(matcher.FindAll(null_pattern).status().IsInvalidArgument());
}

TEST_F(ListMatcherTest, FindAllAtBeginsRestricts) {
  list_ = L("[a b a b]");
  ListMatcher matcher(store_, list_);
  ASSERT_OK_AND_ASSIGN(auto matches,
                       matcher.FindAllAtBegins(LP("a b"), {2}));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].begin, 2u);
  // Begin anchor restricts further.
  ASSERT_OK_AND_ASSIGN(auto anchored,
                       matcher.FindAllAtBegins(LP("^a b"), {0, 2}));
  ASSERT_EQ(anchored.size(), 1u);
  EXPECT_EQ(anchored[0].begin, 0u);
  EXPECT_TRUE(
      matcher.FindAllAtBegins(LP("a"), {99}).status().IsOutOfRange());
}

TEST_F(ListMatcherTest, StepsCounterAdvances) {
  list_ = L("[a b c d]");
  ListMatcher matcher(store_, list_);
  ASSERT_OK(matcher.FindAll(LP("?*")).status());
  EXPECT_GT(matcher.steps(), 0u);
}

// A closure over a long list nests one continuation per consumed element;
// past `ListMatcher::kMaxDepth` the matcher must answer InvalidArgument
// instead of overflowing the stack (it used to crash the process on this
// query).
class ListDepthGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(RegisterNoteType(db_.store()));
    SongSpec spec;
    spec.num_notes = 100000;
    ASSERT_OK_AND_ASSIGN(List song, MakeSong(db_.store(), spec));
    ASSERT_OK(db_.RegisterList("song", std::move(song)));
  }

  Database db_;
};

constexpr char kLongClosure[] = "{pitch == \"A\"} ?* {duration == 8}";

TEST_F(ListDepthGuardTest, ClosureOverLongListIsAnErrorNotACrash) {
  ASSERT_OK_AND_ASSIGN(AnchoredListPattern lp, ParseListPattern(kLongClosure));
  Executor exec(&db_);
  Result<Datum> out = exec.Execute(Q::ListSubSelect(Q::ScanList("song"), lp));
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInvalidArgument()) << out.status().ToString();
  EXPECT_NE(out.status().message().find("depth limit"), std::string::npos)
      << out.status().ToString();

  // The matcher itself, with the default options.
  ASSERT_OK_AND_ASSIGN(const List* song, db_.GetList("song"));
  ListMatcher matcher(db_.store(), *song);
  EXPECT_TRUE(matcher.FindAll(lp).status().IsInvalidArgument());
}

TEST_F(ListDepthGuardTest, ShallowDerivationsOverLongListStillMatch) {
  // Bounded runs stay far below the guard however long the list is.
  ASSERT_OK_AND_ASSIGN(AnchoredListPattern lp,
                       ParseListPattern("{pitch == \"A\"} {duration == 8}"));
  ASSERT_OK_AND_ASSIGN(const List* song, db_.GetList("song"));
  ListMatcher matcher(db_.store(), *song);
  ASSERT_OK_AND_ASSIGN(std::vector<ListMatch> matches, matcher.FindAll(lp));
  EXPECT_FALSE(matches.empty());
}

TEST_F(ListMatcherTest, DepthGuardAdmitsEveryDerivationUpToTheLimit) {
  // `^ ?* $` over n elements nests n + 2 engine levels: one for the
  // closure, one per element, one for the failed probe past the end. So
  // the longest list it may cover is kMaxDepth - 2 elements (19998 in an
  // optimized build), and one more element is refused.
  auto list_of = [this](size_t n) {
    std::string lit = "[";
    for (size_t i = 0; i < n; ++i) lit += i == 0 ? "a" : " a";
    return L(lit + "]");
  };
  list_ = list_of(ListMatcher::kMaxDepth - 2);
  ListMatcher fits(store_, list_);
  auto whole = fits.FindAll(LP("^ ?* $"));
  ASSERT_OK(whole);
  EXPECT_EQ(whole->size(), 1u);

  list_ = list_of(ListMatcher::kMaxDepth - 1);
  ListMatcher too_long(store_, list_);
  auto refused = too_long.FindAll(LP("^ ?* $"));
  EXPECT_TRUE(refused.status().IsInvalidArgument())
      << refused.status().ToString();
}

}  // namespace
}  // namespace aqua
