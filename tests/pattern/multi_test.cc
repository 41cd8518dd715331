#include "pattern/multi.h"

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "test_util.h"

namespace aqua {
namespace {

/// Whole-match automaton over one pattern, sealed for matching.
Result<MultiNfa> CompileWhole(const ListPatternRef& body) {
  AQUA_ASSIGN_OR_RETURN(MultiNfa nfa, MultiNfa::Compile({body}));
  nfa.Seal();
  return nfa;
}

// ---------------------------------------------------------------------------
// One pattern: the whole-match and search automata.
// ---------------------------------------------------------------------------

class NfaTest : public testing::AquaTestBase {
 protected:
  bool Whole(const std::string& list_lit, const std::string& pattern) {
    List l = L(list_lit);
    auto nfa = CompileWhole(LP(pattern).body);
    EXPECT_TRUE(nfa.ok()) << nfa.status().ToString();
    return nfa.ok() && nfa->MatchAll(store_, l) == 1;
  }

  /// Existence of a matching sublist, asked in search mode or as a whole
  /// match of `?* pattern ?*`.
  bool Exists(const std::string& list_lit, const std::string& pattern,
              bool search_mode) {
    List l = L(list_lit);
    ListPatternRef body = LP(pattern).body;
    auto nfa = search_mode
                   ? MultiNfa::CompileSearch({body})
                   : CompileWhole(ListPattern::Concat(
                         {ListPattern::AnyStar(), body,
                          ListPattern::AnyStar()}));
    EXPECT_TRUE(nfa.ok()) << nfa.status().ToString();
    return nfa.ok() && nfa->MatchAll(store_, l) == 1;
  }
};

TEST_F(NfaTest, WholeMatchBasics) {
  EXPECT_TRUE(Whole("[a b c]", "a b c"));
  EXPECT_FALSE(Whole("[a b c]", "a b"));
  EXPECT_FALSE(Whole("[a b]", "a b c"));
  EXPECT_TRUE(Whole("[]", "[[a]]*"));
  EXPECT_FALSE(Whole("[]", "a"));
}

TEST_F(NfaTest, ClosuresAndAlternation) {
  EXPECT_TRUE(Whole("[a a a]", "a+"));
  EXPECT_TRUE(Whole("[a b a b]", "[[a b]]*"));
  EXPECT_FALSE(Whole("[a b a]", "[[a b]]*"));
  EXPECT_TRUE(Whole("[c]", "a | b | c"));
  EXPECT_TRUE(Whole("[a x x b]", "a ?* b"));
}

TEST_F(NfaTest, PruneIsTransparentToTheLanguage) {
  EXPECT_TRUE(Whole("[a b c]", "a !? c"));
  EXPECT_TRUE(Whole("[a b c]", "!a ? c"));
}

TEST_F(NfaTest, PointsEpsilonOrConsume) {
  EXPECT_TRUE(Whole("[a @x b]", "a @x b"));
  EXPECT_TRUE(Whole("[a b]", "a @x b"));
  EXPECT_FALSE(Whole("[a @y b]", "a @x b"));
  // Predicates and ? do not see instance points.
  EXPECT_FALSE(Whole("[a @x b]", "a ? b"));
}

TEST_F(NfaTest, ExistsMatchBothModes) {
  for (bool search : {false, true}) {
    EXPECT_TRUE(Exists("[x a b y]", "a b", search)) << search;
    EXPECT_FALSE(Exists("[x a y]", "a b", search)) << search;
    EXPECT_TRUE(Exists("[x]", "a*", search)) << search;  // empty match
    EXPECT_TRUE(Exists("[a]", "a", search)) << search;
  }
  // The search loop skips instance points as well as cells, as the
  // backtracker tries every begin position.
  EXPECT_TRUE(Exists("[@z a]", "a", /*search_mode=*/true));
}

TEST_F(NfaTest, AgreesWithBacktrackingMatcher) {
  // Cross-check the two list-matching engines over a pattern battery.
  const char* kPatterns[] = {"a b",   "a ?* c", "[[a | b]]+", "a+ b*",
                             "?* c ?*", "[[a b]]* c"};
  const char* kLists[] = {"[a b c]", "[c b a]", "[a a b b c c]",
                          "[a b a b c]", "[]", "[c]"};
  for (const char* pat : kPatterns) {
    auto anchored = LP(pat);
    ASSERT_OK_AND_ASSIGN(MultiNfa nfa, CompileWhole(anchored.body));
    for (const char* lst : kLists) {
      List l = L(lst);
      ListMatcher matcher(store_, l);
      ASSERT_OK_AND_ASSIGN(bool expected, matcher.MatchesWhole(anchored.body));
      EXPECT_EQ(nfa.MatchAll(store_, l) == 1, expected)
          << pat << " over " << lst;
    }
  }
}

TEST_F(NfaTest, CompileRejectsTreeAtomsAndNull) {
  auto bad = ListPattern::TreeAtom(TreePattern::AnyLeaf());
  EXPECT_TRUE(MultiNfa::Compile({bad}).status().IsInvalidArgument());
  EXPECT_TRUE(MultiNfa::Compile({nullptr}).status().IsInvalidArgument());
}

TEST_F(NfaTest, StateCountIsLinearInPattern) {
  ASSERT_OK_AND_ASSIGN(MultiNfa small, MultiNfa::Compile({LP("a b").body}));
  ASSERT_OK_AND_ASSIGN(MultiNfa big,
                       MultiNfa::Compile({LP("a b c d e f g h").body}));
  EXPECT_LT(small.num_states(), big.num_states());
  EXPECT_LT(big.num_states(), 64u);
}

TEST_F(NfaTest, StructuralCompileLeavesTheAlphabetUnsealed) {
  // Lint reads the whole-match automaton's structure only; the search
  // automaton always matches, so it arrives sealed.
  ASSERT_OK_AND_ASSIGN(MultiNfa whole, MultiNfa::Compile({LP("a b").body}));
  EXPECT_FALSE(whole.alphabet().sealed());
  EXPECT_TRUE(LazyMultiDfa::Make(&whole).status().IsInvalidArgument());
  ASSERT_OK_AND_ASSIGN(MultiNfa search,
                       MultiNfa::CompileSearch({LP("a b").body}));
  EXPECT_TRUE(search.alphabet().sealed());
}

// ---------------------------------------------------------------------------
// One pattern: the lazy DFA against the NFA simulation.
// ---------------------------------------------------------------------------

class DfaTest : public testing::AquaTestBase {};

TEST_F(DfaTest, AgreesWithNfaOnWholeMatch) {
  const char* kPatterns[] = {"a b c", "a ?* c", "[[a | b]]+", "a* b* c*",
                             "a @x b"};
  const char* kLists[] = {"[a b c]", "[a c]",  "[b b b]", "[a @x b]",
                          "[a b]",   "[c]",    "[]"};
  for (const char* pat : kPatterns) {
    ASSERT_OK_AND_ASSIGN(MultiNfa nfa, CompileWhole(LP(pat).body));
    ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&nfa));
    for (const char* lst : kLists) {
      List l = L(lst);
      EXPECT_EQ(dfa.MatchAll(store_, l), nfa.MatchAll(store_, l))
          << pat << " over " << lst;
    }
  }
}

TEST_F(DfaTest, AgreesWithNfaOnExistsSearchMode) {
  const char* kPatterns[] = {"a b", "a ?* c", "b+"};
  const char* kLists[] = {"[x a b y]", "[a x c]", "[x y z]", "[b]", "[]"};
  for (const char* pat : kPatterns) {
    ASSERT_OK_AND_ASSIGN(MultiNfa nfa, MultiNfa::CompileSearch({LP(pat).body}));
    ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&nfa));
    for (const char* lst : kLists) {
      List l = L(lst);
      EXPECT_EQ(dfa.MatchAll(store_, l), nfa.MatchAll(store_, l))
          << pat << " over " << lst;
    }
  }
}

TEST_F(DfaTest, TransitionsAreCachedAcrossCalls) {
  ASSERT_OK_AND_ASSIGN(MultiNfa nfa,
                       MultiNfa::CompileSearch({LP("a ? f").body}));
  ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&nfa));
  List l = L("[a b f a c f]");
  ASSERT_EQ(dfa.MatchAll(store_, l), 1u);
  size_t after_first = dfa.num_transitions();
  EXPECT_GT(after_first, 0u);
  // The same input signature set re-uses cached transitions.
  ASSERT_EQ(dfa.MatchAll(store_, l), 1u);
  EXPECT_EQ(dfa.num_transitions(), after_first);
}

/// `x{i}` for each index, space-separated: atoms over distinct predicates.
std::string Names(const std::vector<int>& indices) {
  std::string out;
  for (int i : indices) out += (out.empty() ? "x" : " x") + std::to_string(i);
  return out;
}

TEST_F(DfaTest, RejectsNullAndAgreesOnWideAlphabets) {
  EXPECT_TRUE(LazyMultiDfa::Make(nullptr).status().IsInvalidArgument());

  // 59 predicates no longer fit one 58-bit key word; 70 take two signature
  // words. At 70, `x64` and `x65` differ only in the second word, so
  // swapping them must miss the cached transition for the unswapped list, and the
  // DFA must answer like the NFA and the backtracker in both modes.
  for (int n : {59, 70}) {
    std::vector<int> seq(n);
    std::iota(seq.begin(), seq.end(), 0);
    std::vector<int> swapped = seq, no_first = seq, no_last = seq;
    std::swap(swapped[n - 6], swapped[n - 5]);
    no_first.erase(no_first.begin());
    no_last.pop_back();
    const std::vector<std::string> lists = {
        "[" + Names(seq) + "]",      "[y " + Names(seq) + " y]",
        "[" + Names(swapped) + "]",  "[" + Names(no_first) + "]",
        "[" + Names(no_last) + "]",  "[" + Names(seq) + " x0]",
        "[" + Names(seq) + "]"};
    for (bool search : {false, true}) {
      ListPatternRef body = LP(Names(seq)).body;
      ASSERT_OK_AND_ASSIGN(MultiNfa nfa, search
                                             ? MultiNfa::CompileSearch({body})
                                             : CompileWhole(body));
      ASSERT_EQ(nfa.alphabet().size(), static_cast<size_t>(n));
      ASSERT_EQ(nfa.alphabet().sig_stride(), n > 64 ? 2u : 1u);
      ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&nfa));
      for (const std::string& lit : lists) {
        List l = L(lit);
        ListMatcher matcher(store_, l);
        uint64_t expected = 0;
        if (search) {
          ASSERT_OK_AND_ASSIGN(
              auto matches,
              matcher.FindAll(AnchoredListPattern{body, false, false}));
          expected = matches.empty() ? 0 : 1;
        } else {
          ASSERT_OK_AND_ASSIGN(bool whole, matcher.MatchesWhole(body));
          expected = whole ? 1 : 0;
        }
        EXPECT_EQ(nfa.MatchAll(store_, l), expected) << n << ": " << lit;
        EXPECT_EQ(dfa.MatchAll(store_, l), expected) << n << ": " << lit;
      }
    }
  }
}

TEST_F(DfaTest, PointLabelsNeverShareACellOrUnknownSignature) {
  // 70 predicates (two signature words) and 31 point labels.
  // `p1 [[@l0 | ... | @l30]] [[a | p1 | ... | p69]]` matches `[p1 @l30 a]`
  // but not `[p1 @zz a]`: only a named label may sit between p1 and a.
  // A transition cached for one of the two points must never answer for
  // the other, whichever list warms the cache first.
  std::vector<ListPatternRef> points, preds;
  for (int i = 0; i < 31; ++i) {
    points.push_back(ListPattern::Point("l" + std::to_string(i)));
  }
  preds.push_back(
      ListPattern::Pred(Predicate::AttrEquals("name", Value::String("a"))));
  for (int i = 1; i < 70; ++i) {
    preds.push_back(ListPattern::Pred(
        Predicate::AttrEquals("name", Value::String("p" + std::to_string(i)))));
  }
  ListPatternRef body = ListPattern::Concat(
      {ListPattern::Pred(Predicate::AttrEquals("name", Value::String("p1"))),
       ListPattern::Alt(points), ListPattern::Alt(preds)});
  ASSERT_OK_AND_ASSIGN(MultiNfa nfa, MultiNfa::CompileSearch({body}));
  ASSERT_EQ(nfa.alphabet().size(), 70u);
  ASSERT_EQ(nfa.alphabet().sig_stride(), 2u);
  ASSERT_EQ(nfa.point_labels().size(), 31u);

  auto backtracker = [&](const List& l) -> uint64_t {
    ListMatcher matcher(store_, l);
    auto matches = matcher.FindAll(AnchoredListPattern{body, false, false});
    EXPECT_TRUE(matches.ok()) << matches.status().ToString();
    return matches.ok() && !matches->empty() ? 1 : 0;
  };
  const std::vector<std::vector<std::string>> kOrders = {
      {"[p1 @zz a]", "[p1 @l30 a]", "[@zz a]", "[@l30 a]"},
      {"[@l30 a]", "[@zz a]", "[p1 @l30 a]", "[p1 @zz a]"}};
  for (const auto& order : kOrders) {
    ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&nfa));
    for (const std::string& lit : order) {
      List l = L(lit);
      const uint64_t expected = backtracker(l);
      EXPECT_EQ(nfa.MatchAll(store_, l), expected) << lit;
      EXPECT_EQ(dfa.MatchAll(store_, l), expected) << lit << " after "
                                                   << order[0];
    }
  }
  EXPECT_EQ(backtracker(L("[p1 @zz a]")), 0u);
  EXPECT_EQ(backtracker(L("[p1 @l30 a]")), 1u);
}

// ---------------------------------------------------------------------------
// N patterns: the merged product automaton.
// ---------------------------------------------------------------------------

class MultiNfaTest : public testing::AquaTestBase {
 protected:
  std::vector<ListPatternRef> Bodies(const std::vector<std::string>& pats) {
    std::vector<ListPatternRef> bodies;
    for (const auto& p : pats) bodies.push_back(LP(p).body);
    return bodies;
  }

  /// The reference answer, from an independent engine: bit j is set when
  /// the backtracking matcher finds an unanchored match of pattern j.
  uint64_t SequentialMatchAll(const std::vector<ListPatternRef>& bodies,
                              const List& l) {
    uint64_t mask = 0;
    for (size_t j = 0; j < bodies.size(); ++j) {
      ListMatcher matcher(store_, l);
      ListMatchOptions opts;
      opts.max_matches = 1;
      auto matches =
          matcher.FindAll(AnchoredListPattern{bodies[j], false, false}, opts);
      EXPECT_TRUE(matches.ok()) << matches.status().ToString();
      if (matches.ok() && !matches->empty()) mask |= 1ULL << j;
    }
    return mask;
  }

  /// Asserts NFA and lazy-DFA agree with the backtracker on `list_lit`.
  void CheckAgainstSequential(const std::vector<std::string>& pats,
                              const std::string& list_lit) {
    std::vector<ListPatternRef> bodies = Bodies(pats);
    List l = L(list_lit);
    uint64_t expected = SequentialMatchAll(bodies, l);

    ASSERT_OK_AND_ASSIGN(MultiNfa multi, MultiNfa::CompileSearch(bodies));
    EXPECT_EQ(multi.MatchAll(store_, l), expected) << list_lit;

    ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&multi));
    EXPECT_EQ(dfa.MatchAll(store_, l), expected) << list_lit;
  }
};

TEST_F(MultiNfaTest, GoldenAcceptMasksOnOverlappingPatterns) {
  // Three patterns sharing a prefix: the per-list result masks are exactly
  // the per-pattern existence answers, bit j = pattern j.
  std::vector<std::string> pats = {"a b", "a b c", "a"};
  std::vector<ListPatternRef> bodies = Bodies(pats);
  ASSERT_OK_AND_ASSIGN(MultiNfa multi, MultiNfa::CompileSearch(bodies));
  EXPECT_EQ(multi.num_patterns(), 3u);
  EXPECT_EQ(multi.full_mask(), 0b111u);
  EXPECT_EQ(multi.MatchAll(store_, L("[a b c]")), 0b111u);
  EXPECT_EQ(multi.MatchAll(store_, L("[a b]")), 0b101u);
  EXPECT_EQ(multi.MatchAll(store_, L("[a]")), 0b100u);
  EXPECT_EQ(multi.MatchAll(store_, L("[x a b y]")), 0b101u);
  EXPECT_EQ(multi.MatchAll(store_, L("[x]")), 0u);
  EXPECT_EQ(multi.MatchAll(store_, L("[]")), 0u);
}

TEST_F(MultiNfaTest, TrieMergesCommonPrefixes) {
  // "a b" + "a b c" + "a d": the second pattern rides the first's two
  // states, the third rides one — three shared-state hits total — and the
  // shared alphabet interns `a` once across all three patterns.
  ASSERT_OK_AND_ASSIGN(MultiNfa multi,
                       MultiNfa::CompileSearch(Bodies({"a b", "a b c",
                                                       "a d"})));
  EXPECT_EQ(multi.trie_shared_states(), 3u);
  EXPECT_EQ(multi.alphabet().size(), 4u);  // a, b, c, d

  // No sharing when every pattern starts differently.
  ASSERT_OK_AND_ASSIGN(MultiNfa disjoint,
                       MultiNfa::CompileSearch(Bodies({"a", "b", "c"})));
  EXPECT_EQ(disjoint.trie_shared_states(), 0u);

  // The merged automaton is smaller than the sum of the parts.
  size_t solo_states = 0;
  for (const auto& body : Bodies({"a b", "a b c", "a d"})) {
    ASSERT_OK_AND_ASSIGN(MultiNfa solo, MultiNfa::CompileSearch({body}));
    solo_states += solo.num_states();
  }
  EXPECT_LT(multi.num_states(), solo_states);
}

TEST_F(MultiNfaTest, IdenticalPatternsShareEverything) {
  ASSERT_OK_AND_ASSIGN(MultiNfa multi,
                       MultiNfa::CompileSearch(Bodies({"a b", "a b"})));
  EXPECT_EQ(multi.alphabet().size(), 2u);
  // Both bits always agree.
  EXPECT_EQ(multi.MatchAll(store_, L("[a b]")), 0b11u);
  EXPECT_EQ(multi.MatchAll(store_, L("[b a]")), 0u);
}

TEST_F(MultiNfaTest, PointsAndClosuresMatchSequential) {
  std::vector<std::string> pats = {"a @x b", "a ?* c", "[[a | b]]+", "a+ b*",
                                   "@x", "?* c"};
  for (const char* lst :
       {"[a b c]", "[a @x b]", "[a @y b]", "[c]", "[]", "[@x]",
        "[a a b b c]", "[x y z]", "[@y a c]", "[@x @y c]"}) {
    CheckAgainstSequential(pats, lst);
  }
}

TEST_F(MultiNfaTest, RandomizedAgreementWithIndependentScans) {
  // Random pattern groups over random lists: the merged automaton's mask
  // must be bit-for-bit the backtracker's per-pattern existence answers,
  // for both the NFA simulation and the lazy DFA.
  const std::vector<std::string> kPatternPool = {
      "a",        "a b",      "a b c", "b c",      "a ?* c", "[[a | b]] c",
      "a+",       "b* c",     "?* c",  "a @x b",   "c | d",  "[[a b]]+",
      "!a b",     "a !? c",   "d",     "a [[b | c]]"};
  const std::vector<std::string> kAtoms = {"a", "b", "c", "d", "@x", "@y"};
  std::mt19937_64 rng(7);
  for (int round = 0; round < 40; ++round) {
    std::vector<std::string> pats;
    size_t n_pats = 2 + rng() % 8;
    for (size_t j = 0; j < n_pats; ++j) {
      pats.push_back(kPatternPool[rng() % kPatternPool.size()]);
    }
    std::string lst = "[";
    size_t len = rng() % 12;
    for (size_t i = 0; i < len; ++i) {
      if (i > 0) lst += ' ';
      lst += kAtoms[rng() % kAtoms.size()];
    }
    lst += ']';
    CheckAgainstSequential(pats, lst);
  }
}

TEST_F(MultiNfaTest, WholeMatchModeAnswersEveryPatternAtTheEnd) {
  // Whole-match bits are the anchored answers, read after the last element.
  ASSERT_OK_AND_ASSIGN(MultiNfa multi,
                       MultiNfa::Compile(Bodies({"a b", "a ?*", "b"})));
  multi.Seal();
  ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&multi));
  for (const auto& [lst, want] :
       std::vector<std::pair<std::string, uint64_t>>{{"[a b]", 0b011},
                                                     {"[a]", 0b010},
                                                     {"[b]", 0b100},
                                                     {"[x a b]", 0},
                                                     {"[]", 0}}) {
    EXPECT_EQ(multi.MatchAll(store_, L(lst)), want) << lst;
    EXPECT_EQ(dfa.MatchAll(store_, L(lst)), want) << lst;
  }
}

TEST_F(MultiNfaTest, LazyDfaCachesTransitions) {
  ASSERT_OK_AND_ASSIGN(MultiNfa multi,
                       MultiNfa::CompileSearch(Bodies({"a b", "b c"})));
  ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&multi));
  List l = L("[a b c a b c a b c]");
  uint64_t first = dfa.MatchAll(store_, l);
  uint64_t misses_after_first = dfa.cache_misses();
  uint64_t second = dfa.MatchAll(store_, l);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, 0b11u);
  // The second scan replays cached transitions only.
  EXPECT_EQ(dfa.cache_misses(), misses_after_first);
  EXPECT_GT(dfa.cache_hits(), 0u);
}

TEST_F(MultiNfaTest, ScanReportsTheRowsItEvaluated) {
  // Every element is evaluated when some pattern never matches; the scan
  // stops early once all patterns have matched.
  ASSERT_OK_AND_ASSIGN(MultiNfa multi,
                       MultiNfa::CompileSearch(Bodies({"a", "zz"})));
  ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&multi));
  size_t rows = 0;
  EXPECT_EQ(dfa.MatchAll(store_, L("[a b @x c]"), &rows), 0b01u);
  EXPECT_EQ(rows, 4u);
  EXPECT_EQ(multi.MatchAll(store_, L("[a b @x c]"), &rows), 0b01u);
  EXPECT_EQ(rows, 4u);
  EXPECT_EQ(dfa.MatchAll(store_, L("[]"), &rows), 0u);
  EXPECT_EQ(rows, 0u);
}

TEST_F(MultiNfaTest, CompileRejectsBadGroups) {
  EXPECT_TRUE(MultiNfa::CompileSearch({}).status().IsInvalidArgument());
  std::vector<ListPatternRef> many(65, LP("a").body);
  EXPECT_TRUE(MultiNfa::CompileSearch(many).status().IsInvalidArgument());
  // Tree atoms are the matcher's job.
  std::vector<ListPatternRef> with_tree = {
      ListPattern::TreeAtom(TreePattern::AnyLeaf())};
  EXPECT_TRUE(
      MultiNfa::CompileSearch(with_tree).status().IsInvalidArgument());
}

TEST_F(MultiNfaTest, LazyDfaAgreesOnWideAlphabets) {
  // 59 one-predicate patterns (one signature word, past the old 58-bit
  // key) and 35 two-predicate patterns `x{2k} x{2k+1}` (70 predicates, two
  // words): over seeded random lists, the merged DFA, cold and warmed,
  // answers like the merged NFA and the backtracker, pattern by pattern.
  std::mt19937_64 rng(59);
  for (int wide : {0, 1}) {
    std::vector<ListPatternRef> bodies;
    for (int k = 0; k < (wide ? 35 : 59); ++k) {
      bodies.push_back(
          LP(wide ? Names({2 * k, 2 * k + 1}) : Names({k})).body);
    }
    ASSERT_OK_AND_ASSIGN(MultiNfa multi, MultiNfa::CompileSearch(bodies));
    ASSERT_EQ(multi.alphabet().size(), wide ? 70u : 59u);
    ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&multi));
    for (int round = 0; round < 20; ++round) {
      std::string lit = "[";
      for (size_t i = 0, len = rng() % 40; i < len; ++i) {
        lit += (i > 0 ? " x" : "x") + std::to_string(rng() % 72);
      }
      List l = L(lit + "]");
      const uint64_t expected = SequentialMatchAll(bodies, l);
      EXPECT_EQ(multi.MatchAll(store_, l), expected) << lit;
      EXPECT_EQ(dfa.MatchAll(store_, l), expected) << lit;
      EXPECT_EQ(dfa.MatchAll(store_, l), expected) << "warmed, " << lit;
    }
    EXPECT_GT(dfa.cache_hits(), 0u);
  }
}

TEST_F(MultiNfaTest, SixtyFourPatternsFillTheMask) {
  std::vector<ListPatternRef> bodies(64, LP("a").body);
  ASSERT_OK_AND_ASSIGN(MultiNfa multi, MultiNfa::CompileSearch(bodies));
  EXPECT_EQ(multi.full_mask(), ~0ULL);
  EXPECT_EQ(multi.MatchAll(store_, L("[a]")), ~0ULL);
  EXPECT_EQ(multi.MatchAll(store_, L("[b]")), 0u);
}

}  // namespace
}  // namespace aqua
