#include "pattern/tree_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"

namespace aqua {
namespace {

class TreeMatcherTest : public testing::AquaTestBase {
 protected:
  std::vector<TreeMatch> Find(const std::string& tree_lit,
                              const std::string& pattern,
                              TreeMatchOptions opts = {}) {
    tree_ = T(tree_lit);
    TreeMatcher matcher(store_, tree_, opts);
    auto matches = matcher.FindAll(TP(pattern));
    EXPECT_TRUE(matches.ok()) << matches.status().ToString() << " for "
                              << pattern << " over " << tree_lit;
    return matches.ok() ? *matches : std::vector<TreeMatch>{};
  }

  std::string NameOf(NodeId v) const {
    const NodePayload& p = tree_.payload(v);
    return p.is_cell() ? label_(p.oid()) : "@" + p.label();
  }

  std::string MatchedNames(const TreeMatch& m) const {
    std::string out;
    for (NodeId v : m.matched) {
      if (!out.empty()) out += " ";
      out += NameOf(v);
    }
    return out;
  }

  std::string CutNames(const TreeMatch& m) const {
    std::string out;
    for (const TreeCut& c : m.cuts) {
      if (!out.empty()) out += " ";
      out += NameOf(c.node);
      if (c.from_prune) out += "!";
    }
    return out;
  }

  Tree tree_;
};

TEST_F(TreeMatcherTest, DepthGuardBoundsChildrenSequences) {
  // A children sequence nests one engine level per child it consumes, so
  // the depth guard bounds a wide node as it bounds a deep tree: `r(?*)`
  // over n children nests n + 3 levels (the root's node level, the
  // closure, one per child, the failed probe past the end). So the widest
  // node it may cover has kMaxDepth - 3 children, and wider ones are
  // refused, never a stack overflow.
  ASSERT_OK_AND_ASSIGN(Oid a, atom_("a"));
  ASSERT_OK_AND_ASSIGN(Oid r, atom_("r"));
  auto node_of = [&](size_t n) {
    std::vector<Tree> kids(n, Tree::Leaf(NodePayload::Cell(a)));
    return Tree::Node(NodePayload::Cell(r), kids);
  };
  tree_ = node_of(TreeMatcher::kMaxDepth - 3);
  TreeMatcher fits(store_, tree_);
  auto whole = fits.FindAll(TP("r(?*)"));
  ASSERT_OK(whole);
  EXPECT_EQ(whole->size(), 1u);

  for (size_t n : {TreeMatcher::kMaxDepth - 2, TreeMatcher::kMaxDepth + 1}) {
    tree_ = node_of(n);
    TreeMatcher too_wide(store_, tree_);
    auto refused = too_wide.FindAll(TP("r(?*)"));
    EXPECT_TRUE(refused.status().IsInvalidArgument())
        << n << " children: " << refused.status().ToString();
  }
}

TEST_F(TreeMatcherTest, DepthGuardCountsNestedChildrenSequences) {
  // Five nested nodes of kMaxDepth / 4 children each, descending through
  // the last child: each sequence alone is well inside the guard, but the
  // sequences nest inside one another, so together they exceed it. The
  // guard counts them as one derivation and refuses it instead of
  // overflowing the stack.
  ASSERT_OK_AND_ASSIGN(Oid a, atom_("a"));
  ASSERT_OK_AND_ASSIGN(Oid b, atom_("b"));
  const size_t width = TreeMatcher::kMaxDepth / 4;
  Tree nested = Tree::Leaf(NodePayload::Cell(b));
  for (int level = 0; level < 5; ++level) {
    std::vector<Tree> kids(width - 1, Tree::Leaf(NodePayload::Cell(b)));
    kids.push_back(nested);
    nested = Tree::Node(NodePayload::Cell(a), kids);
  }
  tree_ = nested;
  TreeMatcher matcher(store_, tree_);
  auto refused = matcher.FindAll(TP("^[[a(?* @x)]]*@x"));
  EXPECT_TRUE(refused.status().IsInvalidArgument())
      << refused.status().ToString();
}

TEST_F(TreeMatcherTest, LeafPatternMatchesEveryNodeWithThatName) {
  auto matches = Find("a(b a(b))", "b");
  ASSERT_EQ(matches.size(), 2u);
  for (const auto& m : matches) EXPECT_EQ(MatchedNames(m), "b");
}

TEST_F(TreeMatcherTest, LeafPatternCutsChildrenAsDescendants) {
  auto matches = Find("a(b(c d))", "b");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(MatchedNames(matches[0]), "b");
  EXPECT_EQ(CutNames(matches[0]), "c d");  // descendants, not prunes
}

TEST_F(TreeMatcherTest, NodePatternRequiresFullChildCoverage) {
  // b(d e) matches only a b-node whose children are exactly d, e.
  auto exact = Find("a(b(d e))", "b(d e)");
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(MatchedNames(exact[0]), "b d e");

  EXPECT_TRUE(Find("a(b(d e f))", "b(d e)").empty());
  EXPECT_TRUE(Find("a(b(d))", "b(d e)").empty());
  // Padding with ?* restores partial matching, as the paper's examples do.
  EXPECT_EQ(Find("a(b(d e f))", "b(d e ?*)").size(), 1u);
}

TEST_F(TreeMatcherTest, PaperMatExample) {
  // Figure 4's shape: "Mat"(? "Ed") — a node with exactly two children.
  tree_ = T("root(mat(x ed(deep)) mat(y))");
  TreeMatcher matcher(store_, tree_);
  auto matches = matcher.FindAll(TP("mat(? ed)"));
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ(MatchedNames((*matches)[0]), "mat x ed");
  // ed's child `deep` is a descendant cut.
  EXPECT_EQ(CutNames((*matches)[0]), "deep");
}

TEST_F(TreeMatcherTest, FamilyTreeSplitPattern) {
  ASSERT_OK_AND_ASSIGN(Tree family, MakePaperFamilyTree(store_));
  TreeMatcher matcher(store_, family);
  PatternParserOptions popts;
  PredicateEnv env;
  env.Bind("Brazil", Predicate::AttrEquals("citizen", Value::String("Brazil")));
  env.Bind("USA", Predicate::AttrEquals("citizen", Value::String("USA")));
  popts.env = &env;
  ASSERT_OK_AND_ASSIGN(TreePatternRef tp,
                       ParseTreePattern("Brazil(!?* USA !?*)", popts));
  ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(tp));
  ASSERT_EQ(matches.size(), 1u);
  const TreeMatch& m = matches[0];
  LabelFn name = AttrLabelFn(&store_, "name");
  EXPECT_EQ(name(family.payload(m.root).oid()), "Gen");
  ASSERT_EQ(m.matched.size(), 2u);  // Gen and John
  ASSERT_EQ(m.cuts.size(), 2u);    // Joe (pruned), Mary (descendant)
  EXPECT_TRUE(m.cuts[0].from_prune);
  EXPECT_FALSE(m.cuts[1].from_prune);
  EXPECT_EQ(name(family.payload(m.cuts[0].node).oid()), "Joe");
  EXPECT_EQ(name(family.payload(m.cuts[1].node).oid()), "Mary");
}

TEST_F(TreeMatcherTest, Disjunction) {
  auto matches = Find("a(b c)", "b | c");
  EXPECT_EQ(matches.size(), 2u);
}

TEST_F(TreeMatcherTest, RootAnchor) {
  auto anchored = Find("a(b a(c))", "^a");
  ASSERT_EQ(anchored.size(), 1u);
  EXPECT_EQ(anchored[0].root, tree_.root());
  EXPECT_EQ(Find("a(b a(c))", "a").size(), 2u);
}

TEST_F(TreeMatcherTest, LeafAnchor) {
  // b(d e)⊥ requires d and e to be tree leaves.
  EXPECT_EQ(Find("a(b(d e))", "[[b(d e)]]$").size(), 1u);
  EXPECT_TRUE(Find("a(b(d(x) e))", "[[b(d e)]]$").empty());
  // Without the anchor, the deeper tree matches with a cut.
  EXPECT_EQ(Find("a(b(d(x) e))", "b(d e)").size(), 1u);
}

TEST_F(TreeMatcherTest, PaperLeafAnchorExample) {
  // §3.3: b(d e⊥) matches in b(d(f g) e) — wait, the paper's ⊥ applies to
  // the whole pattern; both ⊤b(d e) and b(d e)⊥ match inside the second
  // tree of Figure 1 at its root. Here: the root-anchored form.
  tree_ = T("b(d(f g) e)");
  TreeMatcher matcher(store_, tree_);
  ASSERT_OK_AND_ASSIGN(auto top, matcher.FindAll(TP("^b(d e)")));
  EXPECT_EQ(top.size(), 1u);
  // Leaf-anchored fails (d has children f g).
  ASSERT_OK_AND_ASSIGN(auto leaf, matcher.FindAll(TP("[[b(d e)]]$")));
  EXPECT_TRUE(leaf.empty());
}

TEST_F(TreeMatcherTest, VariableArity) {
  // §5: printf(?* LargeData ?* LargeData ?*).
  tree_ = T("root(printf(x LargeData y LargeData) printf(LargeData z))");
  TreeMatcher matcher(store_, tree_);
  ASSERT_OK_AND_ASSIGN(
      auto matches,
      matcher.FindAll(TP("printf(?* LargeData ?* LargeData ?*)")));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(MatchedNames(matches[0]), "printf x LargeData y LargeData");
}

TEST_F(TreeMatcherTest, PruneWholePattern) {
  auto matches = Find("a(b(c))", "!b");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_TRUE(matches[0].matched.empty());
  EXPECT_EQ(CutNames(matches[0]), "b!");
}

TEST_F(TreeMatcherTest, PruneInsideChildren) {
  // select(!? and): keep select and and, cut the first child's subtree.
  tree_ = T("select(R(s t) and(p q))");
  TreeMatcher matcher(store_, tree_);
  ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(TP("select(!? and)")));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(MatchedNames(matches[0]), "select and");
  // Cuts in match order: R (pruned), then and's children p, q.
  EXPECT_EQ(CutNames(matches[0]), "R! p q");
}

TEST_F(TreeMatcherTest, ConcatAtComposition) {
  // Figure 1: [[a(@1 @2) .@1 b(d(f g) e)]] .@2 c over the composed tree.
  tree_ = T("a(b(d(f g) e) c)");
  TreeMatcher matcher(store_, tree_);
  ASSERT_OK_AND_ASSIGN(
      auto matches,
      matcher.FindAll(TP("[[a(@1 @2) .@1 [[b(d(f g) e)]]]] .@2 c")));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].root, tree_.root());
  EXPECT_EQ(matches[0].matched.size(), 7u);
  EXPECT_TRUE(matches[0].cuts.empty());
}

TEST_F(TreeMatcherTest, ConcatAtWithoutPointIsFirstOperand) {
  // §3.3: no α in the first tree -> the concatenation is just the first.
  auto matches = Find("a(b)", "[[a(b)]] .@zz c");
  EXPECT_EQ(matches.size(), 1u);
}

TEST_F(TreeMatcherTest, StarClosureUnrolls) {
  // [[a(b c @x)]]*@x — Figure 2's language members appear as matches.
  for (const char* lit : {"a(b c)", "a(b c a(b c))", "a(b c a(b c a(b c)))"}) {
    tree_ = T(lit);
    TreeMatcher matcher(store_, tree_);
    ASSERT_OK_AND_ASSIGN(auto matches,
                         matcher.FindAll(TP("^[[a(b c @x)]]*@x")));
    EXPECT_EQ(matches.size(), 1u) << lit;
  }
  // A tree outside the language does not match at the root.
  tree_ = T("a(b a(b c))");
  TreeMatcher matcher(store_, tree_);
  ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(TP("^[[a(b c @x)]]*@x")));
  EXPECT_TRUE(matches.empty());
}

TEST_F(TreeMatcherTest, PlusClosureRequiresOneIteration) {
  tree_ = T("a(b c)");
  TreeMatcher matcher(store_, tree_);
  ASSERT_OK_AND_ASSIGN(auto one, matcher.FindAll(TP("^[[a(b c @x)]]+@x")));
  EXPECT_EQ(one.size(), 1u);
  // The zero-iteration case (nil) never matches a nonempty root, so + and *
  // agree on nonempty trees rooted in the language.
  ASSERT_OK_AND_ASSIGN(auto star, matcher.FindAll(TP("^[[a(b c @x)]]*@x")));
  EXPECT_EQ(star.size(), one.size());
}

TEST_F(TreeMatcherTest, ListLikeClosureChain) {
  // §6: [d [[a c]]* b] as d(@1) ∘@1 [[a(c(@2))]]*@2 ∘@2 b over chains.
  const char* pattern = "[[d(@1) .@1 [[a(c(@2))]]*@2]] .@2 b";
  for (const char* lit : {"d(b)", "d(a(c(b)))", "d(a(c(a(c(b)))))"}) {
    tree_ = T(lit);
    TreeMatcher matcher(store_, tree_);
    ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(TP(pattern)));
    EXPECT_EQ(matches.size(), 1u) << lit;
    if (!matches.empty()) {
      EXPECT_EQ(matches[0].root, tree_.root());
    }
  }
  for (const char* lit : {"d(a(b))", "d(a(c(a(b))))", "b"}) {
    tree_ = T(lit);
    TreeMatcher matcher(store_, tree_);
    ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(TP(pattern)));
    for (const auto& m : matches) EXPECT_NE(m.root, tree_.root()) << lit;
  }
}

TEST_F(TreeMatcherTest, InstancePointMatchesPatternPoint) {
  auto matches = Find("a(@x b)", "a(@x b)");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(MatchedNames(matches[0]), "a @x b");
}

TEST_F(TreeMatcherTest, FreePointClosesWithNull) {
  // a(@x b) also matches a node with just the b child (point -> NULL).
  auto matches = Find("a(b)", "a(@x b)");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(MatchedNames(matches[0]), "a b");
}

TEST_F(TreeMatcherTest, MatchesAtAndAnywhere) {
  tree_ = T("a(b(c))");
  TreeMatcher matcher(store_, tree_);
  NodeId b = tree_.children(tree_.root())[0];
  ASSERT_OK_AND_ASSIGN(bool at_b, matcher.MatchesAt(TP("b(c)"), b));
  EXPECT_TRUE(at_b);
  ASSERT_OK_AND_ASSIGN(bool at_root, matcher.MatchesAt(TP("b(c)"),
                                                       tree_.root()));
  EXPECT_FALSE(at_root);
  ASSERT_OK_AND_ASSIGN(bool anywhere, matcher.MatchesAnywhere(TP("c")));
  EXPECT_TRUE(anywhere);
  ASSERT_OK_AND_ASSIGN(bool nowhere, matcher.MatchesAnywhere(TP("zz")));
  EXPECT_FALSE(nowhere);
  EXPECT_TRUE(matcher.MatchesAt(TP("a"), 999).status().IsOutOfRange());
}

TEST_F(TreeMatcherTest, FindAllAtRootsRestricts) {
  tree_ = T("a(b b)");
  TreeMatcher matcher(store_, tree_);
  NodeId second_b = tree_.children(tree_.root())[1];
  ASSERT_OK_AND_ASSIGN(auto matches,
                       matcher.FindAllAtRoots(TP("b"), {second_b}));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].root, second_b);
  EXPECT_TRUE(
      matcher.FindAllAtRoots(TP("b"), {9999}).status().IsOutOfRange());
}

TEST_F(TreeMatcherTest, FindAllAtRootsMatchesFindAllOnThoseRoots) {
  // NodeIds out of preorder (random attachment), roots in document order:
  // the matches and their order are FindAll's, restricted to the roots.
  RandomTreeSpec spec;
  spec.num_nodes = 300;
  spec.labels = {"a", "b", "c"};
  spec.seed = 3;
  ASSERT_OK_AND_ASSIGN(tree_, MakeRandomTree(store_, spec));
  std::vector<NodeId> roots;
  std::vector<bool> is_root(tree_.size(), false);
  size_t i = 0;
  for (NodeId v : tree_.Preorder()) {
    if (i++ % 3 == 0) {
      roots.push_back(v);
      is_root[v] = true;
    }
  }
  ASSERT_FALSE(std::is_sorted(roots.begin(), roots.end()));
  for (const char* pattern :
       {"a", "a(?* b ?*)", "a(!?* b ?*)", "?(?* a(?*) ?*)", "b(?* !? ?*)"}) {
    TreeMatcher matcher(store_, tree_);
    ASSERT_OK_AND_ASSIGN(auto all, matcher.FindAll(TP(pattern)));
    std::vector<TreeMatch> want;
    for (const TreeMatch& m : all) {
      if (is_root[m.root]) want.push_back(m);
    }
    ASSERT_OK_AND_ASSIGN(auto got, matcher.FindAllAtRoots(TP(pattern), roots));
    EXPECT_GT(want.size(), 1u) << pattern;
    EXPECT_TRUE(got == want) << pattern << ": " << got.size() << " vs "
                             << want.size() << " matches";
  }
}

TEST_F(TreeMatcherTest, MemoizationPreservesResults) {
  TreeMatchOptions memo_on;
  TreeMatchOptions memo_off;
  memo_off.memoize = false;
  auto with = Find("a(b(c d) b(c))", "b(!?* c !?*)", memo_on);
  auto without = Find("a(b(c d) b(c))", "b(!?* c !?*)", memo_off);
  EXPECT_EQ(with.size(), without.size());
}

TEST_F(TreeMatcherTest, IdenticalDerivationsAreDeduplicated) {
  // `b(!?* !?*)` decomposes {c, d} between the two pruned stars in three
  // ways, but every decomposition yields the same cuts — one match.
  auto all = Find("a(b(c d))", "b(!?* !?*)");
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(CutNames(all[0]), "c! d!");
}

TEST_F(TreeMatcherTest, FirstDerivationPerRootOption) {
  // `b(!?* ?*)` has genuinely distinct decompositions: the boundary between
  // pruned and matched children moves.
  auto all = Find("a(b(c d))", "b(!?* ?*)");
  EXPECT_EQ(all.size(), 3u);
  TreeMatchOptions opts;
  opts.first_derivation_per_root = true;
  auto first = Find("a(b(c d))", "b(!?* ?*)", opts);
  EXPECT_EQ(first.size(), 1u);
}

TEST_F(TreeMatcherTest, MaxMatchesBound) {
  TreeMatchOptions opts;
  opts.max_matches = 2;
  auto matches = Find("a(b b b b b)", "b", opts);
  EXPECT_EQ(matches.size(), 2u);
}

TEST_F(TreeMatcherTest, EmptyTreeHasNoMatches) {
  Tree empty;
  TreeMatcher matcher(store_, empty);
  ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(TP("a")));
  EXPECT_TRUE(matches.empty());
  ASSERT_OK_AND_ASSIGN(bool anywhere, matcher.MatchesAnywhere(TP("a")));
  EXPECT_FALSE(anywhere);
}

TEST_F(TreeMatcherTest, NullPatternRejected) {
  tree_ = T("a");
  TreeMatcher matcher(store_, tree_);
  EXPECT_TRUE(matcher.FindAll(nullptr).status().IsInvalidArgument());
}

TEST_F(TreeMatcherTest, StepsCounterAdvances) {
  tree_ = T("a(b c)");
  TreeMatcher matcher(store_, tree_);
  ASSERT_OK(matcher.FindAll(TP("a(?*)")).status());
  EXPECT_GT(matcher.steps(), 0u);
}

}  // namespace
}  // namespace aqua
