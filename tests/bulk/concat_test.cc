#include "bulk/concat.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace aqua {
namespace {

using ConcatTest = testing::AquaTestBase;

TEST_F(ConcatTest, TreeConcatSubstitutesAtPoint) {
  Tree base = T("a(@1 c)");
  Tree attach = T("b(d e)");
  EXPECT_EQ(Str(ConcatAt(base, "1", attach)), "a(b(d e) c)");
}

TEST_F(ConcatTest, Figure1Composition) {
  // [[a(α1 α2) ∘_α1 b(d(f g) e)]] ∘_α2 c  =  a(b(d(f g) e) c)
  Tree step1 = ConcatAt(T("a(@1 @2)"), "1", T("b(d(f g) e)"));
  Tree result = ConcatAt(step1, "2", T("c"));
  EXPECT_TRUE(result.StructurallyEquals(T("a(b(d(f g) e) c)")));
  EXPECT_OK(result.Validate());
}

TEST_F(ConcatTest, MissingPointLeavesBaseUnchanged) {
  // Paper §3.3: no α1 in the first tree -> result is the first tree.
  Tree base = T("a(b)");
  Tree result = ConcatAt(base, "zz", T("c"));
  EXPECT_TRUE(result.StructurallyEquals(base));
}

TEST_F(ConcatTest, NilAttachmentDeletesPoint) {
  EXPECT_EQ(Str(ConcatNilAt(T("a(@1 c)"), "1")), "a(c)");
  // Deleting a root point yields nil.
  EXPECT_TRUE(ConcatAt(T("@1"), "1", Tree()).empty());
}

TEST_F(ConcatTest, MultipleSameLabelPointsAllSubstituted) {
  Tree result = ConcatAt(T("a(@1 b @1)"), "1", T("x"));
  EXPECT_EQ(Str(result), "a(x b x)");
}

TEST_F(ConcatTest, CloseAllPointsTree) {
  Tree t = T("a(@1 b(@2) @3)");
  EXPECT_EQ(Str(CloseAllPoints(t)), "a(b)");
  // No points: unchanged.
  EXPECT_EQ(Str(CloseAllPoints(T("a(b)"))), "a(b)");
}

TEST_F(ConcatTest, CloseAllPointsTreeMatchesClosingEachLabel) {
  // Repeated labels, points at several depths and a point at the root:
  // the one-pass close equals closing every label with nil in turn, node
  // numbering included.
  for (const char* lit :
       {"a(@1 b(@2 @1) @1 c(d(@3) @2))", "a(@x)", "a(b c)", "@r",
        "a(b(c(@1)) @1 d(@2 e))"}) {
    Tree t = T(lit);
    Tree want = t;
    for (const std::string& label : t.PointLabels()) {
      want = ConcatNilAt(want, label);
    }
    Tree got = CloseAllPoints(t);
    EXPECT_EQ(Str(got), Str(want)) << lit;
    EXPECT_EQ(got.size(), want.size()) << lit;
    EXPECT_EQ(got.root(), want.root()) << lit;
    EXPECT_TRUE(got.StructurallyEquals(want)) << lit;
    EXPECT_OK(got.Validate());
  }
  EXPECT_TRUE(CloseAllPoints(T("@r")).empty());
  EXPECT_EQ(Str(CloseAllPoints(T("a(@1 b(@2 @1) @1)"))), "a(b)");
}

TEST_F(ConcatTest, ConcatAtRootPoint) {
  EXPECT_EQ(Str(ConcatAt(T("@r"), "r", T("a(b)"))), "a(b)");
}

TEST_F(ConcatTest, SelfConcatElements) {
  // Figure 2: [[a(b c α)]]*α — elements for k = 0..3.
  Tree body = T("a(b c @x)");
  EXPECT_TRUE(SelfConcatElement(body, "x", 0).empty());
  EXPECT_EQ(Str(SelfConcatElement(body, "x", 1)), "a(b c)");
  EXPECT_EQ(Str(SelfConcatElement(body, "x", 2)), "a(b c a(b c))");
  EXPECT_EQ(Str(SelfConcatElement(body, "x", 3)), "a(b c a(b c a(b c)))");
}

TEST_F(ConcatTest, ListConcatAppends) {
  EXPECT_EQ(Str(Concat(L("[a b c]"), L("[c b a]"))), "[a b c c b a]");
  EXPECT_EQ(Str(Concat(L("[]"), L("[a]"))), "[a]");
}

TEST_F(ConcatTest, ListConcatAtPoint) {
  EXPECT_EQ(Str(ConcatAt(L("[a @m c]"), "m", L("[x y]"))), "[a x y c]");
  EXPECT_EQ(Str(ConcatNilAt(L("[a @m c]"), "m")), "[a c]");
  // Missing label: unchanged.
  EXPECT_TRUE(ConcatAt(L("[a b]"), "m", L("[x]")) == L("[a b]"));
}

TEST_F(ConcatTest, CloseAllPointsList) {
  EXPECT_EQ(Str(CloseAllPoints(L("[@1 a @2 b @3]"))), "[a b]");
}

TEST_F(ConcatTest, ListToTreeRoundTrip) {
  List l = L("[a b c @x]");
  ASSERT_OK_AND_ASSIGN(Tree t, ListToTree(l));
  EXPECT_TRUE(IsListLike(t));
  EXPECT_EQ(Str(t), "a(b(c(@x)))");
  EXPECT_OK(t.Validate());
  auto back = TreeToList(t);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == l);
}

TEST_F(ConcatTest, ListToTreeRejectsInteriorPoint) {
  // §6: list-like trees can have a concatenation point only at the leaf.
  EXPECT_TRUE(ListToTree(L("[a @x c]")).status().IsInvalidArgument());
}

TEST_F(ConcatTest, EmptyListMapsToNil) {
  ASSERT_OK_AND_ASSIGN(Tree t, ListToTree(List()));
  EXPECT_TRUE(t.empty());
  auto back = TreeToList(Tree());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST_F(ConcatTest, TreeToListRejectsBranching) {
  EXPECT_TRUE(TreeToList(T("a(b c)")).status().IsInvalidArgument());
  EXPECT_FALSE(IsListLike(T("a(b c)")));
  EXPECT_TRUE(IsListLike(T("a(b(c))")));
}

TEST_F(ConcatTest, ListTreeConcatCorrespondence) {
  // §6: [abc] ∘ [cba]  ==  a(b(c(α))) ∘_α c(b(a)) under the mapping.
  List la = L("[a b c]");
  List lb = L("[c b a]");
  List lcat = Concat(la, lb);

  List la_pt = la;
  la_pt.Append(NodePayload::ConcatPoint("t"));
  ASSERT_OK_AND_ASSIGN(Tree ta, ListToTree(la_pt));
  ASSERT_OK_AND_ASSIGN(Tree tb, ListToTree(lb));
  Tree tcat = ConcatAt(ta, "t", tb);

  auto back = TreeToList(tcat);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == lcat);
}

}  // namespace
}  // namespace aqua
