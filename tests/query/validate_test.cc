#include "query/validate.h"

#include <gtest/gtest.h>

#include "query/builder.h"
#include "test_util.h"

namespace aqua {
namespace {

class ValidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A type with one stored and one computed attribute (§3.1 footnote 2).
    ASSERT_OK(db_.store()
                  .schema()
                  .RegisterType("Doc", {{"title", ValueType::kString, true},
                                        {"word_count", ValueType::kInt,
                                         /*stored=*/false}})
                  .status());
    // `summary` is computed only in `Memo`, which no collection holds.
    ASSERT_OK(db_.store()
                  .schema()
                  .RegisterType("Memo", {{"title", ValueType::kString, true},
                                         {"summary", ValueType::kString,
                                          /*stored=*/false}})
                  .status());
    ASSERT_OK_AND_ASSIGN(
        Oid a, db_.store().Create("Doc", {{"title", Value::String("a")}}));
    ASSERT_OK_AND_ASSIGN(
        Oid b, db_.store().Create("Doc", {{"title", Value::String("b")}}));
    tree_ = Tree::Node(NodePayload::Cell(a),
                       {Tree::Leaf(NodePayload::Cell(b))});
    ASSERT_OK(db_.RegisterTree("docs", tree_));
    List l;
    l.Append(NodePayload::Cell(a));
    l.Append(NodePayload::Cell(b));
    list_ = l;
    ASSERT_OK(db_.RegisterList("doclist", std::move(l)));
  }

  TreePatternRef TP(const std::string& p) {
    PatternParserOptions opts;
    opts.default_attr = "title";
    auto tp = ParseTreePattern(p, opts);
    EXPECT_TRUE(tp.ok()) << tp.status().ToString();
    return tp.ok() ? *tp : nullptr;
  }
  AnchoredListPattern LP(const std::string& p) {
    PatternParserOptions opts;
    opts.default_attr = "title";
    auto lp = ParseListPattern(p, opts);
    EXPECT_TRUE(lp.ok()) << lp.status().ToString();
    return lp.ok() ? *lp : AnchoredListPattern{};
  }

  Database db_;
  Tree tree_;
  List list_;
};

TEST_F(ValidateTest, StoredAttributePasses) {
  EXPECT_OK(ValidateTreePatternAgainst(db_.store(), tree_,
                                       TP("{title == \"a\"}(?*)")));
  EXPECT_OK(ValidateListPatternAgainst(db_.store(), list_,
                                       LP("{title == \"a\"} ?")));
}

TEST_F(ValidateTest, ComputedAttributeRejected) {
  Status st = ValidateTreePatternAgainst(db_.store(), tree_,
                                         TP("{word_count > 100}(?*)"));
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("word_count"), std::string::npos);
  EXPECT_TRUE(ValidateListPatternAgainst(db_.store(), list_,
                                         LP("{word_count > 100}"))
                  .IsInvalidArgument());
}

TEST_F(ValidateTest, ComputedAttributeInsideStructureRejected) {
  // Nested in a child sequence / conjunction / prune — still found.
  EXPECT_TRUE(ValidateTreePatternAgainst(
                  db_.store(), tree_,
                  TP("{title == \"a\"}(!{word_count > 1} ?*)"))
                  .IsInvalidArgument());
  EXPECT_TRUE(ValidateTreePatternAgainst(
                  db_.store(), tree_,
                  TP("{title == \"a\" && word_count > 1}"))
                  .IsInvalidArgument());
}

TEST_F(ValidateTest, UnknownAttributeIsAllowed) {
  // Predicates on attributes no present type declares simply never match;
  // they are not a stored-ness violation.
  EXPECT_OK(ValidateTreePatternAgainst(db_.store(), tree_,
                                       TP("{citizen == \"USA\"}")));
}

TEST_F(ValidateTest, PlanValidationWalksScans) {
  auto good = Q::TreeSubSelect(Q::ScanTree("docs"), TP("{title == \"a\"}"));
  EXPECT_OK(ValidatePlanPatterns(db_, good));

  auto bad = Q::TreeSubSelect(Q::ScanTree("docs"), TP("{word_count > 1}"));
  EXPECT_TRUE(ValidatePlanPatterns(db_, bad).IsInvalidArgument());

  auto bad_select =
      Q::TreeSelect(Q::ScanTree("docs"),
                    Predicate::Compare("word_count", CmpOp::kGt,
                                       Value::Int(0)));
  EXPECT_TRUE(ValidatePlanPatterns(db_, bad_select).IsInvalidArgument());

  auto bad_list = Q::ListSubSelect(Q::ScanList("doclist"),
                                   LP("{word_count > 1}"));
  EXPECT_TRUE(ValidatePlanPatterns(db_, bad_list).IsInvalidArgument());

  EXPECT_TRUE(ValidatePlanPatterns(db_, nullptr).IsInvalidArgument());
}

TEST_F(ValidateTest, ComputedAttributeOfAbsentTypeIsAllowed) {
  EXPECT_OK(ValidatePlanPatterns(
      db_, Q::TreeSubSelect(Q::ScanTree("docs"), TP("{summary == \"x\"}"))));
  EXPECT_OK(ValidatePlanPatterns(
      db_, Q::ListSubSelect(Q::ScanList("doclist"), LP("{summary == \"x\"}"))));
  EXPECT_TRUE(TreePatternStoredAttrViolations(db_.store(), tree_,
                                              TP("{summary == \"x\"}"))
                  .empty());
  EXPECT_TRUE(ListPatternStoredAttrViolations(db_.store(), list_,
                                              LP("{summary == \"x\"}"))
                  .empty());
}

TEST_F(ValidateTest, UnreadComputedAttributeIsAllowed) {
  // `Doc` is present and declares `word_count` computed; nothing reads it.
  EXPECT_OK(ValidatePlanPatterns(
      db_, Q::TreeSelect(Q::ScanTree("docs"),
                         Predicate::AttrEquals("title", Value::String("a")))));
  EXPECT_OK(ValidatePlanPatterns(
      db_, Q::ListSubSelect(Q::ScanList("doclist"), LP("{title == \"a\"}"))));
}

TEST_F(ValidateTest, ComputedAttributeMessageAndSpan) {
  const std::string text = "{title == \"a\" && word_count > 1}";
  const std::string message =
      "alphabet-predicates may only use stored attributes (§3.1): "
      "'word_count' is computed in type 'Doc'";
  auto diags = TreePatternStoredAttrViolations(db_.store(), tree_, TP(text));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, lint::DiagCode::kComputedAttribute);
  EXPECT_EQ(diags[0].message, message);
  EXPECT_EQ(SpanText(text, diags[0].span), "word_count > 1");

  auto list_diags =
      ListPatternStoredAttrViolations(db_.store(), list_, LP(text));
  ASSERT_EQ(list_diags.size(), 1u);
  EXPECT_EQ(list_diags[0].message, message);
  EXPECT_EQ(SpanText(text, list_diags[0].span), "word_count > 1");

  Status st = ValidatePlanPatterns(
      db_, Q::TreeSubSelect(Q::ScanTree("docs"), TP(text)));
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), message);
}

TEST_F(ValidateTest, UnknownCollectionStaysNotFound) {
  // The schema alone clears a stored-only predicate, so no collection is
  // read; the unknown collection must still be a hard error.
  EXPECT_TRUE(
      ValidatePlanPatterns(db_, Q::TreeSubSelect(Q::ScanTree("missing"),
                                                 TP("{title == \"a\"}")))
          .IsNotFound());
  EXPECT_TRUE(
      ValidatePlanPatterns(db_, Q::ListSubSelect(Q::ScanList("missing"),
                                                 LP("{word_count > 1}")))
          .IsNotFound());
  // Below a clean operator, too.
  auto nested = Q::TreeSelect(
      Q::TreeSubSelect(Q::ScanTree("missing"), TP("{title == \"a\"}")),
      Predicate::AttrEquals("title", Value::String("a")));
  EXPECT_TRUE(ValidatePlanPatterns(db_, nested).IsNotFound());
}

TEST_F(ValidateTest, NullPatternsRejected) {
  EXPECT_TRUE(ValidateTreePatternAgainst(db_.store(), tree_, nullptr)
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ValidateListPatternAgainst(db_.store(), list_, AnchoredListPattern{})
          .IsInvalidArgument());
}

}  // namespace
}  // namespace aqua
