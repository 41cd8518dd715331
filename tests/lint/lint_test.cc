#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "obs/obs.h"
#include "query/builder.h"
#include "test_util.h"

namespace aqua::lint {
namespace {

bool Has(const std::vector<Diagnostic>& diags, DiagCode code) {
  return std::any_of(diags.begin(), diags.end(),
                     [code](const Diagnostic& d) { return d.code == code; });
}

class LintPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One stored and one computed attribute (§3.1 footnote 2).
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
    Tree t = Tree::Node(NodePayload::Cell(a),
                        {Tree::Leaf(NodePayload::Cell(b))});
    ASSERT_OK(db_.RegisterTree("docs", std::move(t)));
    List l;
    l.Append(NodePayload::Cell(a));
    l.Append(NodePayload::Cell(b));
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
  PredicateRef P(const std::string& p) {
    auto pred = ParsePredicate(p);
    EXPECT_TRUE(pred.ok()) << pred.status().ToString();
    return pred.ok() ? *pred : nullptr;
  }

  Database db_;
};

TEST_F(LintPlanTest, CleanPlanHasNoDiagnostics) {
  auto plan = Q::TreeSubSelect(Q::ScanTree("docs"), TP("a(?*)"));
  EXPECT_TRUE(Lint(db_, plan).empty());
}

TEST_F(LintPlanTest, AQL012UnknownCollection) {
  auto diags = Lint(db_, Q::TreeSubSelect(Q::ScanTree("missing"), TP("a")));
  ASSERT_TRUE(Has(diags, DiagCode::kUnknownCollection));
  EXPECT_EQ(diags.front().severity, Severity::kError);
  EXPECT_EQ(diags.front().context, "ScanTree");
}

TEST_F(LintPlanTest, AQL010TreeOpOverListCollection) {
  // `docs` is a tree; scanning it as a list (and vice versa) is a
  // parameter mismatch, as is feeding a tree operator from a list scan.
  EXPECT_TRUE(Has(Lint(db_, Q::ScanList("docs")),
                  DiagCode::kOperatorParamMismatch));
  EXPECT_TRUE(Has(Lint(db_, Q::ScanTree("doclist")),
                  DiagCode::kOperatorParamMismatch));
  EXPECT_TRUE(
      Has(Lint(db_, Q::TreeSubSelect(Q::ScanList("doclist"), TP("a"))),
          DiagCode::kOperatorParamMismatch));
}

TEST_F(LintPlanTest, AQL010IndexedOpWithoutIndex) {
  auto plan = Q::IndexedSubSelect("docs", "title",
                                  P("title == \"a\""), TP("a(?*)"), {});
  EXPECT_TRUE(Has(Lint(db_, plan), DiagCode::kOperatorParamMismatch));
  // With the index built, the same plan is clean.
  ASSERT_OK(db_.CreateIndex("docs", "title"));
  EXPECT_TRUE(Lint(db_, plan).empty());
}

TEST_F(LintPlanTest, AQL009AndAQL005ForUnsatisfiableSelect) {
  auto diags =
      Lint(db_, Q::TreeSelect(Q::ScanTree("docs"),
                              P("title == \"a\" && title == \"b\"")));
  EXPECT_TRUE(Has(diags, DiagCode::kContradictoryPredicate));
  EXPECT_TRUE(Has(diags, DiagCode::kEmptyOperator));
}

TEST_F(LintPlanTest, AQL009ForEmptyPatternOperator) {
  auto diags = Lint(
      db_, Q::ListSubSelect(Q::ScanList("doclist"),
                            LP("{x > 3 && x < 1}")));
  EXPECT_TRUE(Has(diags, DiagCode::kEmptyOperator));
  EXPECT_TRUE(Has(diags, DiagCode::kEmptyPattern));
}

TEST_F(LintPlanTest, AQL011ComputedAttribute) {
  auto diags = Lint(db_, Q::TreeSubSelect(Q::ScanTree("docs"),
                                          TP("{word_count > 10}")));
  ASSERT_TRUE(Has(diags, DiagCode::kComputedAttribute));
  for (const Diagnostic& d : diags) {
    if (d.code != DiagCode::kComputedAttribute) continue;
    EXPECT_EQ(d.severity, Severity::kError);
    EXPECT_NE(d.message.find("word_count"), std::string::npos);
  }
}

/// The AQL011 findings of linting `plan`, in emission order.
std::vector<Diagnostic> Aql011(const Database& db, const PlanRef& plan) {
  std::vector<Diagnostic> out;
  for (Diagnostic& d : Lint(db, plan)) {
    if (d.code == DiagCode::kComputedAttribute) out.push_back(std::move(d));
  }
  return out;
}

TEST_F(LintPlanTest, AQL011NotForComputedAttributeOfAbsentType) {
  EXPECT_TRUE(Aql011(db_, Q::TreeSubSelect(Q::ScanTree("docs"),
                                           TP("{summary == \"x\"}")))
                  .empty());
  EXPECT_TRUE(Aql011(db_, Q::ListSubSelect(Q::ScanList("doclist"),
                                           LP("{summary == \"x\"}")))
                  .empty());
}

TEST_F(LintPlanTest, AQL011NotForUnreadComputedAttribute) {
  // `Doc` is present and declares `word_count` computed; nothing reads it.
  EXPECT_TRUE(
      Aql011(db_, Q::TreeSelect(Q::ScanTree("docs"), P("title == \"a\"")))
          .empty());
}

TEST_F(LintPlanTest, AQL011MessageAndSpan) {
  const std::string text = "{title == \"a\" && word_count > 1}";
  auto diags = Aql011(db_, Q::TreeSubSelect(Q::ScanTree("docs"), TP(text)));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].message,
            "alphabet-predicates may only use stored attributes (§3.1): "
            "'word_count' is computed in type 'Doc'");
  EXPECT_EQ(SpanText(text, diags[0].span), "word_count > 1");
  EXPECT_EQ(diags[0].context, "TreeSubSelect");
}

TEST_F(LintPlanTest, AQL012ForUnknownCollectionWithStoredPredicate) {
  auto diags = Lint(db_, Q::TreeSelect(Q::ScanTree("missing"),
                                       P("title == \"a\"")));
  EXPECT_TRUE(Has(diags, DiagCode::kUnknownCollection));
  EXPECT_FALSE(Has(diags, DiagCode::kComputedAttribute));
}

TEST_F(LintPlanTest, PatternSourceRendersCarets) {
  PlanLintOptions opts;
  opts.pattern_source = "{title == \"a\" && title == \"b\"}";
  auto diags = LintPlan(
      db_,
      Q::TreeSubSelect(Q::ScanTree("docs"),
                       TP("{title == \"a\" && title == \"b\"}")),
      opts);
  ASSERT_FALSE(diags.empty());
  std::string rendered = RenderDiagnostics(diags);
  EXPECT_NE(rendered.find("^"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("title"), std::string::npos) << rendered;
}

TEST_F(LintPlanTest, EmitsObsCounters) {
  obs::Registry::Global().ResetAll();
  obs::Registry::set_enabled(true);
  auto diags = Lint(db_, Q::TreeSubSelect(Q::ScanTree("missing"), TP("a")));
  ASSERT_FALSE(diags.empty());
#ifndef AQUA_OBS_DISABLED
  // The count macros expand to nothing when observability is compiled out.
  EXPECT_GE(obs::Registry::Global().GetCounter("lint.diag_emitted")->value(),
            diags.size());
  EXPECT_GE(obs::Registry::Global().GetCounter("lint.diag.AQL012")->value(),
            1u);
#endif
}

TEST(LintAttrScanTest, NoCellReadWithoutAComputedAttribute) {
  Database db;
  ASSERT_OK(db.store()
                .schema()
                .RegisterType("Item", {{"name", ValueType::kString, true}})
                .status());
  ASSERT_OK_AND_ASSIGN(
      Oid a, db.store().Create("Item", {{"name", Value::String("a")}}));
  ASSERT_OK_AND_ASSIGN(
      Oid b, db.store().Create("Item", {{"name", Value::String("b")}}));
  Tree tree;
  NodeId root = tree.AddNode(NodePayload::Cell(a));
  ASSERT_OK(tree.SetRoot(root));
  std::vector<NodeId> nodes = {root};
  for (size_t i = 1; i < 10000; ++i) {
    NodeId v = tree.AddNode(NodePayload::Cell(i % 2 == 0 ? a : b));
    ASSERT_OK(tree.AddChild(nodes[(i - 1) / 4], v));
    nodes.push_back(v);
  }
  ASSERT_OK(db.RegisterTree("big", std::move(tree)));
  auto name_is_a = ParsePredicate("name == \"a\"");
  ASSERT_OK(name_is_a.status());
  auto plan = Q::TreeSelect(Q::TreeSelect(Q::ScanTree("big"), *name_is_a),
                            *name_is_a);

  obs::Registry::set_enabled(true);
  obs::Counter* cells = obs::Registry::Global().GetCounter(
      "lint.attr_scan_cells");
  uint64_t before = cells->value();
  EXPECT_TRUE(Aql011(db, plan).empty());
  EXPECT_EQ(cells->value(), before);

#ifndef AQUA_OBS_DISABLED
  // Once some type declares the read attribute computed, the check must
  // read the cells: all of them when that type is absent, and once per
  // collection however many plan nodes read it.
  ASSERT_OK(db.store()
                .schema()
                .RegisterType("Memo", {{"name", ValueType::kString,
                                        /*stored=*/false}})
                .status());
  before = cells->value();
  EXPECT_TRUE(Aql011(db, plan).empty());
  EXPECT_EQ(cells->value() - before, 10000u);
#endif
}

}  // namespace
}  // namespace aqua::lint
