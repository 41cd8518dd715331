#include "index/attribute_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"

namespace aqua {
namespace {

class AttributeIndexTest : public testing::AquaTestBase {
 protected:
  void SetUp() override {
    AquaTestBase::SetUp();
    tree_ = T("a(b(a c) b a)");  // names: a,b,a,c,b,a
    ASSERT_OK_AND_ASSIGN(
        index_, AttributeIndex::BuildForTree(store_, tree_, "name"));
    // val index over a list with known values.
    ASSERT_OK(RegisterItemType(store_));
    List l;
    for (int v : {5, 3, 9, 3, 7}) {
      auto oid = store_.Create("Item", {{"name", Value::String("n")},
                                        {"val", Value::Int(v)}});
      ASSERT_OK(oid);
      l.Append(NodePayload::Cell(*oid));
    }
    list_ = l;
    ASSERT_OK_AND_ASSIGN(val_index_,
                         AttributeIndex::BuildForList(store_, list_, "val"));
  }

  Tree tree_;
  List list_;
  AttributeIndex index_;
  AttributeIndex val_index_;
};

TEST_F(AttributeIndexTest, BuildStats) {
  EXPECT_EQ(index_.attr(), "name");
  EXPECT_EQ(index_.size(), 6u);
  EXPECT_EQ(index_.collection_size(), 6u);
  EXPECT_EQ(index_.num_distinct(), 3u);
  EXPECT_EQ(val_index_.num_distinct(), 4u);
}

TEST_F(AttributeIndexTest, PointLookup) {
  auto as = index_.Lookup(Value::String("a"));
  EXPECT_EQ(as.size(), 3u);
  // Document order, which in a parsed literal is ascending NodeId order.
  for (size_t i = 1; i < as.size(); ++i) EXPECT_LT(as[i - 1], as[i]);
  EXPECT_EQ(index_.Lookup(Value::String("zzz")).size(), 0u);
}

TEST_F(AttributeIndexTest, LookupReturnsActualMatchingNodes) {
  for (NodeId v : index_.Lookup(Value::String("b"))) {
    auto name = store_.GetAttr(tree_.payload(v).oid(), "name");
    ASSERT_TRUE(name.ok());
    EXPECT_EQ(name->string_value(), "b");
  }
}

TEST_F(AttributeIndexTest, RangeLookup) {
  Value lo = Value::Int(3), hi = Value::Int(7);
  EXPECT_EQ(val_index_.LookupRange(&lo, true, &hi, true).size(), 4u);
  EXPECT_EQ(val_index_.LookupRange(&lo, false, &hi, true).size(), 2u);
  EXPECT_EQ(val_index_.LookupRange(&lo, true, &hi, false).size(), 3u);
  EXPECT_EQ(val_index_.LookupRange(nullptr, false, &hi, false).size(), 3u);
  EXPECT_EQ(val_index_.LookupRange(&lo, false, nullptr, false).size(), 3u);
  EXPECT_EQ(val_index_.LookupRange(nullptr, false, nullptr, false).size(), 5u);
}

TEST_F(AttributeIndexTest, TreeProbesAnswerInPreorder) {
  // Random attachment to earlier parents hands out NodeIds out of preorder;
  // every probe must still answer in preorder, the order the matcher's
  // roots require.
  RandomTreeSpec spec;
  spec.num_nodes = 400;
  spec.labels = {"a", "b", "c"};
  spec.val_range = 50;
  spec.seed = 7;
  ASSERT_OK_AND_ASSIGN(Tree tree, MakeRandomTree(store_, spec));
  const std::vector<NodeId> preorder = tree.Preorder();
  ASSERT_FALSE(std::is_sorted(preorder.begin(), preorder.end()));
  ASSERT_OK_AND_ASSIGN(AttributeIndex names,
                       AttributeIndex::BuildForTree(store_, tree, "name"));
  ASSERT_OK_AND_ASSIGN(AttributeIndex vals,
                       AttributeIndex::BuildForTree(store_, tree, "val"));
  auto in_preorder = [&](const Predicate& pred) {
    std::vector<NodeId> out;
    for (NodeId v : preorder) {
      if (pred.Eval(store_, tree.payload(v).oid())) out.push_back(v);
    }
    return out;
  };

  for (const char* label : {"a", "b", "c"}) {
    auto eq = Predicate::AttrEquals("name", Value::String(label));
    ASSERT_OK_AND_ASSIGN(auto got, names.Probe(*eq));
    EXPECT_EQ(got, in_preorder(*eq)) << "name == " << label;
  }
  for (CmpOp op : {CmpOp::kEq, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    auto pred = Predicate::Compare("val", op, Value::Int(20));
    ASSERT_OK_AND_ASSIGN(auto got, vals.Probe(*pred));
    EXPECT_EQ(got, in_preorder(*pred)) << pred->ToString();
  }
  Value lo = Value::Int(10), hi = Value::Int(40);
  auto between = Predicate::And(Predicate::Compare("val", CmpOp::kGe, lo),
                                Predicate::Compare("val", CmpOp::kLt, hi));
  EXPECT_EQ(vals.LookupRange(&lo, true, &hi, false), in_preorder(*between));
}

TEST_F(AttributeIndexTest, ProbeSupportedOps) {
  auto eq = Predicate::AttrEquals("val", Value::Int(3));
  ASSERT_OK_AND_ASSIGN(auto eq_nodes, val_index_.Probe(*eq));
  EXPECT_EQ(eq_nodes.size(), 2u);

  auto lt = Predicate::Compare("val", CmpOp::kLt, Value::Int(7));
  ASSERT_OK_AND_ASSIGN(auto lt_nodes, val_index_.Probe(*lt));
  EXPECT_EQ(lt_nodes.size(), 3u);

  auto ge = Predicate::Compare("val", CmpOp::kGe, Value::Int(7));
  ASSERT_OK_AND_ASSIGN(auto ge_nodes, val_index_.Probe(*ge));
  EXPECT_EQ(ge_nodes.size(), 2u);
}

TEST_F(AttributeIndexTest, CanProbeRules) {
  EXPECT_TRUE(val_index_.CanProbe(
      *Predicate::AttrEquals("val", Value::Int(1))));
  // Wrong attribute.
  EXPECT_FALSE(val_index_.CanProbe(
      *Predicate::AttrEquals("name", Value::String("x"))));
  // != is not a contiguous range.
  EXPECT_FALSE(val_index_.CanProbe(
      *Predicate::Compare("val", CmpOp::kNe, Value::Int(1))));
  // Boolean structure is not probe-able directly.
  EXPECT_FALSE(val_index_.CanProbe(*Predicate::And(
      Predicate::AttrEquals("val", Value::Int(1)), Predicate::True())));
  EXPECT_TRUE(val_index_.Probe(*Predicate::True()).status().IsInvalidArgument());
}

TEST_F(AttributeIndexTest, SelectivityExactForProbes) {
  auto eq = Predicate::AttrEquals("val", Value::Int(3));
  EXPECT_DOUBLE_EQ(val_index_.Selectivity(*eq), 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(val_index_.Selectivity(*Predicate::True()), 1.0);
}

TEST_F(AttributeIndexTest, HeterogeneousCollectionsSkipMissingAttrs) {
  // Mix Person and Item cells; index on "citizen" covers only Persons.
  ASSERT_OK(RegisterPersonType(store_));
  ASSERT_OK_AND_ASSIGN(Oid person,
                       store_.Create("Person", {{"name", Value::String("P")},
                                                {"citizen",
                                                 Value::String("USA")}}));
  Tree mixed = Tree::Node(NodePayload::Cell(person), {T("a")});
  ASSERT_OK_AND_ASSIGN(
      AttributeIndex idx,
      AttributeIndex::BuildForTree(store_, mixed, "citizen"));
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx.collection_size(), 2u);
}

TEST_F(AttributeIndexTest, PointsAreNotIndexed) {
  Tree t = T("a(@p b)");
  ASSERT_OK_AND_ASSIGN(AttributeIndex idx,
                       AttributeIndex::BuildForTree(store_, t, "name"));
  EXPECT_EQ(idx.size(), 2u);  // a and b, not @p
}

TEST_F(AttributeIndexTest, NullAttributesAreSkipped) {
  ASSERT_OK_AND_ASSIGN(Oid no_val,
                       store_.Create("Item", {{"name", Value::String("nv")}}));
  List l;
  l.Append(NodePayload::Cell(no_val));
  ASSERT_OK_AND_ASSIGN(AttributeIndex idx,
                       AttributeIndex::BuildForList(store_, l, "val"));
  EXPECT_EQ(idx.size(), 0u);
}

}  // namespace
}  // namespace aqua
