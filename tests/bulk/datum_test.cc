#include "bulk/datum.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "test_util.h"

namespace aqua {
namespace {

using DatumTest = testing::AquaTestBase;

TEST_F(DatumTest, Kinds) {
  EXPECT_TRUE(Datum().is_null());
  EXPECT_TRUE(Datum::Scalar(Value::Int(1)).is_scalar());
  EXPECT_TRUE(Datum::Of(T("a")).is_tree());
  EXPECT_TRUE(Datum::Of(L("[a]")).is_list());
  EXPECT_TRUE(Datum::Tuple({}).is_tuple());
  EXPECT_TRUE(Datum::Set({}).is_set());
}

TEST_F(DatumTest, SetDeduplicatesStructurally) {
  Datum s = Datum::Set({Datum::Of(T("a(b)")), Datum::Of(T("a(b)")),
                        Datum::Of(T("a(c)"))});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.SetContains(Datum::Of(T("a(b)"))));
  EXPECT_FALSE(s.SetContains(Datum::Of(T("b(a)"))));
}

TEST_F(DatumTest, SetEqualityIsOrderInsensitive) {
  Datum s1 = Datum::Set({Datum::Scalar(Value::Int(1)),
                         Datum::Scalar(Value::Int(2))});
  Datum s2 = Datum::Set({Datum::Scalar(Value::Int(2)),
                         Datum::Scalar(Value::Int(1))});
  EXPECT_TRUE(s1.Equals(s2));
  Datum s3 = Datum::Set({Datum::Scalar(Value::Int(1))});
  EXPECT_FALSE(s1.Equals(s3));
}

TEST_F(DatumTest, TupleEqualityIsPositional) {
  Datum t1 = Datum::Tuple({Datum::Scalar(Value::Int(1)),
                           Datum::Scalar(Value::Int(2))});
  Datum t2 = Datum::Tuple({Datum::Scalar(Value::Int(2)),
                           Datum::Scalar(Value::Int(1))});
  EXPECT_FALSE(t1.Equals(t2));
  EXPECT_TRUE(t1.Equals(Datum::Tuple(
      {Datum::Scalar(Value::Int(1)), Datum::Scalar(Value::Int(2))})));
}

TEST_F(DatumTest, MixedKindsNeverEqual) {
  EXPECT_FALSE(Datum::Of(T("a")).Equals(Datum::Of(L("[a]"))));
  EXPECT_FALSE(Datum().Equals(Datum::Set({})));
}

TEST_F(DatumTest, ListAndTreeEqualityDelegate) {
  EXPECT_TRUE(Datum::Of(L("[a b]")).Equals(Datum::Of(L("[a b]"))));
  EXPECT_FALSE(Datum::Of(L("[a b]")).Equals(Datum::Of(L("[b a]"))));
}

TEST_F(DatumTest, BuildersMutate) {
  Datum s = Datum::Set({});
  s.SetInsert(Datum::Scalar(Value::Int(1)));
  s.SetInsert(Datum::Scalar(Value::Int(1)));
  EXPECT_EQ(s.size(), 1u);
  Datum t = Datum::Tuple({});
  t.TupleAppend(Datum::Scalar(Value::Int(1)));
  EXPECT_EQ(t.size(), 1u);
}

TEST_F(DatumTest, ToStringForms) {
  EXPECT_EQ(Datum().ToString(label_), "null");
  EXPECT_EQ(Datum::Scalar(Value::Int(3)).ToString(label_), "3");
  EXPECT_EQ(Datum::Of(T("a(b)")).ToString(label_), "a(b)");
  EXPECT_EQ(Datum::Of(L("[a]")).ToString(label_), "[a]");
  Datum tup = Datum::Tuple({Datum::Of(T("a")), Datum::Of(L("[b]"))});
  EXPECT_EQ(tup.ToString(label_), "<a, [b]>");
  Datum set = Datum::Set({Datum::Scalar(Value::Int(1))});
  EXPECT_EQ(set.ToString(label_), "{1}");
}

Datum Num(double v) { return Datum::Scalar(Value::Double(v)); }
Datum Int(int64_t v) { return Datum::Scalar(Value::Int(v)); }

TEST_F(DatumTest, SetInsertHashesAgreeWithEquals) {
  // Numerically equal int and double, and the two zeros, are Equals, so
  // they hash alike and dedup; NaN equals nothing, so it never dedups.
  EXPECT_EQ(Int(8).Hash(), Num(8.0).Hash());
  EXPECT_EQ(Datum::Set({Int(8), Num(8.0)}).size(), 1u);
  EXPECT_EQ(Num(0.0).Hash(), Num(-0.0).Hash());
  EXPECT_EQ(Int(0).Hash(), Num(-0.0).Hash());
  EXPECT_EQ(Datum::Set({Num(0.0), Num(-0.0), Int(0)}).size(), 1u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Datum nans = Datum::Set({Num(nan), Num(nan)});
  EXPECT_EQ(nans.size(), 2u);
  EXPECT_FALSE(nans.SetContains(Num(nan)));
  EXPECT_NE(Int(8).Hash(), Int(9).Hash());
  EXPECT_NE(Int(8).Hash(), Datum::Scalar(Value::String("8")).Hash());
}

TEST_F(DatumTest, TreeHashIgnoresNodeNumbering) {
  // a(b c) built root-first and leaves-first: different NodeIds, equal
  // trees, equal hashes.
  auto payload = [&](const std::string& name) {
    Tree leaf = T(name);
    return leaf.payload(leaf.root());
  };
  Tree first;
  NodeId r1 = first.AddNode(payload("a"));
  NodeId b1 = first.AddNode(payload("b"));
  NodeId c1 = first.AddNode(payload("c"));
  ASSERT_OK(first.AddChild(r1, b1));
  ASSERT_OK(first.AddChild(r1, c1));
  ASSERT_OK(first.SetRoot(r1));
  Tree second;
  NodeId c2 = second.AddNode(payload("c"));
  NodeId b2 = second.AddNode(payload("b"));
  NodeId r2 = second.AddNode(payload("a"));
  ASSERT_OK(second.AddChild(r2, b2));
  ASSERT_OK(second.AddChild(r2, c2));
  ASSERT_OK(second.SetRoot(r2));
  ASSERT_NE(first.root(), second.root());
  Datum d1 = Datum::Of(first), d2 = Datum::Of(second);
  ASSERT_TRUE(d1.Equals(d2));
  EXPECT_EQ(d1.Hash(), d2.Hash());
  EXPECT_EQ(Datum::Set({d1, d2}).size(), 1u);
  // Same preorder payloads, different arities: the hash tells them apart.
  EXPECT_NE(Datum::Of(T("a(b c)")).Hash(), Datum::Of(T("a(b(c))")).Hash());
  EXPECT_NE(Datum::Of(T("a(b c)")).Hash(), Datum::Of(T("a(c b)")).Hash());
  EXPECT_NE(Datum::Of(T("a")).Hash(), Datum::Of(Tree()).Hash());
}

TEST_F(DatumTest, ListHashCoversPointsAndOrder) {
  EXPECT_EQ(Datum::Of(L("[a @1 b]")).Hash(), Datum::Of(L("[a @1 b]")).Hash());
  EXPECT_NE(Datum::Of(L("[a @1 b]")).Hash(), Datum::Of(L("[a @2 b]")).Hash());
  EXPECT_NE(Datum::Of(L("[a @1 b]")).Hash(), Datum::Of(L("[a b]")).Hash());
  EXPECT_NE(Datum::Of(L("[a b]")).Hash(), Datum::Of(L("[b a]")).Hash());
  Datum s = Datum::Set({Datum::Of(L("[a @1 b]")), Datum::Of(L("[a @2 b]")),
                        Datum::Of(L("[a @1 b]"))});
  EXPECT_EQ(s.ToString(label_), "{[a @1 b], [a @2 b]}");
  // A list and the list-like tree of the same payloads are different kinds.
  EXPECT_NE(Datum::Of(L("[a]")).Hash(), Datum::Of(T("a")).Hash());
}

TEST_F(DatumTest, SetElementsHashOrderInsensitively) {
  Datum s12 = Datum::Set({Int(1), Int(2)});
  Datum s21 = Datum::Set({Int(2), Num(1.0)});
  EXPECT_EQ(s12.Hash(), s21.Hash());
  EXPECT_NE(s12.Hash(), Datum::Set({Int(1), Int(3)}).Hash());
  Datum outer = Datum::Set({s12, s21, Datum::Set({Int(1)})});
  EXPECT_EQ(outer.size(), 2u);
  EXPECT_TRUE(outer.SetContains(Datum::Set({Num(2.0), Int(1)})));
  // Tuples stay positional.
  EXPECT_NE(Datum::Tuple({Int(1), Int(2)}).Hash(),
            Datum::Tuple({Int(2), Int(1)}).Hash());
}

TEST_F(DatumTest, HashedSetsMatchLinearDeduplication) {
  // Seeded trees, lists and nested sets with many duplicates, past the
  // size where a set switches from a hash scan to its table: SetInsert,
  // SetUnion of partial sets and Equals all agree with a linear scan
  // over Equals, in first-occurrence order.
  std::mt19937_64 rng(77);
  const char* names[] = {"a", "b", "c", "d"};
  auto random_tree = [&] {
    std::string lit = names[rng() % 4];
    if (rng() % 2 == 0) {
      lit += "(";
      for (size_t k = 0, n = 1 + rng() % 3; k < n; ++k) {
        lit += std::string(k > 0 ? " " : "") + names[rng() % 4];
      }
      lit += ")";
    }
    return T(lit);
  };
  std::vector<Datum> seq;
  for (int i = 0; i < 600; ++i) {
    switch (rng() % 4) {
      case 0:
        seq.push_back(Datum::Of(random_tree()));
        break;
      case 1:
        seq.push_back(Datum::Of(
            L(std::string("[") + names[rng() % 4] + " @" +
              std::to_string(rng() % 3) + " " + names[rng() % 4] + "]")));
        break;
      case 2:
        seq.push_back(Datum::Set({Int(rng() % 5), Num(rng() % 5)}));
        break;
      default:
        seq.push_back(Int(rng() % 40));
        break;
    }
  }
  std::vector<Datum> want;
  for (const Datum& d : seq) {
    bool seen = false;
    for (const Datum& w : want) seen = seen || w.Equals(d);
    if (!seen) want.push_back(d);
  }
  ASSERT_GT(want.size(), 100u);
  Datum inserted = Datum::Set({});
  Datum unioned = Datum::Set({});
  for (size_t begin = 0; begin < seq.size(); begin += 75) {
    Datum part = Datum::Set({});
    for (size_t i = begin; i < begin + 75 && i < seq.size(); ++i) {
      inserted.SetInsert(seq[i]);
      part.SetInsert(seq[i]);
    }
    unioned.SetUnion(std::move(part));
  }
  ASSERT_EQ(inserted.size(), want.size());
  ASSERT_EQ(unioned.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(inserted.at(i).Equals(want[i])) << i;
    EXPECT_TRUE(unioned.at(i).Equals(want[i])) << i;
  }
  for (const Datum& d : seq) {
    EXPECT_TRUE(inserted.SetContains(d));
    EXPECT_TRUE(unioned.SetContains(d));
  }
  EXPECT_TRUE(unioned.Equals(inserted));
  EXPECT_EQ(unioned.Hash(), inserted.Hash());
  EXPECT_FALSE(inserted.SetContains(Int(1000)));
  // Copies keep their index; equality with a reversed build holds.
  Datum copy = inserted;
  Datum reversed = Datum::Set(std::vector<Datum>(want.rbegin(), want.rend()));
  EXPECT_TRUE(copy.Equals(reversed));
  EXPECT_EQ(copy.Hash(), reversed.Hash());
  copy.SetInsert(Int(1000));
  EXPECT_FALSE(copy.Equals(inserted));
  EXPECT_EQ(inserted.size(), want.size());
}

}  // namespace
}  // namespace aqua
