#include "algebra/list_ops.h"

#include <gtest/gtest.h>

#include "bulk/concat.h"
#include "test_util.h"

namespace aqua {
namespace {

class ListOpsTest : public testing::AquaTestBase {};

TEST_F(ListOpsTest, SelectIsAStableFilter) {
  List l = L("[a x a y a]");
  ASSERT_OK_AND_ASSIGN(List out,
                       ListSelect(store_, l, P("name == \"a\"")));
  EXPECT_EQ(Str(out), "[a a a]");
}

TEST_F(ListOpsTest, SelectDropsInstancePoints) {
  List l = L("[a @p a]");
  ASSERT_OK_AND_ASSIGN(List out, ListSelect(store_, l, Predicate::True()));
  EXPECT_EQ(Str(out), "[a a]");
}

TEST_F(ListOpsTest, SelectRejectsNullPredicate) {
  EXPECT_TRUE(ListSelect(store_, List(), nullptr).status().IsInvalidArgument());
}

TEST_F(ListOpsTest, ApplyMapsCellsKeepsPoints) {
  List l = L("[a @p b]");
  auto fn = [this](ObjectStore& store, Oid oid) -> Result<Oid> {
    AQUA_ASSIGN_OR_RETURN(Value name, store.GetAttr(oid, "name"));
    return store.Create("Item",
                        {{"name", Value::String(name.string_value() + "m")},
                         {"val", Value::Int(0)}});
  };
  ASSERT_OK_AND_ASSIGN(List out, ListApply(store_, l, fn));
  EXPECT_EQ(Str(out), "[am @p bm]");
}

TEST_F(ListOpsTest, SplitPiecesShape) {
  // Match [m1 m2] inside [p1 p2 m1 m2 s1 s2].
  List l = L("[p1 p2 m1 m2 s1 s2]");
  ASSERT_OK_AND_ASSIGN(
      Datum result,
      ListSplit(store_, l, LP("m1 m2"),
                [](const List& x, const List& y,
                   const std::vector<List>& z) -> Result<Datum> {
                  std::vector<Datum> zs;
                  for (const List& piece : z) zs.push_back(Datum::Of(piece));
                  return Datum::Tuple({Datum::Of(x), Datum::Of(y),
                                       Datum::Tuple(std::move(zs))});
                }));
  ASSERT_EQ(result.size(), 1u);
  const Datum& tuple = result.at(0);
  EXPECT_EQ(Str(tuple.at(0).list()), "[p1 p2 @a]");
  EXPECT_EQ(Str(tuple.at(1).list()), "[m1 m2 @a1]");
  ASSERT_EQ(tuple.at(2).size(), 1u);
  EXPECT_EQ(Str(tuple.at(2).at(0).list()), "[s1 s2]");
}

TEST_F(ListOpsTest, SplitAtEndHasNoTrailingCut) {
  List l = L("[p m]");
  ASSERT_OK_AND_ASSIGN(
      Datum result,
      ListSplit(store_, l, LP("m"),
                [](const List& x, const List& y,
                   const std::vector<List>& z) -> Result<Datum> {
                  return Datum::Tuple(
                      {Datum::Of(x), Datum::Of(y),
                       Datum::Scalar(Value::Int(static_cast<int64_t>(
                           z.size())))});
                }));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(Str(result.at(0).at(0).list()), "[p @a]");
  EXPECT_EQ(Str(result.at(0).at(1).list()), "[m]");
  EXPECT_EQ(result.at(0).at(2).scalar().int_value(), 0);
}

TEST_F(ListOpsTest, SplitWithPrunedRun) {
  List l = L("[a x y b t]");
  ASSERT_OK_AND_ASSIGN(
      Datum result,
      ListSplit(store_, l, LP("a !?+ b"),
                [](const List& x, const List& y,
                   const std::vector<List>& z) -> Result<Datum> {
                  std::vector<Datum> zs;
                  for (const List& piece : z) zs.push_back(Datum::Of(piece));
                  return Datum::Tuple({Datum::Of(x), Datum::Of(y),
                                       Datum::Tuple(std::move(zs))});
                }));
  ASSERT_EQ(result.size(), 1u);
  const Datum& tuple = result.at(0);
  EXPECT_EQ(Str(tuple.at(0).list()), "[@a]");
  EXPECT_EQ(Str(tuple.at(1).list()), "[a @a1 b @a2]");
  ASSERT_EQ(tuple.at(2).size(), 2u);
  EXPECT_EQ(Str(tuple.at(2).at(0).list()), "[x y]");  // pruned run
  EXPECT_EQ(Str(tuple.at(2).at(1).list()), "[t]");    // suffix
}

TEST_F(ListOpsTest, SplitPiecesReassemble) {
  List l = L("[p a x b s1 s2]");
  ListMatcher matcher(store_, l);
  ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(LP("a !? b")));
  ASSERT_EQ(matches.size(), 1u);
  ListSplitPieces pieces = MakeListSplitPieces(l, matches[0]);
  List reassembled = ReassembleListSplit(pieces);
  EXPECT_TRUE(reassembled == l) << Str(reassembled) << " vs " << Str(l);
}

TEST_F(ListOpsTest, SubSelectMelody) {
  // §6: sub_select([A??F])(L) over a song.
  ASSERT_OK(RegisterNoteType(store_));
  List song;
  for (const char* pitch : {"G", "A", "B", "C", "F", "E", "A", "D", "E", "F"}) {
    ASSERT_OK_AND_ASSIGN(
        Oid note, store_.Create("Note", {{"pitch", Value::String(pitch)},
                                         {"duration", Value::Int(4)}}));
    song.Append(NodePayload::Cell(note));
  }
  auto melody = LP("{pitch == \"A\"} ? ? {pitch == \"F\"}");
  ASSERT_OK_AND_ASSIGN(Datum result, ListSubSelect(store_, song, melody));
  ASSERT_EQ(result.size(), 2u);
  LabelFn pitch_label = AttrLabelFn(&store_, "pitch");
  EXPECT_EQ(result.at(0).list().size(), 4u);
  EXPECT_EQ(PrintList(result.at(0).list(), pitch_label), "[A B C F]");
  EXPECT_EQ(PrintList(result.at(1).list(), pitch_label), "[A D E F]");
}

TEST_F(ListOpsTest, SubSelectRemovesPrunedRuns) {
  List l = L("[a x b]");
  ASSERT_OK_AND_ASSIGN(Datum result,
                       ListSubSelect(store_, l, LP("a !? b")));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(Str(result.at(0).list()), "[a b]");
}

TEST_F(ListOpsTest, SubSelectFindsMatchesAfterInstancePoints) {
  // A match may begin after an instance point, so the existence prefilter
  // must skip points as well as cells before a match.
  List l = L("[@x a b]");
  ASSERT_OK_AND_ASSIGN(Datum result, ListSubSelect(store_, l, LP("a b")));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(Str(result.at(0).list()), "[a b]");
}

TEST_F(ListOpsTest, SubSelectIsASet) {
  List l = L("[a b a b]");
  ASSERT_OK_AND_ASSIGN(Datum result, ListSubSelect(store_, l, LP("a b")));
  EXPECT_EQ(result.size(), 1u);  // identical sublists collapse
}

TEST_F(ListOpsTest, AllAncMelodyContext) {
  // §6: all_anc([A??F], λ(x,y)⟨x,y⟩) — notes before the melody + the melody.
  List l = L("[g g m e l o]");
  ASSERT_OK_AND_ASSIGN(
      Datum result,
      ListAllAnc(store_, l, LP("m e l"),
                 [](const List& prefix, const List& match) -> Result<Datum> {
                   return Datum::Tuple({Datum::Of(prefix), Datum::Of(match)});
                 }));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(Str(result.at(0).at(0).list()), "[g g @a]");
  EXPECT_EQ(Str(result.at(0).at(1).list()), "[m e l]");
}

TEST_F(ListOpsTest, AllDescGivesMatchAndSuffix) {
  List l = L("[m a t r e s t]");
  ASSERT_OK_AND_ASSIGN(
      Datum result,
      ListAllDesc(store_, l, LP("^m a t"),
                  [](const List& match,
                     const std::vector<List>& desc) -> Result<Datum> {
                    std::vector<Datum> ds;
                    for (const List& d : desc) ds.push_back(Datum::Of(d));
                    return Datum::Tuple(
                        {Datum::Of(match), Datum::Tuple(std::move(ds))});
                  }));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(Str(result.at(0).at(0).list()), "[m a t @a1]");
  ASSERT_EQ(result.at(0).at(1).size(), 1u);
  EXPECT_EQ(Str(result.at(0).at(1).at(0).list()), "[r e s t]");
}

TEST_F(ListOpsTest, SplitFnErrorsPropagate) {
  List l = L("[a]");
  auto res = ListSplit(store_, l, LP("a"),
                       [](const List&, const List&,
                          const std::vector<List>&) -> Result<Datum> {
                         return Status::Internal("boom");
                       });
  EXPECT_TRUE(res.status().IsInternal());
}

}  // namespace
}  // namespace aqua
