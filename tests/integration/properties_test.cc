// Property-based tests over randomized workloads:
//  * split pieces always reassemble to the original tree/list;
//  * derived operators agree with their split-based definitions;
//  * the list automata (NFA simulation and lazy DFA, one pattern or a
//    merged batch) agree with the backtracking matcher;
//  * select is order-stable (matched nodes keep their preorder order);
//  * list operators agree with tree operators through the §6 mapping;
//  * the §3.1 stored-attribute check (AQL011) agrees with an exhaustive
//    reference over random schemas, collections and predicates.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <utility>

#include "test_util.h"

namespace aqua {
namespace {

/// A seeded generator of random list patterns over a tiny label alphabet —
/// the fuzz driver for cross-engine agreement.
ListPatternRef RandomListPattern(std::mt19937_64& rng, int depth) {
  auto atom = [&]() -> ListPatternRef {
    switch (rng() % 3) {
      case 0:
        return ListPattern::Any();
      case 1:
        return ListPattern::Pred(
            Predicate::AttrEquals("name", Value::String("a")));
      default:
        return ListPattern::Pred(
            Predicate::AttrEquals("name", Value::String("b")));
    }
  };
  if (depth <= 0) return atom();
  switch (rng() % 6) {
    case 0: {
      std::vector<ListPatternRef> parts;
      size_t n = 2 + rng() % 2;
      for (size_t i = 0; i < n; ++i) {
        parts.push_back(RandomListPattern(rng, depth - 1));
      }
      return ListPattern::Concat(std::move(parts));
    }
    case 1:
      return ListPattern::Alt({RandomListPattern(rng, depth - 1),
                               RandomListPattern(rng, depth - 1)});
    case 2:
      return ListPattern::Star(RandomListPattern(rng, depth - 1));
    case 3:
      return ListPattern::Plus(RandomListPattern(rng, depth - 1));
    case 4:
      return ListPattern::Prune(RandomListPattern(rng, depth - 1));
    default:
      return atom();
  }
}

/// A seeded generator of random tree patterns (leaves, nodes with child
/// sequences, disjunctions, prunes).
TreePatternRef RandomTreePattern(std::mt19937_64& rng, int depth) {
  auto pred = [&]() -> PredicateRef {
    switch (rng() % 3) {
      case 0:
        return nullptr;  // ?
      case 1:
        return Predicate::AttrEquals("name", Value::String("a"));
      default:
        return Predicate::AttrEquals("name", Value::String("b"));
    }
  };
  if (depth <= 0) return TreePattern::Leaf(pred());
  switch (rng() % 4) {
    case 0: {
      // A node with a small child sequence padded by ?*.
      std::vector<ListPatternRef> seq;
      seq.push_back(ListPattern::AnyStar());
      seq.push_back(
          ListPattern::TreeAtom(RandomTreePattern(rng, depth - 1)));
      if (rng() % 2 == 0) {
        seq.push_back(
            ListPattern::TreeAtom(RandomTreePattern(rng, depth - 1)));
      }
      seq.push_back(ListPattern::AnyStar());
      return TreePattern::Node(pred(), ListPattern::Concat(std::move(seq)));
    }
    case 1:
      return TreePattern::Alt({RandomTreePattern(rng, depth - 1),
                               RandomTreePattern(rng, depth - 1)});
    case 2:
      return TreePattern::Prune(RandomTreePattern(rng, depth - 1));
    default:
      return TreePattern::Leaf(pred());
  }
}

class PropertiesTest : public testing::AquaTestBase,
                       public ::testing::WithParamInterface<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PropertiesTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST_P(PropertiesTest, SplitReassemblesRandomTrees) {
  RandomTreeSpec spec;
  spec.num_nodes = 120;
  spec.seed = GetParam();
  ASSERT_OK_AND_ASSIGN(Tree t, MakeRandomTree(store_, spec));

  const char* kPatterns[] = {"a", "b(?*)", "a(!?* b ?*)", "c(?* !? ?*)",
                             "a(b ?*) | b(a ?*)"};
  for (const char* pat : kPatterns) {
    TreeMatchOptions mopts;
    mopts.max_matches = 20;
    TreeMatcher matcher(store_, t, mopts);
    ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(TP(pat)));
    for (const TreeMatch& m : matches) {
      ASSERT_OK_AND_ASSIGN(SplitPieces pieces,
                           MakeSplitPieces(t, m, SplitOptions{}));
      EXPECT_OK(pieces.x.Validate());
      EXPECT_OK(pieces.y.Validate());
      Tree reassembled = ReassembleSplit(pieces);
      ASSERT_TRUE(reassembled.StructurallyEquals(t))
          << pat << " seed=" << GetParam();
    }
  }
}

TEST_P(PropertiesTest, ListSplitReassembles) {
  ASSERT_OK_AND_ASSIGN(
      List l, MakeRandomList(store_, 60, {"a", "b", "c"}, GetParam()));
  const char* kPatterns[] = {"a", "a ? b", "a !?+ c", "[[a | b]]+", "^?* c"};
  for (const char* pat : kPatterns) {
    ListMatcher matcher(store_, l);
    ListMatchOptions mopts;
    mopts.max_matches = 30;
    ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(LP(pat), mopts));
    for (const ListMatch& m : matches) {
      ListSplitPieces pieces = MakeListSplitPieces(l, m);
      List reassembled = ReassembleListSplit(pieces);
      ASSERT_TRUE(reassembled == l) << pat << " seed=" << GetParam();
    }
  }
}

TEST_P(PropertiesTest, DerivedOperatorsAgreeWithSplitForms) {
  RandomTreeSpec spec;
  spec.num_nodes = 80;
  spec.seed = GetParam();
  ASSERT_OK_AND_ASSIGN(Tree t, MakeRandomTree(store_, spec));
  for (const char* pat : {"a(?* b ?*)", "b", "c(!?*)"}) {
    auto tp = TP(pat);
    ASSERT_OK_AND_ASSIGN(Datum direct, TreeSubSelect(store_, t, tp));
    ASSERT_OK_AND_ASSIGN(Datum derived, TreeSubSelectViaSplit(store_, t, tp));
    EXPECT_TRUE(direct.Equals(derived)) << pat << " seed=" << GetParam();
  }
}

TEST_P(PropertiesTest, IndexedSubSelectAgreesWithNaive) {
  RandomTreeSpec spec;
  spec.num_nodes = 150;
  spec.seed = GetParam();
  ASSERT_OK_AND_ASSIGN(Tree t, MakeRandomTree(store_, spec));
  ASSERT_OK_AND_ASSIGN(AttributeIndex index,
                       AttributeIndex::BuildForTree(store_, t, "name"));
  for (const char* pat : {"a(?* b ?*)", "b(? ?)", "c"}) {
    auto tp = TP(pat);
    ASSERT_OK_AND_ASSIGN(Datum naive, TreeSubSelect(store_, t, tp));
    ASSERT_OK_AND_ASSIGN(Datum indexed,
                         TreeSubSelectIndexed(store_, t, tp, index));
    EXPECT_TRUE(naive.Equals(indexed)) << pat << " seed=" << GetParam();
  }
}

TEST_P(PropertiesTest, NfaAgreesWithBacktrackerOnRandomLists) {
  ASSERT_OK_AND_ASSIGN(
      List l, MakeRandomList(store_, 40, {"a", "b"}, GetParam()));
  const char* kPatterns[] = {"a b",       "a* b a*", "[[a | b b]]+",
                             "a ?* b ?*", "b+ a+",   "[[a b]]*"};
  for (const char* pat : kPatterns) {
    auto body = LP(pat).body;
    ListMatcher matcher(store_, l);
    ASSERT_OK_AND_ASSIGN(bool expected, matcher.MatchesWhole(body));
    ASSERT_OK_AND_ASSIGN(MultiNfa nfa, MultiNfa::Compile({body}));
    nfa.Seal();
    EXPECT_EQ(nfa.MatchAll(store_, l) == 1, expected) << pat;
    ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&nfa));
    EXPECT_EQ(dfa.MatchAll(store_, l) == 1, expected) << pat;
  }
}

TEST_P(PropertiesTest, SelectIsOrderAndAncestryStable) {
  RandomTreeSpec spec;
  spec.num_nodes = 100;
  spec.seed = GetParam();
  ASSERT_OK_AND_ASSIGN(Tree t, MakeRandomTree(store_, spec));
  auto pred = P("name == \"a\" || name == \"b\"");
  ASSERT_OK_AND_ASSIGN(auto forest, TreeSelect(store_, t, pred));

  // Flatten the forest's node names in preorder; they must equal the
  // satisfying nodes of the input in input preorder (stability).
  std::vector<std::string> result_names;
  for (const Tree& piece : forest) {
    EXPECT_OK(piece.Validate());
    for (NodeId v : piece.Preorder()) {
      result_names.push_back(label_(piece.payload(v).oid()));
    }
  }
  std::vector<std::string> expected;
  for (NodeId v : t.Preorder()) {
    if (pred->Eval(store_, t.payload(v).oid())) {
      expected.push_back(label_(t.payload(v).oid()));
    }
  }
  // Preorder of contracted pieces preserves relative order of kept nodes.
  EXPECT_EQ(result_names, expected);
  // Every kept node satisfies the predicate.
  for (const auto& name : result_names) {
    EXPECT_TRUE(name == "a" || name == "b");
  }
}

TEST_P(PropertiesTest, ListOpsAgreeWithTreeOpsThroughTheMapping) {
  // §6: select/apply on a list equal select/apply on its list-like tree.
  ASSERT_OK_AND_ASSIGN(
      List l, MakeRandomList(store_, 30, {"a", "b", "c"}, GetParam()));
  ASSERT_OK_AND_ASSIGN(Tree chain, ListToTree(l));
  auto pred = P("name == \"a\"");

  ASSERT_OK_AND_ASSIGN(List list_selected, ListSelect(store_, l, pred));
  ASSERT_OK_AND_ASSIGN(auto tree_forest, TreeSelect(store_, chain, pred));
  // The tree select of a chain yields one chain (or none) whose node
  // sequence equals the filtered list.
  List from_tree;
  if (!tree_forest.empty()) {
    ASSERT_EQ(tree_forest.size(), 1u);
    ASSERT_OK_AND_ASSIGN(from_tree, TreeToList(tree_forest[0]));
  }
  EXPECT_TRUE(from_tree == list_selected)
      << Str(from_tree) << " vs " << Str(list_selected);

  auto mapper = [this](ObjectStore& store, Oid oid) -> Result<Oid> {
    AQUA_ASSIGN_OR_RETURN(Value name, store.GetAttr(oid, "name"));
    return store.Create("Item",
                        {{"name", Value::String(name.string_value() + "x")},
                         {"val", Value::Int(0)}});
  };
  ASSERT_OK_AND_ASSIGN(List list_mapped, ListApply(store_, l, mapper));
  ASSERT_OK_AND_ASSIGN(Tree tree_mapped, TreeApply(store_, chain, mapper));
  ASSERT_OK_AND_ASSIGN(List tree_mapped_list, TreeToList(tree_mapped));
  // Oids differ (apply creates fresh objects) but names must align.
  ASSERT_EQ(tree_mapped_list.size(), list_mapped.size());
  EXPECT_EQ(Str(tree_mapped_list), Str(list_mapped));
}

TEST_P(PropertiesTest, FuzzedListPatternsAgreeAcrossEngines) {
  std::mt19937_64 rng(GetParam() * 7919);
  ASSERT_OK_AND_ASSIGN(List l,
                       MakeRandomList(store_, 18, {"a", "b"}, GetParam()));
  ListMatchOptions budgeted;
  budgeted.max_matches = 1;
  budgeted.max_steps = 100000;  // skip patterns whose backtracking explodes
  size_t compared = 0;
  for (int round = 0; round < 30; ++round) {
    ListPatternRef body = RandomListPattern(rng, 3);
    AnchoredListPattern anchored{body, true, true};
    ListMatcher matcher(store_, l);
    auto matches = matcher.FindAll(anchored, budgeted);
    if (!matches.ok()) continue;  // budget blown: exponential shape
    bool expected = !matches->empty();
    ++compared;
    ASSERT_OK_AND_ASSIGN(MultiNfa nfa, MultiNfa::Compile({body}));
    nfa.Seal();
    EXPECT_EQ(nfa.MatchAll(store_, l) == 1, expected)
        << body->ToString() << " seed=" << GetParam();
    ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&nfa));
    EXPECT_EQ(dfa.MatchAll(store_, l) == 1, expected) << body->ToString();
    // Simplification preserves the language.
    AnchoredListPattern simplified{SimplifyListPattern(body), true, true};
    ListMatcher matcher2(store_, l);
    auto simplified_matches = matcher2.FindAll(simplified, budgeted);
    if (simplified_matches.ok()) {
      EXPECT_EQ(!simplified_matches->empty(), expected)
          << body->ToString() << " simplified to "
          << simplified.body->ToString();
    }
  }
  EXPECT_GT(compared, 5u);  // the budget must not skip everything
}

TEST_P(PropertiesTest, MergedAutomataAgreeWithBacktrackerOnRandomBatches) {
  // Random batches of 1-64 fuzzed patterns (some joined by a pattern point)
  // over random lists with instance points. The independent oracle is the
  // backtracker's unanchored existence answer per pattern; the merged NFA
  // simulation, the merged lazy DFA (cold and warmed), and every pattern
  // alone must all reproduce it bit for bit. The last round gives each
  // pattern two predicates of its own, so the merged alphabet exceeds 64
  // predicates (two signature words).
  std::mt19937_64 rng(GetParam() * 6151);
  const char* kAtoms[] = {"a", "b", "a", "b", "@x", "@y"};
  ListMatchOptions budgeted;
  budgeted.max_matches = 1;
  budgeted.max_steps = 100000;  // skip patterns whose backtracking explodes
  size_t compared = 0;
  auto own = [](size_t k) {
    return ListPattern::Pred(
        Predicate::AttrEquals("name", Value::String("w" + std::to_string(k))));
  };
  for (int round = 0; round < 7; ++round) {
    const bool wide = round == 6;
    std::string lit = "[";
    for (size_t i = 0, len = rng() % 24; i < len; ++i) {
      if (i > 0) lit += ' ';
      lit += wide && rng() % 2 == 0 ? "w" + std::to_string(rng() % 100)
                                    : kAtoms[rng() % std::size(kAtoms)];
    }
    List l = L(lit + "]");

    std::vector<ListPatternRef> bodies;
    uint64_t expected = 0;
    const size_t want = wide ? 48 : 1 + rng() % 64;
    for (size_t tries = 0; bodies.size() < want && tries < 4 * want;
         ++tries) {
      ListPatternRef body = RandomListPattern(rng, 3);
      if (rng() % 3 == 0) {
        body = ListPattern::Concat({body,
                                    ListPattern::Point(rng() % 2 ? "x" : "y"),
                                    RandomListPattern(rng, 1)});
      }
      if (wide) {
        const size_t k = bodies.size();
        body = ListPattern::Alt({body, own(2 * k), own(2 * k + 1)});
      }
      ListMatcher matcher(store_, l);
      auto matches =
          matcher.FindAll(AnchoredListPattern{body, false, false}, budgeted);
      if (!matches.ok()) continue;  // budget blown: exponential shape
      if (!matches->empty()) expected |= 1ULL << bodies.size();
      bodies.push_back(body);

      const uint64_t bit = matches->empty() ? 0 : 1;
      ASSERT_OK_AND_ASSIGN(MultiNfa solo, MultiNfa::CompileSearch({body}));
      EXPECT_EQ(solo.MatchAll(store_, l), bit)
          << body->ToString() << " over " << lit;
      ASSERT_OK_AND_ASSIGN(LazyMultiDfa solo_dfa, LazyMultiDfa::Make(&solo));
      EXPECT_EQ(solo_dfa.MatchAll(store_, l), bit)
          << body->ToString() << " over " << lit;
    }
    if (bodies.empty()) continue;
    compared += bodies.size();
    ASSERT_OK_AND_ASSIGN(MultiNfa merged, MultiNfa::CompileSearch(bodies));
    if (wide) {
      EXPECT_GT(merged.alphabet().size(), 64u);
    }
    EXPECT_EQ(merged.MatchAll(store_, l), expected)
        << bodies.size() << " patterns over " << lit;
    ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&merged));
    EXPECT_EQ(dfa.MatchAll(store_, l), expected)
        << bodies.size() << " patterns over " << lit;
    EXPECT_EQ(dfa.MatchAll(store_, l), expected) << "warmed, over " << lit;
  }
  EXPECT_GT(compared, 20u);  // the budget must not skip everything
}

TEST_P(PropertiesTest, FuzzedTreePatternsSatisfyMatchInvariants) {
  std::mt19937_64 rng(GetParam() * 104729);
  RandomTreeSpec spec;
  spec.num_nodes = 40;
  spec.labels = {"a", "b"};
  spec.seed = GetParam();
  ASSERT_OK_AND_ASSIGN(Tree t, MakeRandomTree(store_, spec));
  for (int round = 0; round < 15; ++round) {
    TreePatternRef tp = RandomTreePattern(rng, 2);
    TreeMatchOptions opts;
    opts.max_matches = 25;
    TreeMatcher matcher(store_, t, opts);
    ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(tp));
    for (const TreeMatch& m : matches) {
      // Matched nodes and cuts are valid, disjoint node sets.
      ASSERT_LT(m.root, t.size());
      for (NodeId v : m.matched) ASSERT_LT(v, t.size());
      for (const TreeCut& cut : m.cuts) {
        ASSERT_LT(cut.node, t.size());
        for (NodeId v : m.matched) {
          EXPECT_NE(v, cut.node) << tp->ToString();
        }
      }
      // Pieces reassemble to the original tree.
      ASSERT_OK_AND_ASSIGN(SplitPieces pieces,
                           MakeSplitPieces(t, m, SplitOptions{}));
      ASSERT_TRUE(ReassembleSplit(pieces).StructurallyEquals(t))
          << tp->ToString() << " seed=" << GetParam();
    }
    // Boolean and enumeration views agree on existence.
    TreeMatcher bool_matcher(store_, t);
    ASSERT_OK_AND_ASSIGN(bool anywhere, bool_matcher.MatchesAnywhere(tp));
    EXPECT_EQ(anywhere, !matches.empty()) << tp->ToString();
  }
}

TEST_P(PropertiesTest, MatchPiecesContainOnlyMatchedPayloads) {
  RandomTreeSpec spec;
  spec.num_nodes = 90;
  spec.seed = GetParam();
  ASSERT_OK_AND_ASSIGN(Tree t, MakeRandomTree(store_, spec));
  TreeMatchOptions mopts;
  mopts.max_matches = 10;
  TreeMatcher matcher(store_, t, mopts);
  ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(TP("a(?* b ?*)")));
  for (const TreeMatch& m : matches) {
    ASSERT_OK_AND_ASSIGN(Tree y, MakeMatchPiece(t, m, SplitOptions{}));
    // y's root carries the same object as the match root.
    EXPECT_EQ(y.payload(y.root()).oid(), t.payload(m.root).oid());
    // The number of cells in y equals the number of matched nodes.
    size_t cells = 0;
    for (NodeId v : y.Preorder()) {
      if (y.payload(v).is_cell()) ++cells;
    }
    EXPECT_EQ(cells, m.matched.size());
    // Points in y correspond 1:1 to cuts, labelled a1..an in order.
    auto labels = y.PointLabels();
    ASSERT_EQ(labels.size(), m.cuts.size());
    for (size_t i = 0; i < labels.size(); ++i) {
      EXPECT_EQ(labels[i], "a" + std::to_string(i + 1));
    }
  }
}

// ---------------------------------------------------------------------------
// §3.1 stored-attribute check (AQL011) against an exhaustive reference.

/// The leftmost comparison in `pred` that reads `attr`.
const Predicate* LeftmostCompareOn(const Predicate& pred,
                                   const std::string& attr) {
  if (pred.kind() == Predicate::Kind::kCompare) {
    return pred.attr() == attr ? &pred : nullptr;
  }
  for (const PredicateRef& side : {pred.left(), pred.right()}) {
    if (side == nullptr) continue;
    if (const Predicate* hit = LeftmostCompareOn(*side, attr)) return hit;
  }
  return nullptr;
}

using Finding = std::pair<std::string, SourceSpan>;

/// The AQL011 findings for `preds` over the objects in `collections`, found
/// the slow way: read every cell, then test each read attribute against
/// every present type in id order. Unknown collections hold nothing.
std::vector<Finding> ExhaustiveStoredAttrFindings(
    const Database& db, const std::vector<std::string>& collections,
    const std::vector<PredicateRef>& preds) {
  std::set<TypeId> present;
  auto add = [&](const NodePayload& p) {
    if (!p.is_cell()) return;
    auto obj = db.store().Get(p.oid());
    if (obj.ok()) present.insert((*obj)->type());
  };
  for (const std::string& name : collections) {
    if (db.HasTree(name)) {
      const Tree* tree = *db.GetTree(name);
      for (NodeId v : tree->Preorder()) add(tree->payload(v));
    } else if (db.HasList(name)) {
      for (const NodePayload& p : (*db.GetList(name))->elems()) add(p);
    }
  }
  std::vector<Finding> out;
  for (const PredicateRef& pred : preds) {
    std::vector<std::string> attrs;
    pred->CollectAttrs(&attrs);
    for (const std::string& attr : attrs) {
      for (TypeId t : present) {
        const TypeDef* def = *db.store().schema().GetType(t);
        if (!def->HasAttr(attr) || def->attrs()[*def->AttrIndex(attr)].stored) {
          continue;
        }
        const Predicate* site = LeftmostCompareOn(*pred, attr);
        out.emplace_back(
            "alphabet-predicates may only use stored attributes (§3.1): '" +
                attr + "' is computed in type '" + def->name() + "'",
            site != nullptr ? site->span() : SourceSpan{});
        break;
      }
    }
  }
  return out;
}

std::vector<Finding> Findings(const std::vector<lint::Diagnostic>& diags) {
  std::vector<Finding> out;
  for (const lint::Diagnostic& d : diags) {
    if (d.code == lint::DiagCode::kComputedAttribute) {
      out.emplace_back(d.message, d.span);
    }
  }
  return out;
}

/// Random predicate text over the attribute pool a0..a4.
std::string RandomPredicateText(std::mt19937_64& rng, int depth) {
  if (depth <= 0 || rng() % 3 == 0) {
    return "a" + std::to_string(rng() % 5) + " > " + std::to_string(rng() % 9);
  }
  switch (rng() % 3) {
    case 0:
      return "(" + RandomPredicateText(rng, depth - 1) + " && " +
             RandomPredicateText(rng, depth - 1) + ")";
    case 1:
      return "(" + RandomPredicateText(rng, depth - 1) + " || " +
             RandomPredicateText(rng, depth - 1) + ")";
    default:
      return "!" + RandomPredicateText(rng, depth - 1);
  }
}

/// A database over a random schema: 1-4 types, each declaring a random
/// subset of a0..a4 with about one attribute in four computed, and two tree
/// and two list collections, each holding objects of a random non-empty
/// subset of the types (so some types are absent) plus a few points.
void BuildRandomAttrDatabase(std::mt19937_64& rng, Database* db) {
  size_t num_types = 1 + rng() % 4;
  for (size_t t = 0; t < num_types; ++t) {
    std::vector<AttrDef> attrs;
    for (int a = 0; a < 5; ++a) {
      if (rng() % 2 == 0) continue;
      attrs.push_back({"a" + std::to_string(a), ValueType::kInt,
                       /*stored=*/rng() % 4 != 0});
    }
    ASSERT_OK(db->store()
                  .schema()
                  .RegisterType("T" + std::to_string(t), std::move(attrs))
                  .status());
  }
  auto new_cell = [&](uint64_t mask) -> NodePayload {
    size_t t;
    do {
      t = rng() % num_types;
    } while ((mask >> t & 1) == 0);
    auto oid = db->store().Create("T" + std::to_string(t), {});
    EXPECT_OK(oid.status());
    return NodePayload::Cell(oid.ok() ? *oid : Oid::Null());
  };
  for (int c = 0; c < 2; ++c) {
    uint64_t mask = 1 + rng() % ((uint64_t{1} << num_types) - 1);
    Tree tree;
    std::vector<NodeId> cells = {tree.AddNode(new_cell(mask))};
    ASSERT_OK(tree.SetRoot(cells[0]));
    size_t size = rng() % 40;
    for (size_t i = 0; i < size; ++i) {
      NodeId parent = cells[rng() % cells.size()];
      bool point = rng() % 10 == 0;
      NodeId v = tree.AddNode(point ? NodePayload::ConcatPoint("p")
                                    : new_cell(mask));
      ASSERT_OK(tree.AddChild(parent, v));
      if (!point) cells.push_back(v);
    }
    ASSERT_OK(db->RegisterTree("t" + std::to_string(c), std::move(tree)));

    mask = 1 + rng() % ((uint64_t{1} << num_types) - 1);
    List list;
    size = rng() % 30;
    for (size_t i = 0; i < size; ++i) {
      list.Append(rng() % 10 == 0 ? NodePayload::ConcatPoint("p")
                                  : new_cell(mask));
    }
    ASSERT_OK(db->RegisterList("l" + std::to_string(c), std::move(list)));
  }
}

TEST_P(PropertiesTest, StoredAttrCheckAgreesWithExhaustiveScan) {
  std::mt19937_64 rng(GetParam() * 6151);
  size_t findings = 0;
  for (int schema_round = 0; schema_round < 12; ++schema_round) {
    Database db;
    BuildRandomAttrDatabase(rng, &db);
    if (HasFatalFailure()) return;
    auto pred = [&]() -> PredicateRef {
      std::string text = RandomPredicateText(rng, 2);
      auto parsed = ParsePredicate(text);
      EXPECT_TRUE(parsed.ok()) << text;
      return parsed.ok() ? *parsed : Predicate::True();
    };
    auto tree_coll = [&]() { return "t" + std::to_string(rng() % 2); };
    auto list_coll = [&]() { return "l" + std::to_string(rng() % 2); };

    for (int round = 0; round < 10; ++round) {
      // The plan, plus each node's parameter predicates and the collections
      // scanned in its subtree, in preorder.
      PlanRef plan;
      std::vector<std::pair<std::vector<PredicateRef>,
                            std::vector<std::string>>> nodes;
      switch (rng() % 6) {
        case 0: {
          std::string c = tree_coll();
          PredicateRef p = pred();
          plan = Q::TreeSelect(Q::ScanTree(c), p);
          nodes = {{{p}, {c}}, {{}, {c}}};
          break;
        }
        case 1: {
          std::string c = list_coll();
          PredicateRef p = pred();
          plan = Q::ListSelect(Q::ScanList(c), p);
          nodes = {{{p}, {c}}, {{}, {c}}};
          break;
        }
        case 2: {
          std::string c = tree_coll();
          PredicateRef p1 = pred(), p2 = pred(), p3 = pred();
          TreePatternRef tp = TreePattern::Node(
              p1, ListPattern::Concat(
                      {ListPattern::AnyStar(),
                       ListPattern::TreeAtom(TreePattern::Leaf(p2)),
                       ListPattern::AnyStar()}));
          plan = Q::TreeSelect(Q::TreeSubSelect(Q::ScanTree(c), tp), p3);
          nodes = {{{p3}, {c}}, {{p1, p2}, {c}}, {{}, {c}}};
          EXPECT_EQ(Findings(TreePatternStoredAttrViolations(
                        db.store(), **db.GetTree(c), tp)),
                    ExhaustiveStoredAttrFindings(db, {c}, {p1, p2}));
          break;
        }
        case 3: {
          std::string c = list_coll();
          PredicateRef p1 = pred(), p2 = pred();
          AnchoredListPattern lp;
          lp.body = ListPattern::Concat(
              {ListPattern::Pred(p1),
               ListPattern::Star(ListPattern::Pred(p2))});
          plan = Q::ListSubSelect(Q::ScanList(c), lp);
          nodes = {{{p1, p2}, {c}}, {{}, {c}}};
          EXPECT_EQ(Findings(ListPatternStoredAttrViolations(
                        db.store(), **db.GetList(c), lp)),
                    ExhaustiveStoredAttrFindings(db, {c}, {p1, p2}));
          break;
        }
        case 4: {
          std::string c = tree_coll();
          PredicateRef anchor = pred(), p = pred();
          plan = Q::IndexedSubSelect(c, "a0", anchor, TreePattern::Leaf(p));
          nodes = {{{anchor, p}, {c}}};
          break;
        }
        default: {
          // A select over two inputs (one possibly unknown): its predicate
          // is checked against the union of both collections.
          std::string c1 = tree_coll();
          std::string c2 = rng() % 4 == 0 ? "missing" : list_coll();
          PredicateRef p = pred();
          auto node = std::make_shared<PlanNode>(
              *Q::TreeSelect(Q::ScanTree(c1), p));
          node->children.push_back(Q::ScanList(c2));
          plan = node;
          nodes = {{{p}, {c1, c2}}, {{}, {c1}}, {{}, {c2}}};
          break;
        }
      }

      std::vector<Finding> expected;
      bool unknown = false;
      for (const auto& [preds, colls] : nodes) {
        std::vector<Finding> found =
            ExhaustiveStoredAttrFindings(db, colls, preds);
        expected.insert(expected.end(), found.begin(), found.end());
        for (const std::string& c : colls) {
          unknown = unknown || (!db.HasTree(c) && !db.HasList(c));
        }
      }
      findings += expected.size();

      lint::PlanLintOptions opts;
      opts.absint = false;
      EXPECT_EQ(Findings(lint::LintPlan(db, plan, opts)), expected)
          << Explain(plan) << " seed=" << GetParam();
      Status st = ValidatePlanPatterns(db, plan);
      if (unknown) {
        EXPECT_TRUE(st.IsNotFound()) << st.ToString();
      } else if (expected.empty()) {
        EXPECT_OK(st);
      } else {
        EXPECT_TRUE(st.IsInvalidArgument());
        EXPECT_EQ(st.message(), expected.front().first);
      }
    }
  }
  // The generator must produce violations, not only clean plans.
  EXPECT_GT(findings, 0u);
}

}  // namespace
}  // namespace aqua
