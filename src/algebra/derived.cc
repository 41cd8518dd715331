#include "algebra/derived.h"

#include "bulk/concat.h"

namespace aqua {

Result<Datum> TreeSubSelectViaSplit(const StoreView& store, const Tree& tree,
                                    const TreePatternRef& tp,
                                    const SplitOptions& opts) {
  // split(tp, λ(a,b,c) b ∘_{α1..αn} [])
  return TreeSplit(
      store, tree, tp,
      [](const Tree& x, const Tree& y,
         const std::vector<Tree>& z) -> Result<Datum> {
        (void)x;
        (void)z;
        return Datum::Of(CloseAllPoints(y));
      },
      opts);
}

Result<Datum> TreeAllAncViaSplit(const StoreView& store, const Tree& tree,
                                 const TreePatternRef& tp, const AncFn& fn,
                                 const SplitOptions& opts) {
  // split(tp, λ(a,b,c) ⟨a, b ∘ []⟩), then f over each tuple's fields.
  AQUA_ASSIGN_OR_RETURN(
      Datum tuples,
      TreeSplit(
          store, tree, tp,
          [](const Tree& x, const Tree& y,
             const std::vector<Tree>& z) -> Result<Datum> {
            (void)z;
            return Datum::Tuple(
                {Datum::Of(x), Datum::Of(CloseAllPoints(y))});
          },
          opts));
  Datum out = Datum::Set({});
  for (const Datum& t : tuples.children()) {
    AQUA_ASSIGN_OR_RETURN(Datum mapped, fn(t.at(0).tree(), t.at(1).tree()));
    out.SetInsert(std::move(mapped));
  }
  return out;
}

Result<Datum> TreeAllDescViaSplit(const StoreView& store, const Tree& tree,
                                  const TreePatternRef& tp, const DescFn& fn,
                                  const SplitOptions& opts) {
  // split(tp, λ(a,b,c) ⟨b, c⟩), then f over each tuple's fields. The list of
  // descendants is carried as a tuple-of-trees datum.
  AQUA_ASSIGN_OR_RETURN(
      Datum tuples,
      TreeSplit(
          store, tree, tp,
          [](const Tree& x, const Tree& y,
             const std::vector<Tree>& z) -> Result<Datum> {
            (void)x;
            std::vector<Datum> desc;
            desc.reserve(z.size());
            for (const Tree& t : z) desc.push_back(Datum::Of(t));
            return Datum::Tuple({Datum::Of(y), Datum::Tuple(std::move(desc))});
          },
          opts));
  Datum out = Datum::Set({});
  for (const Datum& t : tuples.children()) {
    std::vector<Tree> z;
    z.reserve(t.at(1).size());
    for (const Datum& d : t.at(1).children()) z.push_back(d.tree());
    AQUA_ASSIGN_OR_RETURN(Datum mapped, fn(t.at(0).tree(), z));
    out.SetInsert(std::move(mapped));
  }
  return out;
}

Result<PredicateRef> ExtractRootPredicate(const TreePatternRef& tp) {
  if (tp == nullptr) return Status::InvalidArgument("null tree pattern");
  switch (tp->kind()) {
    case TreePattern::Kind::kLeaf:
    case TreePattern::Kind::kNode:
      if (tp->pred() == nullptr) {
        return Status::NotFound("pattern root is '?' (unconstrained)");
      }
      return tp->pred();
    case TreePattern::Kind::kRootAnchor:
    case TreePattern::Kind::kLeafAnchor:
    case TreePattern::Kind::kPrune:
      return ExtractRootPredicate(tp->inner());
    case TreePattern::Kind::kConcatAt:
      return ExtractRootPredicate(tp->first());
    case TreePattern::Kind::kAlt:
    case TreePattern::Kind::kPoint:
    case TreePattern::Kind::kStarAt:
    case TreePattern::Kind::kPlusAt:
      return Status::NotFound(
          "pattern root predicate is not extractable from " + tp->ToString());
  }
  return Status::Internal("unreachable in ExtractRootPredicate");
}

Result<Datum> TreeSubSelectSplitRewrite(const StoreView& store,
                                        const Tree& tree,
                                        const TreePatternRef& tp,
                                        const AttributeIndex& index,
                                        const SplitOptions& opts) {
  AQUA_ASSIGN_OR_RETURN(PredicateRef anchor, ExtractRootPredicate(tp));
  AQUA_ASSIGN_OR_RETURN(std::vector<NodeId> candidates, index.Probe(*anchor));

  // split(anchor, λ(x,y,z) y ∘_{αi} z): reattaching all descendants to a
  // leaf match yields exactly the subtree rooted at the anchor node.
  TreePatternRef anchored = TreePattern::RootAnchor(tp);
  Datum out = Datum::Set({});
  for (NodeId v : candidates) {
    Tree piece = tree.SubtreeCopy(v);
    AQUA_ASSIGN_OR_RETURN(Datum sub, TreeSubSelect(store, piece, anchored,
                                                   opts));
    for (const Datum& d : sub.children()) out.SetInsert(d);
  }
  return out;
}

Result<PredicateRef> ExtractHeadPredicate(const ListPatternRef& lp) {
  if (lp == nullptr) return Status::InvalidArgument("null list pattern");
  switch (lp->kind()) {
    case ListPattern::Kind::kPred:
      return lp->pred();
    case ListPattern::Kind::kConcat: {
      if (lp->parts().empty()) {
        return Status::NotFound("empty pattern has no head");
      }
      // Only the first part pins the match start; a nullable head part
      // (e.g. a leading `?*`) leaves the start unconstrained.
      if (lp->parts()[0]->Nullable()) {
        return Status::NotFound("pattern head is nullable");
      }
      return ExtractHeadPredicate(lp->parts()[0]);
    }
    case ListPattern::Kind::kPlus:
    case ListPattern::Kind::kPrune:
      return ExtractHeadPredicate(lp->inner());
    case ListPattern::Kind::kAny:
    case ListPattern::Kind::kAlt:
    case ListPattern::Kind::kStar:
    case ListPattern::Kind::kPoint:
    case ListPattern::Kind::kTreeAtom:
      return Status::NotFound("pattern head predicate is not extractable");
  }
  return Status::Internal("unreachable in ExtractHeadPredicate");
}

Result<Datum> ListSubSelectIndexed(const StoreView& store, const List& list,
                                   const AnchoredListPattern& pattern,
                                   const AttributeIndex& index,
                                   const ListSplitOptions& opts) {
  AQUA_ASSIGN_OR_RETURN(PredicateRef head, ExtractHeadPredicate(pattern.body));
  AQUA_ASSIGN_OR_RETURN(std::vector<NodeId> candidates, index.Probe(*head));
  return ListSubSelectAtBegins(store, list, pattern, candidates, opts);
}

Result<Datum> TreeSubSelectIndexed(const StoreView& store, const Tree& tree,
                                   const TreePatternRef& tp,
                                   const AttributeIndex& index,
                                   const SplitOptions& opts) {
  AQUA_ASSIGN_OR_RETURN(PredicateRef anchor, ExtractRootPredicate(tp));
  AQUA_ASSIGN_OR_RETURN(std::vector<NodeId> candidates, index.Probe(*anchor));
  return TreeSubSelectAtRoots(store, tree, tp, candidates, opts);
}

}  // namespace aqua
