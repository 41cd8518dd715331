#include "algebra/tree_ops.h"

#include <unordered_map>
#include <unordered_set>

#include "bulk/concat.h"

namespace aqua {

namespace {

/// Shared piece-builder: copies the match subgraph, substituting labeled
/// points at cut positions.
class PieceBuilder {
 public:
  PieceBuilder(const Tree& tree, const TreeMatch& match,
               const SplitOptions& opts)
      : tree_(tree), opts_(opts) {
    for (NodeId m : match.matched) matched_.insert(m);
    for (size_t i = 0; i < match.cuts.size(); ++i) {
      cut_index_.emplace(match.cuts[i].node, i);
    }
  }

  Result<Tree> BuildY(NodeId match_root) {
    Tree y;
    AQUA_ASSIGN_OR_RETURN(NodeId root, Copy(&y, match_root));
    AQUA_RETURN_IF_ERROR(y.SetRoot(root));
    return y;
  }

 private:
  Result<NodeId> Copy(Tree* dst, NodeId v) {
    auto cut = cut_index_.find(v);
    if (cut != cut_index_.end()) {
      return dst->AddNode(NodePayload::ConcatPoint(
          opts_.cut_prefix + std::to_string(cut->second + 1)));
    }
    if (matched_.count(v) == 0) {
      return Status::Internal(
          "match piece contains a node that is neither matched nor cut");
    }
    NodeId copy = dst->AddNode(tree_.payload(v));
    for (NodeId c : tree_.children(v)) {
      AQUA_ASSIGN_OR_RETURN(NodeId cc, Copy(dst, c));
      AQUA_RETURN_IF_ERROR(dst->AddChild(copy, cc));
    }
    return copy;
  }

  const Tree& tree_;
  const SplitOptions& opts_;
  std::unordered_set<NodeId> matched_;
  std::unordered_map<NodeId, size_t> cut_index_;
};

}  // namespace

Result<Tree> MakeMatchPiece(const Tree& tree, const TreeMatch& match,
                            const SplitOptions& opts) {
  PieceBuilder builder(tree, match, opts);
  return builder.BuildY(match.root);
}

Result<SplitPieces> MakeSplitPieces(const Tree& tree, const TreeMatch& match,
                                    const SplitOptions& opts) {
  SplitPieces pieces;
  pieces.x = tree.CopyWithSubtreeReplacedByPoint(match.root,
                                                 opts.context_label);
  AQUA_ASSIGN_OR_RETURN(pieces.y, MakeMatchPiece(tree, match, opts));
  pieces.z.reserve(match.cuts.size());
  for (const TreeCut& cut : match.cuts) {
    pieces.z.push_back(tree.SubtreeCopy(cut.node));
  }
  return pieces;
}

Tree ReassembleSplit(const SplitPieces& pieces, const SplitOptions& opts) {
  Tree t = ConcatAt(pieces.x, opts.context_label, pieces.y);
  for (size_t i = 0; i < pieces.z.size(); ++i) {
    t = ConcatAt(t, opts.cut_prefix + std::to_string(i + 1), pieces.z[i]);
  }
  return t;
}

namespace {

/// Phase 1 finds, under each node, the topmost satisfying nodes; phase 2
/// builds one result tree per satisfying node whose kept children are the
/// topmost satisfying nodes under each of its subtrees.
struct SelectBuilder {
  const StoreView& store;
  const Tree& tree;
  const Predicate& pred;

  bool Satisfies(NodeId v) const {
    const NodePayload& p = tree.payload(v);
    return p.is_cell() && pred.Eval(store, p.oid());
  }

  // Topmost satisfying nodes in the subtree rooted at v, left to right.
  void Topmost(NodeId v, std::vector<NodeId>* out) const {
    if (Satisfies(v)) {
      out->push_back(v);
      return;
    }
    for (NodeId c : tree.children(v)) Topmost(c, out);
  }

  NodeId Build(Tree* dst, NodeId v) const {
    NodeId copy = dst->AddNode(tree.payload(v));
    std::vector<NodeId> kept_children;
    for (NodeId c : tree.children(v)) Topmost(c, &kept_children);
    for (NodeId kc : kept_children) {
      NodeId built = Build(dst, kc);
      Status st = dst->AddChild(copy, built);
      (void)st;
    }
    return copy;
  }
};

}  // namespace

Result<std::vector<NodeId>> TreeSelectRoots(const StoreView& store,
                                            const Tree& tree,
                                            const PredicateRef& pred) {
  if (pred == nullptr) return Status::InvalidArgument("null predicate");
  std::vector<NodeId> roots;
  if (tree.empty()) return roots;
  SelectBuilder{store, tree, *pred}.Topmost(tree.root(), &roots);
  return roots;
}

Tree TreeSelectBuild(const StoreView& store, const Tree& tree,
                     const Predicate& pred, NodeId root) {
  Tree t;
  NodeId built = SelectBuilder{store, tree, pred}.Build(&t, root);
  Status st = t.SetRoot(built);
  (void)st;
  return t;
}

Result<std::vector<Tree>> TreeSelect(const StoreView& store,
                                     const Tree& tree,
                                     const PredicateRef& pred) {
  AQUA_ASSIGN_OR_RETURN(std::vector<NodeId> roots,
                        TreeSelectRoots(store, tree, pred));
  std::vector<Tree> forest;
  forest.reserve(roots.size());
  for (NodeId r : roots) {
    forest.push_back(TreeSelectBuild(store, tree, *pred, r));
  }
  return forest;
}

Result<Tree> TreeApply(ObjectStore& store, const Tree& tree,
                       const NodeFn& fn) {
  if (tree.empty()) return Tree();
  struct Mapper {
    ObjectStore& store;
    const Tree& tree;
    const NodeFn& fn;
    Result<NodeId> Map(Tree* dst, NodeId v) {
      const NodePayload& p = tree.payload(v);
      NodeId copy;
      if (p.is_cell()) {
        AQUA_ASSIGN_OR_RETURN(Oid mapped, fn(store, p.oid()));
        copy = dst->AddNode(NodePayload::Cell(mapped));
      } else {
        copy = dst->AddNode(p);
      }
      for (NodeId c : tree.children(v)) {
        AQUA_ASSIGN_OR_RETURN(NodeId cc, Map(dst, c));
        AQUA_RETURN_IF_ERROR(dst->AddChild(copy, cc));
      }
      return copy;
    }
  };
  Mapper mapper{store, tree, fn};
  Tree out;
  AQUA_ASSIGN_OR_RETURN(NodeId root, mapper.Map(&out, tree.root()));
  AQUA_RETURN_IF_ERROR(out.SetRoot(root));
  return out;
}

Result<Tree> TreeApplyTxn(StoreTxn& txn, const Tree& tree,
                          const TxnNodeFn& fn) {
  if (tree.empty()) return Tree();
  struct Mapper {
    StoreTxn& txn;
    const Tree& tree;
    const TxnNodeFn& fn;
    Result<NodeId> Map(Tree* dst, NodeId v) {
      const NodePayload& p = tree.payload(v);
      NodeId copy;
      if (p.is_cell()) {
        AQUA_ASSIGN_OR_RETURN(Oid mapped, fn(txn, p.oid()));
        copy = dst->AddNode(NodePayload::Cell(mapped));
      } else {
        copy = dst->AddNode(p);
      }
      for (NodeId c : tree.children(v)) {
        AQUA_ASSIGN_OR_RETURN(NodeId cc, Map(dst, c));
        AQUA_RETURN_IF_ERROR(dst->AddChild(copy, cc));
      }
      return copy;
    }
  };
  Mapper mapper{txn, tree, fn};
  Tree out;
  AQUA_ASSIGN_OR_RETURN(NodeId root, mapper.Map(&out, tree.root()));
  AQUA_RETURN_IF_ERROR(out.SetRoot(root));
  return out;
}

Result<Datum> TreeSplit(const StoreView& store, const Tree& tree,
                        const TreePatternRef& tp, const SplitFn& fn,
                        const SplitOptions& opts) {
  TreeMatcher matcher(store, tree, opts.match);
  AQUA_ASSIGN_OR_RETURN(std::vector<TreeMatch> matches, matcher.FindAll(tp));
  Datum out = Datum::Set({});
  for (const TreeMatch& m : matches) {
    AQUA_ASSIGN_OR_RETURN(SplitPieces pieces, MakeSplitPieces(tree, m, opts));
    AQUA_ASSIGN_OR_RETURN(Datum result, fn(pieces.x, pieces.y, pieces.z));
    out.SetInsert(std::move(result));
  }
  return out;
}

namespace {

/// The sub_select result of `matches`: each match piece with its points
/// closed, in match order.
Result<Datum> ClosedMatchPieces(const Tree& tree,
                                const std::vector<TreeMatch>& matches,
                                const SplitOptions& opts) {
  Datum out = Datum::Set({});
  for (const TreeMatch& m : matches) {
    AQUA_ASSIGN_OR_RETURN(Tree y, MakeMatchPiece(tree, m, opts));
    out.SetInsert(Datum::Of(CloseAllPoints(y)));
  }
  return out;
}

}  // namespace

Result<Datum> TreeSubSelect(const StoreView& store, const Tree& tree,
                            const TreePatternRef& tp,
                            const SplitOptions& opts) {
  TreeMatcher matcher(store, tree, opts.match);
  AQUA_ASSIGN_OR_RETURN(std::vector<TreeMatch> matches, matcher.FindAll(tp));
  return ClosedMatchPieces(tree, matches, opts);
}

Result<Datum> TreeSubSelectAtRoots(const StoreView& store, const Tree& tree,
                                   const TreePatternRef& tp,
                                   const std::vector<NodeId>& roots,
                                   const SplitOptions& opts) {
  TreeMatcher matcher(store, tree, opts.match);
  AQUA_ASSIGN_OR_RETURN(std::vector<TreeMatch> matches,
                        matcher.FindAllAtRoots(tp, roots));
  return ClosedMatchPieces(tree, matches, opts);
}

Result<Datum> TreeAllAnc(const StoreView& store, const Tree& tree,
                         const TreePatternRef& tp, const AncFn& fn,
                         const SplitOptions& opts) {
  TreeMatcher matcher(store, tree, opts.match);
  AQUA_ASSIGN_OR_RETURN(std::vector<TreeMatch> matches, matcher.FindAll(tp));
  Datum out = Datum::Set({});
  for (const TreeMatch& m : matches) {
    Tree x = tree.CopyWithSubtreeReplacedByPoint(m.root, opts.context_label);
    AQUA_ASSIGN_OR_RETURN(Tree y, MakeMatchPiece(tree, m, opts));
    AQUA_ASSIGN_OR_RETURN(Datum result, fn(x, CloseAllPoints(y)));
    out.SetInsert(std::move(result));
  }
  return out;
}

Result<Datum> TreeAllDesc(const StoreView& store, const Tree& tree,
                          const TreePatternRef& tp, const DescFn& fn,
                          const SplitOptions& opts) {
  TreeMatcher matcher(store, tree, opts.match);
  AQUA_ASSIGN_OR_RETURN(std::vector<TreeMatch> matches, matcher.FindAll(tp));
  Datum out = Datum::Set({});
  for (const TreeMatch& m : matches) {
    AQUA_ASSIGN_OR_RETURN(Tree y, MakeMatchPiece(tree, m, opts));
    std::vector<Tree> z;
    z.reserve(m.cuts.size());
    for (const TreeCut& cut : m.cuts) z.push_back(tree.SubtreeCopy(cut.node));
    AQUA_ASSIGN_OR_RETURN(Datum result, fn(y, z));
    out.SetInsert(std::move(result));
  }
  return out;
}

}  // namespace aqua
