#ifndef AQUA_ALGEBRA_TREE_OPS_H_
#define AQUA_ALGEBRA_TREE_OPS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "object/object_store.h"
#include "bulk/datum.h"
#include "bulk/tree.h"
#include "pattern/predicate.h"
#include "pattern/tree_matcher.h"
#include "pattern/tree_pattern.h"

namespace aqua {

/// Per-node mapping function used by `apply`; may create objects.
using NodeFn = std::function<Result<Oid>(ObjectStore&, Oid)>;

/// Per-node mapping over a store transaction — the surface the versioned
/// executor drives: `DirectTxn` lands on the head (serial path), `DeltaTxn`
/// buffers writes against a snapshot (parallel certified path).
using TxnNodeFn = std::function<Result<Oid>(StoreTxn&, Oid)>;

/// The function parameter of `split`: applied to the three pieces —
/// ancestors-context `x`, match `y`, and cut subtrees `z` (§4).
using SplitFn = std::function<Result<Datum>(
    const Tree& x, const Tree& y, const std::vector<Tree>& z)>;

/// Options controlling `split` and the operators derived from it.
struct SplitOptions {
  /// Label of the point marking where the match attaches to its ancestors
  /// (the paper's α).
  std::string context_label = "a";
  /// Cut points are labeled `<cut_prefix>1`, `<cut_prefix>2`, ... in the
  /// order they appear in the match piece (the paper's α1..αn).
  std::string cut_prefix = "a";
  /// Matching options (memoization, enumeration bounds).
  TreeMatchOptions match;
};

/// The three pieces `split` produces for one match.
struct SplitPieces {
  /// All ancestors of the match and their descendants, except the match
  /// itself; a point labeled `context_label` marks the match position.
  Tree x;
  /// The match, with points `α1..αn` where subtrees were cut.
  Tree y;
  /// The cut subtrees, in `α1..αn` order.
  std::vector<Tree> z;
};

/// Builds the (x, y, z) pieces for one enumerated match.
Result<SplitPieces> MakeSplitPieces(const Tree& tree, const TreeMatch& match,
                                    const SplitOptions& opts = {});

/// Builds only the match piece `y` (cheaper path used by `sub_select`).
Result<Tree> MakeMatchPiece(const Tree& tree, const TreeMatch& match,
                            const SplitOptions& opts = {});

/// `select(p)(T)` (§4): keeps exactly the nodes satisfying `p`, preserving
/// the ancestor ordering between every pair of kept nodes; an edge is drawn
/// between kept nodes when no kept node lies strictly between them. Returns
/// a forest (one tree per kept node with no kept proper ancestor).
/// Concatenation-point nodes are invisible to predicates and are contracted.
Result<std::vector<Tree>> TreeSelect(const StoreView& store,
                                     const Tree& tree,
                                     const PredicateRef& pred);

/// The two phases of `TreeSelect`, for a caller that builds the forest's
/// trees in parallel (`TreeSelect` is `TreeSelectBuild` over each of
/// `TreeSelectRoots`, in order). `TreeSelectRoots` finds the kept nodes
/// with no kept proper ancestor, left to right; `TreeSelectBuild` builds
/// the result tree of one of them. Builds of distinct roots read disjoint
/// subtrees and share nothing mutable.
Result<std::vector<NodeId>> TreeSelectRoots(const StoreView& store,
                                            const Tree& tree,
                                            const PredicateRef& pred);
Tree TreeSelectBuild(const StoreView& store, const Tree& tree,
                     const Predicate& pred, NodeId root);

/// `apply(f)(T)` (§4): maps every cell through `f`, yielding an isomorphic
/// tree; point nodes are copied unchanged.
Result<Tree> TreeApply(ObjectStore& store, const Tree& tree, const NodeFn& fn);

/// `apply` over a transaction: same cell-by-cell mapping, but reads and
/// writes go through `txn`. With a `DeltaTxn`, created objects surface as
/// provisional oids in the result tree until the delta commits.
Result<Tree> TreeApplyTxn(StoreTxn& txn, const Tree& tree,
                          const TxnNodeFn& fn);

/// `split(tp, f)(T)` (§4), the primitive ordered-tree operator: for every
/// match of `tp` in `T`, applies `f` to the pieces (x, y, z) and returns the
/// set of results.
Result<Datum> TreeSplit(const StoreView& store, const Tree& tree,
                        const TreePatternRef& tp, const SplitFn& fn,
                        const SplitOptions& opts = {});

/// `sub_select(tp)(T)` (§4): the set of subgraphs of `T` matching `tp`
/// (match pieces with all points closed by NULL). Direct implementation that
/// skips building x and z.
Result<Datum> TreeSubSelect(const StoreView& store, const Tree& tree,
                            const TreePatternRef& tp,
                            const SplitOptions& opts = {});

/// `sub_select(tp)(T)` with match roots restricted to `roots`, which must be
/// in document order without duplicates (an index probe's answer; see
/// `TreeMatcher::FindAllAtRoots`). The fused §4 physical operator: it costs
/// the candidates' matching, not the size of `T`.
Result<Datum> TreeSubSelectAtRoots(const StoreView& store, const Tree& tree,
                                   const TreePatternRef& tp,
                                   const std::vector<NodeId>& roots,
                                   const SplitOptions& opts = {});

/// The function parameter of `all_anc` / `all_desc`.
using AncFn =
    std::function<Result<Datum>(const Tree& ancestors, const Tree& match)>;
using DescFn = std::function<Result<Datum>(const Tree& match,
                                           const std::vector<Tree>& desc)>;

/// `all_anc(tp, f)(T)` (§4): per match, `f(x, y ∘_{α1..αn} [])` — the
/// ancestors context (still carrying its α point) and the closed match.
Result<Datum> TreeAllAnc(const StoreView& store, const Tree& tree,
                         const TreePatternRef& tp, const AncFn& fn,
                         const SplitOptions& opts = {});

/// `all_desc(tp, f)(T)` (§4): per match, `f(y, z)` — the match (with its
/// cut points) and the list of descendant/pruned subtrees.
Result<Datum> TreeAllDesc(const StoreView& store, const Tree& tree,
                          const TreePatternRef& tp, const DescFn& fn,
                          const SplitOptions& opts = {});

/// Reassembles `x ∘_α y ∘_{α1} z1 ... ∘_{αn} zn` — the inverse of `split`
/// for pieces produced with `opts`. Used by tests and by rewrite examples
/// that edit `y` before reattaching (§5).
Tree ReassembleSplit(const SplitPieces& pieces, const SplitOptions& opts = {});

}  // namespace aqua

#endif  // AQUA_ALGEBRA_TREE_OPS_H_
