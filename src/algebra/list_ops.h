#ifndef AQUA_ALGEBRA_LIST_OPS_H_
#define AQUA_ALGEBRA_LIST_OPS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "object/object_store.h"
#include "bulk/datum.h"
#include "bulk/list.h"
#include "pattern/list_matcher.h"
#include "pattern/list_pattern.h"
#include "pattern/predicate.h"

namespace aqua {

/// Per-element mapping used by list `apply`; may create objects.
using ListNodeFn = std::function<Result<Oid>(ObjectStore&, Oid)>;

/// Per-element mapping over a store transaction (see tree_ops.h).
using ListTxnNodeFn = std::function<Result<Oid>(StoreTxn&, Oid)>;

/// The function parameter of list `split`: the prefix context `x` (ending in
/// its α point), the match `y` (with points at cut positions), and the cut
/// sublists `z`.
using ListSplitFn = std::function<Result<Datum>(
    const List& x, const List& y, const std::vector<List>& z)>;

/// Options controlling list `split` and derived operators; mirrors the tree
/// `SplitOptions` through the list↔list-like-tree mapping (§6).
struct ListSplitOptions {
  std::string context_label = "a";
  std::string cut_prefix = "a";
  ListMatchOptions match;
};

/// The three pieces of one list split.
struct ListSplitPieces {
  List x;  ///< prefix before the match, ending in the α point
  List y;  ///< the match, with a point per pruned run and per cut suffix
  std::vector<List> z;  ///< pruned runs (in order), then the suffix (if any)
};

/// Builds the pieces for one enumerated list match. Each maximal pruned run
/// becomes one cut; the unmatched suffix (the match's "descendants" in the
/// list-like-tree view) becomes the final cut when non-empty.
ListSplitPieces MakeListSplitPieces(const List& list, const ListMatch& match,
                                    const ListSplitOptions& opts = {});

/// Reassembles `x ∘_α y ∘_{αi} zi` back into the original list.
List ReassembleListSplit(const ListSplitPieces& pieces,
                         const ListSplitOptions& opts = {});

/// `select(p)(L)`: stable filter keeping elements satisfying `p`
/// (concatenation points are invisible to predicates and are dropped).
Result<List> ListSelect(const StoreView& store, const List& list,
                        const PredicateRef& pred);

/// `apply(f)(L)`: maps every cell; points copy unchanged.
Result<List> ListApply(ObjectStore& store, const List& list,
                       const ListNodeFn& fn);

/// `apply` over a transaction: reads and writes go through `txn`; with a
/// `DeltaTxn`, created objects surface as provisional oids until commit.
Result<List> ListApplyTxn(StoreTxn& txn, const List& list,
                          const ListTxnNodeFn& fn);

/// `split(lp, f)(L)` (§6): the list primitive.
Result<Datum> ListSplit(const StoreView& store, const List& list,
                        const AnchoredListPattern& lp, const ListSplitFn& fn,
                        const ListSplitOptions& opts = {});

class LazyMultiDfa;  // pattern/multi.h

/// `sub_select(lp)(L)`: the set of sublists matching `lp` (pruned runs
/// removed).
///
/// An existence prefilter runs first: one pass of a lazy DFA over the
/// one-pattern search automaton of `lp.body` proves "no match" before any
/// backtracking. `prefilter` is such a DFA owned by a caller that reuses it
/// across a corpus (one warmed DFA per worker, as `ListSubSelectOp` keeps);
/// null compiles one for this call.
Result<Datum> ListSubSelect(const StoreView& store, const List& list,
                            const AnchoredListPattern& lp,
                            const ListSplitOptions& opts = {},
                            LazyMultiDfa* prefilter = nullptr);

/// The two halves of `ListSubSelect` around its backtracking search, for
/// a caller that runs the search itself (over begin ranges, see
/// `ListMatcher::FindAllInRange`). `ListPrefilterRejects` is the
/// existence prefilter (true: `lp.body` matches nowhere in `list`; `dfa`
/// as in `ListSubSelect`); `ListSubSelectOfMatches` builds the result set
/// from matches in `FindAll` order.
Result<bool> ListPrefilterRejects(const StoreView& store, const List& list,
                                  const ListPatternRef& body,
                                  LazyMultiDfa* dfa = nullptr);
Datum ListSubSelectOfMatches(const List& list,
                             const std::vector<ListMatch>& matches);

/// `sub_select(lp)(L)` with match starts restricted to the positions
/// `begins` (an index probe's answer on the pattern's head predicate).
/// Agrees with `ListSubSelect` whenever every match of `lp` starts at one
/// of `begins`.
Result<Datum> ListSubSelectAtBegins(const StoreView& store, const List& list,
                                    const AnchoredListPattern& lp,
                                    const std::vector<NodeId>& begins,
                                    const ListSplitOptions& opts = {});

/// The backtracking half of `ListSubSelect`, for a caller whose own scan
/// already answered the existence question (the batched list group, whose
/// merged automaton is every member's prefilter at once).
Result<Datum> ListSubSelectMatches(const StoreView& store, const List& list,
                                   const AnchoredListPattern& lp,
                                   const ListSplitOptions& opts);

using ListAncFn =
    std::function<Result<Datum>(const List& prefix, const List& match)>;
using ListDescFn = std::function<Result<Datum>(const List& match,
                                               const std::vector<List>& desc)>;

/// `all_anc(lp, f)(L)`: per match, `f(x, y-with-points-closed)` — e.g. the
/// paper's melody query returning ⟨notes before the melody, the melody⟩.
Result<Datum> ListAllAnc(const StoreView& store, const List& list,
                         const AnchoredListPattern& lp, const ListAncFn& fn,
                         const ListSplitOptions& opts = {});

/// `all_desc(lp, f)(L)`: per match, `f(y, z)`.
Result<Datum> ListAllDesc(const StoreView& store, const List& list,
                          const AnchoredListPattern& lp, const ListDescFn& fn,
                          const ListSplitOptions& opts = {});

}  // namespace aqua

#endif  // AQUA_ALGEBRA_LIST_OPS_H_
