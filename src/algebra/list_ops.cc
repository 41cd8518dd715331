#include "algebra/list_ops.h"

#include "bulk/concat.h"
#include "obs/metrics.h"
#include "pattern/multi.h"

namespace aqua {

ListSplitPieces MakeListSplitPieces(const List& list, const ListMatch& match,
                                    const ListSplitOptions& opts) {
  ListSplitPieces pieces;
  // x: prefix ending in the context point.
  pieces.x = list.Sublist(0, match.begin);
  pieces.x.Append(NodePayload::ConcatPoint(opts.context_label));

  // y: matched elements with each maximal pruned run replaced by a point;
  // the suffix (descendants in the list-like-tree view) becomes a final cut.
  auto ranges = match.PruneRanges();
  size_t cut = 0;
  size_t next_range = 0;
  for (size_t i = match.begin; i < match.end; ++i) {
    if (next_range < ranges.size() && i == ranges[next_range].first) {
      pieces.y.Append(NodePayload::ConcatPoint(
          opts.cut_prefix + std::to_string(++cut)));
      pieces.z.push_back(
          list.Sublist(ranges[next_range].first, ranges[next_range].second));
      i = ranges[next_range].second - 1;  // loop ++ moves past the run
      ++next_range;
    } else {
      pieces.y.Append(list.at(i));
    }
  }
  if (match.end < list.size()) {
    pieces.y.Append(NodePayload::ConcatPoint(
        opts.cut_prefix + std::to_string(++cut)));
    pieces.z.push_back(list.Sublist(match.end, list.size()));
  }
  return pieces;
}

List ReassembleListSplit(const ListSplitPieces& pieces,
                         const ListSplitOptions& opts) {
  List out = ConcatAt(pieces.x, opts.context_label, pieces.y);
  for (size_t i = 0; i < pieces.z.size(); ++i) {
    out = ConcatAt(out, opts.cut_prefix + std::to_string(i + 1), pieces.z[i]);
  }
  return out;
}

Result<List> ListSelect(const StoreView& store, const List& list,
                        const PredicateRef& pred) {
  if (pred == nullptr) return Status::InvalidArgument("null predicate");
  List out;
  for (const auto& e : list.elems()) {
    if (e.is_cell() && pred->Eval(store, e.oid())) out.Append(e);
  }
  return out;
}

Result<List> ListApply(ObjectStore& store, const List& list,
                       const ListNodeFn& fn) {
  List out;
  for (const auto& e : list.elems()) {
    if (e.is_cell()) {
      AQUA_ASSIGN_OR_RETURN(Oid mapped, fn(store, e.oid()));
      out.Append(NodePayload::Cell(mapped));
    } else {
      out.Append(e);
    }
  }
  return out;
}

Result<List> ListApplyTxn(StoreTxn& txn, const List& list,
                          const ListTxnNodeFn& fn) {
  List out;
  for (const auto& e : list.elems()) {
    if (e.is_cell()) {
      AQUA_ASSIGN_OR_RETURN(Oid mapped, fn(txn, e.oid()));
      out.Append(NodePayload::Cell(mapped));
    } else {
      out.Append(e);
    }
  }
  return out;
}

Result<Datum> ListSplit(const StoreView& store, const List& list,
                        const AnchoredListPattern& lp, const ListSplitFn& fn,
                        const ListSplitOptions& opts) {
  ListMatcher matcher(store, list);
  AQUA_ASSIGN_OR_RETURN(std::vector<ListMatch> matches,
                        matcher.FindAll(lp, opts.match));
  Datum out = Datum::Set({});
  for (const ListMatch& m : matches) {
    ListSplitPieces pieces = MakeListSplitPieces(list, m, opts);
    AQUA_ASSIGN_OR_RETURN(Datum result, fn(pieces.x, pieces.y, pieces.z));
    out.SetInsert(std::move(result));
  }
  return out;
}

Datum ListSubSelectOfMatches(const List& list,
                             const std::vector<ListMatch>& matches) {
  // Each matched sublist with its pruned runs removed, in match order.
  Datum out = Datum::Set({});
  for (const ListMatch& m : matches) {
    List y;
    auto ranges = m.PruneRanges();
    size_t next_range = 0;
    for (size_t i = m.begin; i < m.end; ++i) {
      if (next_range < ranges.size() && i == ranges[next_range].first) {
        i = ranges[next_range].second - 1;
        ++next_range;
        continue;
      }
      y.Append(list.at(i));
    }
    out.SetInsert(Datum::Of(std::move(y)));
  }
  return out;
}

// The search automaton's language is a superset of the backtracking
// matcher's matches (pruning shapes results, not the language; anchors
// only narrow it), so a negative single-pass scan proves there is no match
// and skips backtracking entirely. A null `dfa` compiles the one-pattern
// search automaton of `body` for this call. A pattern the automaton cannot
// compile (a tree atom) fails here with the error the matcher's own
// validation would give.
Result<bool> ListPrefilterRejects(const StoreView& store, const List& list,
                                  const ListPatternRef& body,
                                  LazyMultiDfa* dfa) {
  if (dfa == nullptr) {
    AQUA_ASSIGN_OR_RETURN(MultiNfa nfa, MultiNfa::CompileSearch({body}));
    AQUA_ASSIGN_OR_RETURN(LazyMultiDfa own, LazyMultiDfa::Make(&nfa));
    return ListPrefilterRejects(store, list, body, &own);
  }
  if (dfa->MatchAll(store, list) != 0) return false;
  AQUA_OBS_COUNT("pattern.nfa_prefilter_rejects", 1);
  return true;
}

Result<Datum> ListSubSelect(const StoreView& store, const List& list,
                            const AnchoredListPattern& lp,
                            const ListSplitOptions& opts,
                            LazyMultiDfa* prefilter) {
  AQUA_ASSIGN_OR_RETURN(bool rejected,
                        ListPrefilterRejects(store, list, lp.body, prefilter));
  if (rejected) return Datum::Set({});
  return ListSubSelectMatches(store, list, lp, opts);
}

Result<Datum> ListSubSelectMatches(const StoreView& store, const List& list,
                                   const AnchoredListPattern& lp,
                                   const ListSplitOptions& opts) {
  ListMatcher matcher(store, list);
  AQUA_ASSIGN_OR_RETURN(std::vector<ListMatch> matches,
                        matcher.FindAll(lp, opts.match));
  return ListSubSelectOfMatches(list, matches);
}

Result<Datum> ListSubSelectAtBegins(const StoreView& store, const List& list,
                                    const AnchoredListPattern& lp,
                                    const std::vector<NodeId>& begins,
                                    const ListSplitOptions& opts) {
  // Dense begin sets approach a full backtracking scan, so the existence
  // prefilter pays for itself by proving "no match" early. Sparse begin
  // sets skip it: probing a handful of begins is already cheaper than the
  // scan.
  if (begins.size() * 16 >= list.size()) {
    AQUA_ASSIGN_OR_RETURN(bool rejected,
                          ListPrefilterRejects(store, list, lp.body));
    if (rejected) return Datum::Set({});
  }
  ListMatcher matcher(store, list);
  AQUA_ASSIGN_OR_RETURN(
      std::vector<ListMatch> matches,
      matcher.FindAllAtBegins(
          lp, std::vector<size_t>(begins.begin(), begins.end()), opts.match));
  return ListSubSelectOfMatches(list, matches);
}

Result<Datum> ListAllAnc(const StoreView& store, const List& list,
                         const AnchoredListPattern& lp, const ListAncFn& fn,
                         const ListSplitOptions& opts) {
  ListMatcher matcher(store, list);
  AQUA_ASSIGN_OR_RETURN(std::vector<ListMatch> matches,
                        matcher.FindAll(lp, opts.match));
  Datum out = Datum::Set({});
  for (const ListMatch& m : matches) {
    ListSplitPieces pieces = MakeListSplitPieces(list, m, opts);
    AQUA_ASSIGN_OR_RETURN(Datum result,
                          fn(pieces.x, CloseAllPoints(pieces.y)));
    out.SetInsert(std::move(result));
  }
  return out;
}

Result<Datum> ListAllDesc(const StoreView& store, const List& list,
                          const AnchoredListPattern& lp, const ListDescFn& fn,
                          const ListSplitOptions& opts) {
  ListMatcher matcher(store, list);
  AQUA_ASSIGN_OR_RETURN(std::vector<ListMatch> matches,
                        matcher.FindAll(lp, opts.match));
  Datum out = Datum::Set({});
  for (const ListMatch& m : matches) {
    ListSplitPieces pieces = MakeListSplitPieces(list, m, opts);
    AQUA_ASSIGN_OR_RETURN(Datum result, fn(pieces.y, pieces.z));
    out.SetInsert(std::move(result));
  }
  return out;
}

}  // namespace aqua
