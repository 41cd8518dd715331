#ifndef AQUA_PATTERN_LIST_MATCHER_H_
#define AQUA_PATTERN_LIST_MATCHER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/result.h"
#include "object/object_store.h"
#include "bulk/list.h"
#include "pattern/list_pattern.h"

namespace aqua {

/// One way a list pattern matches a sublist (§3.4).
struct ListMatch {
  /// Matched sublist is `[begin, end)`.
  size_t begin = 0;
  size_t end = 0;
  /// Positions inside `[begin, end)` consumed under a `!` scope, sorted.
  /// These elements are pruned from the result and become cut pieces.
  std::vector<size_t> pruned;

  /// Maximal runs of pruned positions, as `[first, last)` ranges in order.
  std::vector<std::pair<size_t, size_t>> PruneRanges() const;

  friend bool operator==(const ListMatch& a, const ListMatch& b) {
    return a.begin == b.begin && a.end == b.end && a.pruned == b.pruned;
  }
  friend bool operator<(const ListMatch& a, const ListMatch& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    if (a.end != b.end) return a.end < b.end;
    return a.pruned < b.pruned;
  }
};

/// Options bounding match enumeration.
struct ListMatchOptions {
  /// Stop after this many matches (0 = unlimited).
  size_t max_matches = 0;
  /// Keep only the first derivation found per (begin, end) extent; distinct
  /// prune decompositions of the same extent are dropped.
  bool distinct_extents_only = false;
  /// Abort with InvalidArgument after this many atom probes (0 = unlimited).
  /// Backtracking over ambiguous closures can be exponential (the paper's
  /// footnote 3); a budget turns a runaway query into an error the caller
  /// can handle (e.g. by falling back to the NFA for boolean questions).
  size_t max_steps = 0;
};

/// Backtracking pattern matcher over a list instance.
///
/// Elements that are concatenation points (§3.5) are invisible to
/// alphabet-predicates and `?`; they are matched only by pattern points with
/// the same label. A pattern point may also match the empty string (a NULL
/// closing, §3.3), so `@a` in a pattern consumes either one same-labeled
/// instance point or nothing.
///
/// Depth guard: the engine passes continuations down the stack, so every
/// element a derivation consumes nests one more engine level per level of
/// pattern structure around its atom (`?*` spends one level per element, a
/// grouped body such as `[[!?]]*` two). A derivation that would nest deeper
/// than `kMaxDepth` levels ends the call with InvalidArgument instead of
/// overflowing the thread's stack; this is the list counterpart of
/// `TreeMatcher::kMaxDepth`.
///
/// Thread model: a ListMatcher carries per-call mutable state (`steps_`)
/// and must not be shared between threads; the algebra layer constructs
/// one per (list, call). Concurrent matchers over different lists are safe
/// — each holds a `StoreView` pinning one immutable store epoch (passing
/// an `ObjectStore` snapshots it at construction).
class ListMatcher {
 public:
  /// Engine levels one derivation may nest, fixed per build. A level costs
  /// at most 0.3 KB of stack in an optimized build, so 20000 (about 6 MB)
  /// fits an 8 MB stack. TSan, unoptimized and ASan builds
  /// spend up to 0.43, 0.79 and 1.22 KB a level, so they allow 4096
  /// (at most 5 MB).
  static const size_t kMaxDepth;

  ListMatcher(StoreView store, const List& list)
      : store_(std::move(store)), list_(list) {}

  /// Enumerates all matches (all begin positions unless anchored, all
  /// derivations deduplicated), ordered by (begin, end, prunes).
  Result<std::vector<ListMatch>> FindAll(const AnchoredListPattern& pattern,
                                         const ListMatchOptions& opts = {});

  /// Enumerates matches beginning only at the given positions (the physical
  /// operator behind index-anchored list sub_select). `begins` must be
  /// sorted ascending; a `^` anchor further restricts to position 0.
  Result<std::vector<ListMatch>> FindAllAtBegins(
      const AnchoredListPattern& pattern, const std::vector<size_t>& begins,
      const ListMatchOptions& opts = {});

  /// Enumerates matches beginning in `[first, last)`, clamped to the
  /// list's `size() + 1` begin positions, ordered like `FindAll`: the morsel
  /// entry point of a list sub_select split into begin ranges. Without
  /// `max_matches` and `max_steps` (both budgets count per call) the
  /// matches of consecutive ranges concatenate to `FindAll`'s answer and
  /// their steps sum to its steps. Only the range starting at 0 counts a
  /// `pattern.list_match_calls`, so a split list counts one call, as an
  /// unsplit one does.
  Result<std::vector<ListMatch>> FindAllInRange(
      const AnchoredListPattern& pattern, size_t first, size_t last,
      const ListMatchOptions& opts = {});

  /// True when the entire list is in the pattern's language.
  Result<bool> MatchesWhole(const ListPatternRef& body);

  /// Atom probes executed by the last call (work measure for benchmarks).
  size_t steps() const { return steps_; }

  /// Fails on a pattern no list engine runs (a tree-pattern atom).
  static Status ValidateListPattern(const ListPattern& p);

 private:
  /// The one enumeration loop: begins `begins[lo..hi)`, or the positions
  /// `lo..hi` themselves when `begins` is null.
  Result<std::vector<ListMatch>> Enumerate(const AnchoredListPattern& pattern,
                                           const size_t* begins, size_t lo,
                                           size_t hi,
                                           const ListMatchOptions& opts,
                                           bool count_call);

  StoreView store_;
  const List& list_;
  size_t steps_ = 0;
};

}  // namespace aqua

#endif  // AQUA_PATTERN_LIST_MATCHER_H_
