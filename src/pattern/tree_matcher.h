#ifndef AQUA_PATTERN_TREE_MATCHER_H_
#define AQUA_PATTERN_TREE_MATCHER_H_

#include <deque>
#include <functional>
#include <map>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/function_ref.h"
#include "common/result.h"
#include "object/object_store.h"
#include "obs/query_context.h"
#include "bulk/tree.h"
#include "pattern/tree_pattern.h"

namespace aqua {

/// One cut produced while matching: the root (in the subject tree) of a
/// subtree that is excised from the match piece and replaced by a
/// concatenation point (§3.4, §4).
struct TreeCut {
  NodeId node = kInvalidNode;
  /// True when the cut came from a `!` prune; false when it is an
  /// unmatched-descendant cut (children of a leaf-matched node).
  bool from_prune = false;

  friend bool operator==(const TreeCut& a, const TreeCut& b) {
    return a.node == b.node && a.from_prune == b.from_prune;
  }
};

/// One match of a tree pattern: the matched subgraph plus its cuts.
///
/// `matched` lists the subject-tree nodes included in the match piece in
/// document (preorder) order; `cuts` lists cut subtree roots in the order
/// their concatenation points appear in the match piece — this is the
/// `α1..αn` numbering used by `split` (§4).
struct TreeMatch {
  NodeId root = kInvalidNode;
  std::vector<NodeId> matched;
  std::vector<TreeCut> cuts;

  friend bool operator==(const TreeMatch& a, const TreeMatch& b) {
    return a.root == b.root && a.matched == b.matched && a.cuts == b.cuts;
  }
};

/// Options bounding tree-match enumeration.
struct TreeMatchOptions {
  /// Memoize boolean subtree-match results (pattern × environment × node).
  /// This is the optimization that tames the exponential cases the paper's
  /// footnote 3 concedes; `bench_tree_kleene` ablates it.
  bool memoize = true;
  /// Stop after this many matches (0 = unlimited).
  size_t max_matches = 0;
  /// Keep only the first derivation per match root.
  bool first_derivation_per_root = false;
  /// Backtracking depth guard (defends against degenerate nested closures).
  /// Also bounds the engine levels of each children sequence, which nests
  /// one level per child it consumes.
  size_t max_depth = 20000;
};

/// Matcher for tree patterns (§3.3–§3.4) over one subject tree.
///
/// Children sequences must describe a node's entire child list (pad with
/// `?*` as the paper's examples do). A node matched by a *leaf* pattern
/// keeps its node in the match while each of its child subtrees becomes a
/// descendant cut; `!`-pruned nodes contribute their whole subtree as a
/// pruned cut.
///
/// Thread model: a TreeMatcher mutates internal state (the memo cache,
/// step counters) while matching, so one instance must not be shared
/// between threads. It is cheap to construct; the algebra layer builds one
/// per (tree, call), which is what makes tree operators safe to fan out
/// across pool workers — concurrent matchers share only the const `Tree`
/// and each hold a `StoreView` pinning one immutable store epoch (passing
/// an `ObjectStore` snapshots it at construction).
class TreeMatcher {
 public:
  TreeMatcher(StoreView store, const Tree& tree, TreeMatchOptions opts = {});

  /// Enumerates matches rooted anywhere (respects `^` root anchors),
  /// deduplicated, ordered by root preorder position.
  Result<std::vector<TreeMatch>> FindAll(const TreePatternRef& tp);

  /// Enumerates matches rooted at the given candidate nodes only (the
  /// physical operator behind index-accelerated `split`/`sub_select`, §4
  /// "Why Split?").
  Result<std::vector<TreeMatch>> FindAllAtRoots(
      const TreePatternRef& tp, const std::vector<NodeId>& roots);

  /// True when `tp` matches rooted at node `v`.
  Result<bool> MatchesAt(const TreePatternRef& tp, NodeId v);

  /// True when `tp` matches rooted at some node.
  Result<bool> MatchesAnywhere(const TreePatternRef& tp);

  /// Pattern-position probes executed by the last call (work measure).
  size_t steps() const { return steps_; }

  /// Memo-table hits during the last call (how much of the footnote-3
  /// exponential work the cache absorbed).
  size_t memo_hits() const { return memo_hits_; }

 private:
  /// A binding of a concatenation-point label to the pattern substituted at
  /// it (plus the environment that pattern's own points resolve in).
  struct PointEnv {
    const std::string* label;
    const TreePattern* pattern;
    const PointEnv* pattern_env;
    const PointEnv* next;
    uint32_t id;
  };

  /// Derivation continuations. Non-owning (see `FunctionRef`): each is
  /// invoked only during the call that receives it, so a matcher step
  /// passes a stack lambda down and never allocates.
  using Cont = FunctionRef<void()>;
  using PosCont = FunctionRef<void(size_t)>;

  const PointEnv* Bind(const std::string& label, const TreePattern* pattern,
                       const PointEnv* pattern_env, const PointEnv* outer);
  static const PointEnv* Lookup(const PointEnv* env, const std::string& label);

  /// Ways `tp` matches rooted at node `v`; calls `cont` per derivation.
  /// In boolean mode with memoization enabled this routes through
  /// `ExistsAt`, so repeated subtree questions collapse (the footnote-3
  /// optimization measured by `bench_tree_kleene`).
  void MatchAt(const TreePattern* tp, const PointEnv* env, NodeId v,
               bool leaf_strict, Cont cont);

  /// The raw derivation enumerator behind `MatchAt` (no memo interception).
  void MatchAtImpl(const TreePattern* tp, const PointEnv* env, NodeId v,
                   bool leaf_strict, Cont cont);

  /// Ways atom pattern `tp` matches at child position `pos` of `parent`'s
  /// child list (may consume zero children for points/closures).
  void MatchAtomPattern(const TreePattern* tp, const PointEnv* env,
                        NodeId parent, size_t pos, bool pruned,
                        bool leaf_strict, PosCont cont);

  /// Regex walk of a children-sequence pattern over `parent`'s children.
  void MatchChildren(const ListPattern* lp, const PointEnv* env, NodeId parent,
                     size_t pos, bool leaf_strict, PosCont cont);

  /// Boolean: does `tp` match rooted at `v`? Memoized when enabled.
  bool ExistsAt(const TreePattern* tp, const PointEnv* env, NodeId v,
                bool leaf_strict);

  void RecordLeafCuts(NodeId v, Cont cont);

  bool CheckDepth();

  /// Cooperative lifecycle probe, called once per `kCheckStride` steps:
  /// charges scratch-memory growth to the query, counts visited nodes, and
  /// turns a pending cancellation / expired deadline / blown memory budget
  /// into `error_`, unwinding the whole match. No-op outside a query.
  void LifecycleCheck();

  /// Estimated bytes of matcher scratch state (memo table, environment
  /// arena, derivation stacks) — what an unmemoized closure explosion
  /// actually grows.
  size_t ScratchBytes() const;

  StoreView store_;
  const Tree& tree_;
  TreeMatchOptions opts_;

  std::deque<PointEnv> env_arena_;
  uint32_t next_env_id_ = 1;

  struct EnvKey {
    const std::string* label;
    const TreePattern* pattern;
    uint32_t pattern_env_id;
    uint32_t outer_id;
    friend bool operator<(const EnvKey& a, const EnvKey& b) {
      return std::tie(a.label, a.pattern, a.pattern_env_id, a.outer_id) <
             std::tie(b.label, b.pattern, b.pattern_env_id, b.outer_id);
    }
  };
  std::map<EnvKey, const PointEnv*> env_intern_;

  // Derivation state (push/pop discipline).
  std::vector<NodeId> matched_stack_;
  std::vector<TreeCut> cut_stack_;
  size_t depth_ = 0;
  size_t steps_ = 0;
  size_t memo_hits_ = 0;
  /// Captured from `obs::QueryContext::Current()` per entry point; null
  /// outside a query.
  obs::QueryContext* query_ = nullptr;
  /// Scratch bytes already charged to `query_` (released on exit).
  size_t mem_charged_ = 0;
  bool bool_mode_found_ = false;
  bool in_bool_mode_ = false;
  bool touched_in_progress_ = false;
  Status error_;

  struct MemoKey {
    const TreePattern* tp;
    uint32_t env_id;
    NodeId node;
    bool leaf_strict;
    friend bool operator==(const MemoKey& a, const MemoKey& b) {
      return a.tp == b.tp && a.env_id == b.env_id && a.node == b.node &&
             a.leaf_strict == b.leaf_strict;
    }
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& k) const {
      size_t h = std::hash<const void*>{}(k.tp);
      h = h * 1315423911u ^ k.env_id;
      h = h * 1315423911u ^ k.node;
      h = h * 1315423911u ^ (k.leaf_strict ? 1 : 0);
      return h;
    }
  };
  /// Memo values: 0 = no match, 1 = match, 2 = computation in progress
  /// (treated as "no" while open; see ExistsAt for why that is sound).
  std::unordered_map<MemoKey, int8_t, MemoKeyHash> memo_;
};

}  // namespace aqua

#endif  // AQUA_PATTERN_TREE_MATCHER_H_
