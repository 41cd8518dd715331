#include "pattern/tree_matcher.h"

#include <algorithm>

#include "obs/metrics.h"
#include "pattern/regex_engine.h"

namespace aqua {

const size_t TreeMatcher::kMaxDepth = kLargeStackFrames ? 2048 : 10000;

namespace {

/// Flushes one matcher call's work counters to the registry on every exit
/// path (including depth-limit errors).
struct TreeMatchFlush {
  const size_t* steps;
  const size_t* memo_hits;
  TreeMatchFlush(const size_t* s, const size_t* m) : steps(s), memo_hits(m) {}
  ~TreeMatchFlush() {
    AQUA_OBS_COUNT("pattern.tree_match_calls", 1);
    if (*steps > 0) AQUA_OBS_COUNT("pattern.tree_steps", *steps);
    if (*memo_hits > 0) AQUA_OBS_COUNT("pattern.tree_memo_hits", *memo_hits);
    AQUA_OBS_RECORD("pattern.tree_steps_per_call", *steps);
  }
};

/// Releases the scratch bytes a matcher call charged to its query on every
/// exit path, so a cancelled match does not leave a phantom allocation in
/// the query's live-bytes estimate.
struct ScratchRelease {
  obs::QueryContext** query;
  size_t* charged;
  ~ScratchRelease() {
    if (*query != nullptr && *charged > 0) {
      (*query)->AddMem(-static_cast<int64_t>(*charged));
    }
    *charged = 0;
  }
};

}  // namespace

TreeMatcher::TreeMatcher(StoreView store, const Tree& tree,
                         TreeMatchOptions opts)
    : store_(std::move(store)), tree_(tree), opts_(opts) {}

size_t TreeMatcher::ScratchBytes() const {
  // Rough per-entry footprints (key + value + hash/map overhead); only the
  // *scaling* matters — these structures are what a footnote-3 exponential
  // without memoization actually grows.
  return memo_.size() * 56 + env_arena_.size() * sizeof(PointEnv) +
         env_intern_.size() * 64 +
         matched_stack_.capacity() * sizeof(NodeId) +
         cut_stack_.capacity() * sizeof(TreeCut);
}

void TreeMatcher::LifecycleCheck() {
  if (query_ == nullptr ||
      (steps_ & (obs::QueryContext::kCheckStride - 1)) != 0) {
    return;
  }
  size_t est = ScratchBytes();
  if (est > mem_charged_) {
    query_->AddMem(static_cast<int64_t>(est - mem_charged_));
    mem_charged_ = est;
  }
  query_->AddNodes(obs::QueryContext::kCheckStride);
  if (error_.ok()) {
    Status st = query_->CheckPoint();
    if (!st.ok()) error_ = std::move(st);
  }
}

const TreeMatcher::PointEnv* TreeMatcher::Bind(const std::string& label,
                                               const TreePattern* pattern,
                                               const PointEnv* pattern_env,
                                               const PointEnv* outer) {
  // Intern environments: closure iterations re-create semantically identical
  // bindings, and interning makes the boolean memo effective across them.
  EnvKey key{&label, pattern, pattern_env == nullptr ? 0 : pattern_env->id,
             outer == nullptr ? 0 : outer->id};
  auto it = env_intern_.find(key);
  if (it != env_intern_.end()) return it->second;
  env_arena_.push_back(
      PointEnv{&label, pattern, pattern_env, outer, next_env_id_++});
  const PointEnv* env = &env_arena_.back();
  env_intern_.emplace(key, env);
  return env;
}

const TreeMatcher::PointEnv* TreeMatcher::Lookup(const PointEnv* env,
                                                 const std::string& label) {
  for (const PointEnv* e = env; e != nullptr; e = e->next) {
    if (*e->label == label) return e;
  }
  return nullptr;
}

bool TreeMatcher::CheckDepth() {
  if (depth_ > kMaxDepth) {
    if (error_.ok()) {
      error_ = Status::InvalidArgument(
          "tree pattern match exceeded the backtracking depth limit "
          "(degenerate closure nesting?)");
    }
    return false;
  }
  return true;
}

void TreeMatcher::RecordLeafCuts(NodeId v, Cont cont) {
  const auto& kids = tree_.children(v);
  for (NodeId c : kids) cut_stack_.push_back(TreeCut{c, false});
  cont();
  cut_stack_.resize(cut_stack_.size() - kids.size());
}

void TreeMatcher::MatchAt(const TreePattern* tp, const PointEnv* env, NodeId v,
                          bool leaf_strict, Cont cont) {
  if (!error_.ok() || (in_bool_mode_ && bool_mode_found_)) return;
  if (in_bool_mode_ && opts_.memoize) {
    // Boolean question: collapse to the memoized subtree-match oracle.
    if (ExistsAt(tp, env, v, leaf_strict)) cont();
    return;
  }
  MatchAtImpl(tp, env, v, leaf_strict, cont);
}

void TreeMatcher::MatchAtImpl(const TreePattern* tp, const PointEnv* env,
                              NodeId v, bool leaf_strict, Cont cont) {
  if (!error_.ok() || (in_bool_mode_ && bool_mode_found_)) return;
  ++steps_;
  LifecycleCheck();
  if (!error_.ok()) return;
  ++depth_;
  if (!CheckDepth()) {
    --depth_;
    return;
  }
  const NodePayload& payload = tree_.payload(v);
  switch (tp->kind()) {
    case TreePattern::Kind::kLeaf: {
      if (!payload.is_cell()) break;
      if (tp->pred() != nullptr && !tp->pred()->Eval(store_, payload.oid())) {
        break;
      }
      if (leaf_strict && !tree_.is_leaf(v)) break;
      matched_stack_.push_back(v);
      RecordLeafCuts(v, cont);
      matched_stack_.pop_back();
      break;
    }
    case TreePattern::Kind::kNode: {
      if (!payload.is_cell()) break;
      if (tp->pred() != nullptr && !tp->pred()->Eval(store_, payload.oid())) {
        break;
      }
      matched_stack_.push_back(v);
      MatchChildren(tp->children().get(), env, v, 0, leaf_strict,
                    [this, v, &cont](size_t end) {
                      if (end == tree_.arity(v)) cont();
                    });
      matched_stack_.pop_back();
      break;
    }
    case TreePattern::Kind::kPoint: {
      const PointEnv* binding = Lookup(env, tp->label());
      if (binding != nullptr) {
        MatchAt(binding->pattern, binding->pattern_env, v, leaf_strict, cont);
        break;
      }
      if (payload.is_concat_point() && payload.label() == tp->label()) {
        matched_stack_.push_back(v);
        cont();
        matched_stack_.pop_back();
      }
      break;
    }
    case TreePattern::Kind::kAlt: {
      for (const auto& alt : tp->alts()) {
        MatchAt(alt.get(), env, v, leaf_strict, cont);
      }
      break;
    }
    case TreePattern::Kind::kConcatAt: {
      // Lazy substitution: when the first operand has no such point the
      // binding is simply never used (result is the first operand, §3.3).
      const PointEnv* inner_env =
          Bind(tp->label(), tp->second().get(), env, env);
      MatchAt(tp->first().get(), inner_env, v, leaf_strict, cont);
      break;
    }
    case TreePattern::Kind::kStarAt: {
      // Exit: the closure behaves as its point, resolved in the outer env.
      const PointEnv* binding = Lookup(env, tp->label());
      if (binding != nullptr) {
        MatchAt(binding->pattern, binding->pattern_env, v, leaf_strict, cont);
      } else if (payload.is_concat_point() &&
                 payload.label() == tp->label()) {
        matched_stack_.push_back(v);
        cont();
        matched_stack_.pop_back();
      }
      // Iterate: one more copy of the body; its points continue the closure.
      const PointEnv* iter_env = Bind(tp->label(), tp, env, env);
      MatchAt(tp->inner().get(), iter_env, v, leaf_strict, cont);
      break;
    }
    case TreePattern::Kind::kPlusAt: {
      const PointEnv* iter_env =
          Bind(tp->label(), tp->star_form().get(), env, env);
      MatchAt(tp->inner().get(), iter_env, v, leaf_strict, cont);
      break;
    }
    case TreePattern::Kind::kRootAnchor: {
      if (v == tree_.root()) {
        MatchAt(tp->inner().get(), env, v, leaf_strict, cont);
      }
      break;
    }
    case TreePattern::Kind::kLeafAnchor: {
      MatchAt(tp->inner().get(), env, v, /*leaf_strict=*/true, cont);
      break;
    }
    case TreePattern::Kind::kPrune: {
      if (ExistsAt(tp->inner().get(), env, v, leaf_strict)) {
        cut_stack_.push_back(TreeCut{v, true});
        cont();
        cut_stack_.pop_back();
      }
      break;
    }
  }
  --depth_;
}

void TreeMatcher::MatchAtomPattern(const TreePattern* tp, const PointEnv* env,
                                   NodeId parent, size_t pos, bool pruned,
                                   bool leaf_strict, PosCont cont) {
  if (!error_.ok() || (in_bool_mode_ && bool_mode_found_)) return;
  ++steps_;
  LifecycleCheck();
  if (!error_.ok()) return;
  ++depth_;
  if (!CheckDepth()) {
    --depth_;
    return;
  }
  const auto& kids = tree_.children(parent);
  NodeId child = pos < kids.size() ? kids[pos] : kInvalidNode;
  switch (tp->kind()) {
    case TreePattern::Kind::kPoint: {
      const PointEnv* binding = Lookup(env, tp->label());
      if (binding != nullptr) {
        MatchAtomPattern(binding->pattern, binding->pattern_env, parent, pos,
                         pruned, leaf_strict, cont);
        break;
      }
      // Free point: close with NULL (consume nothing) ...
      cont(pos);
      // ... or consume one same-labeled instance point.
      if (child != kInvalidNode && tree_.payload(child).is_concat_point() &&
          tree_.payload(child).label() == tp->label()) {
        if (pruned) {
          cont(pos + 1);  // pruning a NULL leaves no trace
        } else {
          matched_stack_.push_back(child);
          cont(pos + 1);
          matched_stack_.pop_back();
        }
      }
      break;
    }
    case TreePattern::Kind::kStarAt: {
      const PointEnv* binding = Lookup(env, tp->label());
      if (binding != nullptr) {
        MatchAtomPattern(binding->pattern, binding->pattern_env, parent, pos,
                         pruned, leaf_strict, cont);
      } else {
        cont(pos);
        if (child != kInvalidNode &&
            tree_.payload(child).is_concat_point() &&
            tree_.payload(child).label() == tp->label()) {
          if (pruned) {
            cont(pos + 1);
          } else {
            matched_stack_.push_back(child);
            cont(pos + 1);
            matched_stack_.pop_back();
          }
        }
      }
      const PointEnv* iter_env = Bind(tp->label(), tp, env, env);
      MatchAtomPattern(tp->inner().get(), iter_env, parent, pos, pruned,
                       leaf_strict, cont);
      break;
    }
    case TreePattern::Kind::kPlusAt: {
      const PointEnv* iter_env =
          Bind(tp->label(), tp->star_form().get(), env, env);
      MatchAtomPattern(tp->inner().get(), iter_env, parent, pos, pruned,
                       leaf_strict, cont);
      break;
    }
    case TreePattern::Kind::kConcatAt: {
      const PointEnv* inner_env =
          Bind(tp->label(), tp->second().get(), env, env);
      MatchAtomPattern(tp->first().get(), inner_env, parent, pos, pruned,
                       leaf_strict, cont);
      break;
    }
    case TreePattern::Kind::kAlt: {
      for (const auto& alt : tp->alts()) {
        MatchAtomPattern(alt.get(), env, parent, pos, pruned, leaf_strict,
                         cont);
      }
      break;
    }
    case TreePattern::Kind::kLeafAnchor: {
      MatchAtomPattern(tp->inner().get(), env, parent, pos, pruned,
                       /*leaf_strict=*/true, cont);
      break;
    }
    case TreePattern::Kind::kRootAnchor:
      break;  // a child position is never the tree root
    case TreePattern::Kind::kPrune: {
      if (child == kInvalidNode) break;
      if (ExistsAt(tp->inner().get(), env, child, leaf_strict)) {
        cut_stack_.push_back(TreeCut{child, true});
        cont(pos + 1);
        cut_stack_.pop_back();
      }
      break;
    }
    case TreePattern::Kind::kLeaf:
    case TreePattern::Kind::kNode: {
      if (child == kInvalidNode) break;
      if (pruned) {
        // Inside a `!` scope the whole subtree rooted at the matching node
        // is cut; only a boolean check of the pattern is needed.
        if (ExistsAt(tp, env, child, leaf_strict)) {
          cut_stack_.push_back(TreeCut{child, true});
          cont(pos + 1);
          cut_stack_.pop_back();
        }
      } else {
        MatchAt(tp, env, child, leaf_strict,
                [pos, &cont]() { cont(pos + 1); });
      }
      break;
    }
  }
  --depth_;
}

void TreeMatcher::MatchChildren(const ListPattern* lp, const PointEnv* env,
                                NodeId parent, size_t pos, bool leaf_strict,
                                PosCont cont) {
  auto atom = [this, env, parent, leaf_strict](
                  const ListPattern& p, size_t apos, bool pruned,
                  RegexCont rcont) {
    if (!error_.ok() || (in_bool_mode_ && bool_mode_found_)) return;
    ++steps_;
    LifecycleCheck();
    if (!error_.ok()) return;
    const auto& kids = tree_.children(parent);
    NodeId child = apos < kids.size() ? kids[apos] : kInvalidNode;
    switch (p.kind()) {
      case ListPattern::Kind::kPred:
      case ListPattern::Kind::kAny: {
        if (child == kInvalidNode) return;
        const NodePayload& payload = tree_.payload(child);
        if (!payload.is_cell()) return;
        if (p.kind() == ListPattern::Kind::kPred &&
            !p.pred()->Eval(store_, payload.oid())) {
          return;
        }
        if (pruned) {
          cut_stack_.push_back(TreeCut{child, true});
          rcont(apos + 1);
          cut_stack_.pop_back();
        } else {
          if (leaf_strict && !tree_.is_leaf(child)) return;
          matched_stack_.push_back(child);
          RecordLeafCuts(child, [apos, &rcont]() { rcont(apos + 1); });
          matched_stack_.pop_back();
        }
        return;
      }
      case ListPattern::Kind::kPoint: {
        const PointEnv* binding = Lookup(env, p.label());
        if (binding != nullptr) {
          MatchAtomPattern(binding->pattern, binding->pattern_env, parent,
                           apos, pruned, leaf_strict, rcont);
          return;
        }
        rcont(apos);
        if (child != kInvalidNode &&
            tree_.payload(child).is_concat_point() &&
            tree_.payload(child).label() == p.label()) {
          if (pruned) {
            rcont(apos + 1);
          } else {
            matched_stack_.push_back(child);
            rcont(apos + 1);
            matched_stack_.pop_back();
          }
        }
        return;
      }
      case ListPattern::Kind::kTreeAtom: {
        MatchAtomPattern(p.tree_atom().get(), env, parent, apos, pruned,
                         leaf_strict, rcont);
        return;
      }
      default:
        return;
    }
  };
  // A children sequence nests one engine level per child it consumes, so a
  // wide node needs the depth guard as much as a deep tree does; its levels
  // count in `depth_`, on top of the nodes and sequences that enclose it.
  RegexEngine<decltype(atom)> engine(atom, kMaxDepth, depth_);
  engine.Run(lp, pos, /*pruned=*/false, cont);
  if (engine.too_deep() && error_.ok()) {
    error_ = Status::InvalidArgument(
        "tree pattern match exceeded the backtracking depth limit "
        "(children sequence nested too deep)");
  }
}

bool TreeMatcher::ExistsAt(const TreePattern* tp, const PointEnv* env,
                           NodeId v, bool leaf_strict) {
  if (!error_.ok()) return false;
  MemoKey key{tp, env == nullptr ? 0 : env->id, v, leaf_strict};
  if (opts_.memoize) {
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++memo_hits_;
      if (it->second == 2) {
        // This very question is already being computed higher in the stack
        // (a derivation cycle through closures/points). A true match always
        // has a finite, acyclic derivation, so answering "no" here only
        // prunes self-referential proofs; the taint flag keeps the open
        // ancestors from caching a possibly-spurious negative.
        touched_in_progress_ = true;
        return false;
      }
      return it->second == 1;
    }
    memo_.emplace(key, int8_t{2});
  }
  bool saved_mode = in_bool_mode_;
  bool saved_found = bool_mode_found_;
  bool saved_touched = touched_in_progress_;
  in_bool_mode_ = true;
  bool_mode_found_ = false;
  touched_in_progress_ = false;
  MatchAtImpl(tp, env, v, leaf_strict, [this]() { bool_mode_found_ = true; });
  bool result = bool_mode_found_;
  bool tainted = touched_in_progress_;
  in_bool_mode_ = saved_mode;
  bool_mode_found_ = saved_found;
  touched_in_progress_ = saved_touched || tainted;
  if (opts_.memoize) {
    if (error_.ok() && (result || !tainted)) {
      // Positive results are safe to cache even when tainted (a found
      // derivation is a proof); negatives are cached only when no open
      // question was consulted.
      memo_[key] = result ? int8_t{1} : int8_t{0};
    } else {
      memo_.erase(key);
    }
  }
  return result;
}

Result<std::vector<TreeMatch>> TreeMatcher::FindAll(const TreePatternRef& tp) {
  if (tree_.empty()) return std::vector<TreeMatch>{};
  return FindAllAtRoots(tp, tree_.Preorder());
}

Result<std::vector<TreeMatch>> TreeMatcher::FindAllAtRoots(
    const TreePatternRef& tp, const std::vector<NodeId>& roots) {
  if (tp == nullptr) return Status::InvalidArgument("null tree pattern");
  if (tree_.empty()) return std::vector<TreeMatch>{};
  env_arena_.clear();
  env_intern_.clear();
  next_env_id_ = 1;
  memo_.clear();
  matched_stack_.clear();
  cut_stack_.clear();
  steps_ = 0;
  memo_hits_ = 0;
  depth_ = 0;
  error_ = Status::OK();
  in_bool_mode_ = false;
  bool_mode_found_ = false;
  query_ = obs::QueryContext::Current();
  mem_charged_ = 0;
  TreeMatchFlush flush(&steps_, &memo_hits_);
  ScratchRelease scratch{&query_, &mem_charged_};

  // Roots come in document order, so ordering and deduplicating each
  // root's own run of derivations orders the whole result.
  auto less = [](const TreeMatch& a, const TreeMatch& b) {
    if (a.matched != b.matched) return a.matched < b.matched;
    return std::lexicographical_compare(
        a.cuts.begin(), a.cuts.end(), b.cuts.begin(), b.cuts.end(),
        [](const TreeCut& x, const TreeCut& y) {
          return std::tie(x.node, x.from_prune) < std::tie(y.node, y.from_prune);
        });
  };
  std::vector<TreeMatch> out;
  size_t derivations = 0;  // before deduplication; bounds the soft stop
  bool stop = false;
  for (NodeId v : roots) {
    if (v >= tree_.size()) return Status::OutOfRange("root node out of range");
    if (stop) break;
    bool found_here = false;
    size_t run = out.size();
    MatchAt(tp.get(), nullptr, v, /*leaf_strict=*/false,
            [this, v, &out, &derivations, &stop, &found_here]() {
              if (stop) return;
              if (opts_.first_derivation_per_root && found_here) return;
              found_here = true;
              TreeMatch m;
              m.root = v;
              m.matched = matched_stack_;
              m.cuts = cut_stack_;
              out.push_back(std::move(m));
              if (opts_.max_matches > 0 &&
                  ++derivations >= 8 * opts_.max_matches + 64) {
                stop = true;
              }
            });
    if (!error_.ok()) return error_;
    std::sort(out.begin() + run, out.end(), less);
    out.erase(std::unique(out.begin() + run, out.end()), out.end());
  }
  if (opts_.max_matches > 0 && out.size() > opts_.max_matches) {
    out.resize(opts_.max_matches);
  }
  return out;
}

Result<bool> TreeMatcher::MatchesAt(const TreePatternRef& tp, NodeId v) {
  if (tp == nullptr) return Status::InvalidArgument("null tree pattern");
  if (tree_.empty() || v >= tree_.size()) {
    return Status::OutOfRange("node out of range");
  }
  env_arena_.clear();
  env_intern_.clear();
  next_env_id_ = 1;
  memo_.clear();
  steps_ = 0;
  memo_hits_ = 0;
  depth_ = 0;
  error_ = Status::OK();
  query_ = obs::QueryContext::Current();
  mem_charged_ = 0;
  TreeMatchFlush flush(&steps_, &memo_hits_);
  ScratchRelease scratch{&query_, &mem_charged_};
  bool result = ExistsAt(tp.get(), nullptr, v, /*leaf_strict=*/false);
  if (!error_.ok()) return error_;
  return result;
}

Result<bool> TreeMatcher::MatchesAnywhere(const TreePatternRef& tp) {
  if (tp == nullptr) return Status::InvalidArgument("null tree pattern");
  if (tree_.empty()) return false;
  env_arena_.clear();
  env_intern_.clear();
  next_env_id_ = 1;
  memo_.clear();
  steps_ = 0;
  memo_hits_ = 0;
  depth_ = 0;
  error_ = Status::OK();
  query_ = obs::QueryContext::Current();
  mem_charged_ = 0;
  TreeMatchFlush flush(&steps_, &memo_hits_);
  ScratchRelease scratch{&query_, &mem_charged_};
  for (NodeId v : tree_.Preorder()) {
    if (ExistsAt(tp.get(), nullptr, v, /*leaf_strict=*/false)) return true;
    if (!error_.ok()) return error_;
  }
  return false;
}

}  // namespace aqua
