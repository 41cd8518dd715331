#include "pattern/list_matcher.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/query_context.h"
#include "pattern/regex_engine.h"

namespace aqua {

const size_t ListMatcher::kMaxDepth = kLargeStackFrames ? 4096 : 20000;

namespace {

/// Flushes one matcher call's backtracking work to the registry on every
/// exit path (including step-budget errors).
struct ListMatchFlush {
  const size_t* steps;
  bool count_call;
  ListMatchFlush(const size_t* s, bool call) : steps(s), count_call(call) {}
  ~ListMatchFlush() {
    if (count_call) AQUA_OBS_COUNT("pattern.list_match_calls", 1);
    if (*steps > 0) AQUA_OBS_COUNT("pattern.list_steps", *steps);
  }
};

}  // namespace

std::vector<std::pair<size_t, size_t>> ListMatch::PruneRanges() const {
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t p : pruned) {
    if (!out.empty() && out.back().second == p) {
      ++out.back().second;
    } else {
      out.push_back({p, p + 1});
    }
  }
  return out;
}

Status ListMatcher::ValidateListPattern(const ListPattern& p) {
  if (p.kind() == ListPattern::Kind::kTreeAtom) {
    return Status::InvalidArgument(
        "tree-pattern atoms are not allowed in a list pattern");
  }
  for (const auto& part : p.parts()) {
    AQUA_RETURN_IF_ERROR(ValidateListPattern(*part));
  }
  return Status::OK();
}

Result<std::vector<ListMatch>> ListMatcher::FindAll(
    const AnchoredListPattern& pattern, const ListMatchOptions& opts) {
  return FindAllInRange(pattern, 0, list_.size() + 1, opts);
}

Result<std::vector<ListMatch>> ListMatcher::FindAllInRange(
    const AnchoredListPattern& pattern, size_t first, size_t last,
    const ListMatchOptions& opts) {
  last = std::min(last, list_.size() + 1);
  if (pattern.anchor_begin) last = std::min<size_t>(last, 1);
  first = std::min(first, last);
  return Enumerate(pattern, nullptr, first, last, opts,
                   /*count_call=*/first == 0);
}

Result<std::vector<ListMatch>> ListMatcher::FindAllAtBegins(
    const AnchoredListPattern& pattern, const std::vector<size_t>& begins,
    const ListMatchOptions& opts) {
  return Enumerate(pattern, begins.data(), 0, begins.size(), opts,
                   /*count_call=*/true);
}

Result<std::vector<ListMatch>> ListMatcher::Enumerate(
    const AnchoredListPattern& pattern, const size_t* begins, size_t lo,
    size_t hi, const ListMatchOptions& opts, bool count_call) {
  if (pattern.body == nullptr) {
    return Status::InvalidArgument("null list pattern");
  }
  AQUA_RETURN_IF_ERROR(ValidateListPattern(*pattern.body));
  steps_ = 0;
  ListMatchFlush flush(&steps_, count_call);

  std::vector<ListMatch> out;
  std::vector<size_t> prune_stack;
  bool hit_limit = false;
  bool over_budget = false;
  obs::QueryContext* query = obs::QueryContext::Current();
  Status cancel = Status::OK();

  auto atom = [&](const ListPattern& p, size_t pos, bool pruned,
                  RegexCont cont) {
    if (hit_limit || over_budget || !cancel.ok()) return;
    ++steps_;
    if (query != nullptr &&
        (steps_ & (obs::QueryContext::kCheckStride - 1)) == 0) {
      query->AddNodes(obs::QueryContext::kCheckStride);
      cancel = query->CheckPoint();
      if (!cancel.ok()) return;
    }
    if (opts.max_steps > 0 && steps_ > opts.max_steps) {
      over_budget = true;
      return;
    }
    switch (p.kind()) {
      case ListPattern::Kind::kPred: {
        if (pos >= list_.size()) return;
        const NodePayload& e = list_.at(pos);
        if (!e.is_cell() || !p.pred()->Eval(store_, e.oid())) return;
        break;
      }
      case ListPattern::Kind::kAny: {
        if (pos >= list_.size() || !list_.at(pos).is_cell()) return;
        break;
      }
      case ListPattern::Kind::kPoint: {
        // Alternative 1: close with NULL (consume nothing).
        cont(pos);
        // Alternative 2: consume one same-labeled instance point.
        if (pos >= list_.size()) return;
        const NodePayload& e = list_.at(pos);
        if (!e.is_concat_point() || e.label() != p.label()) return;
        break;
      }
      default:
        return;  // kTreeAtom was rejected by validation.
    }
    if (pruned) {
      prune_stack.push_back(pos);
      cont(pos + 1);
      prune_stack.pop_back();
    } else {
      cont(pos + 1);
    }
  };

  size_t depth = 0;
  RegexEngine<decltype(atom)> engine(atom, kMaxDepth, depth);

  for (size_t k = lo; k < hi; ++k) {
    const size_t begin = begins != nullptr ? begins[k] : k;
    if (hit_limit || over_budget || engine.too_deep() || !cancel.ok()) break;
    if (begin > list_.size()) {
      return Status::OutOfRange("begin position beyond list end");
    }
    if (pattern.anchor_begin && begin != 0) continue;
    engine.Run(pattern.body.get(), begin, /*pruned=*/false,
               [&](size_t end) {
                 if (hit_limit) return;
                 if (pattern.anchor_end && end != list_.size()) return;
                 ListMatch m;
                 m.begin = begin;
                 m.end = end;
                 m.pruned = prune_stack;
                 std::sort(m.pruned.begin(), m.pruned.end());
                 out.push_back(std::move(m));
                 if (opts.max_matches > 0 &&
                     out.size() >= 4 * opts.max_matches + 64) {
                   // Soft stop; exact trimming happens after dedup below.
                   hit_limit = true;
                 }
               });
  }

  if (!cancel.ok()) return cancel;
  if (engine.too_deep()) {
    return Status::InvalidArgument(
        "list pattern match exceeded the backtracking depth limit of " +
        std::to_string(kMaxDepth) + " nested steps");
  }
  if (over_budget) {
    return Status::InvalidArgument(
        "list match exceeded the step budget of " +
        std::to_string(opts.max_steps) + " atom probes");
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (opts.distinct_extents_only) {
    std::vector<ListMatch> dedup;
    for (auto& m : out) {
      if (!dedup.empty() && dedup.back().begin == m.begin &&
          dedup.back().end == m.end) {
        continue;
      }
      dedup.push_back(std::move(m));
    }
    out = std::move(dedup);
  }
  if (opts.max_matches > 0 && out.size() > opts.max_matches) {
    out.resize(opts.max_matches);
  }
  return out;
}

Result<bool> ListMatcher::MatchesWhole(const ListPatternRef& body) {
  AnchoredListPattern anchored{body, /*anchor_begin=*/true,
                               /*anchor_end=*/true};
  ListMatchOptions opts;
  opts.max_matches = 1;
  AQUA_ASSIGN_OR_RETURN(std::vector<ListMatch> matches,
                        FindAll(anchored, opts));
  return !matches.empty();
}

}  // namespace aqua
