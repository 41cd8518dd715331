#include "lint/automaton.h"

#include <cstdint>
#include <vector>

#include "lint/interval.h"
#include "pattern/multi.h"

namespace aqua::lint {

namespace {

using Transition = MultiNfa::Transition;

/// Whether an edge can ever be taken by any element.
bool EdgeLive(const Transition& t, const std::vector<bool>& pred_sat) {
  if (t.kind == Transition::Kind::kPred) return pred_sat[t.index];
  return true;  // ε, `?`, and point edges are always takeable.
}

/// BFS over live edges from `from`, following `states[s][i].target` (or the
/// reversed adjacency when provided).
std::vector<bool> Reach(
    size_t num_states, uint32_t from,
    const std::vector<std::vector<std::pair<uint32_t, bool>>>& adj) {
  std::vector<bool> seen(num_states, false);
  std::vector<uint32_t> stack = {from};
  seen[from] = true;
  while (!stack.empty()) {
    uint32_t s = stack.back();
    stack.pop_back();
    for (const auto& [target, live] : adj[s]) {
      if (!live || seen[target]) continue;
      seen[target] = true;
      stack.push_back(target);
    }
  }
  return seen;
}

/// DFS 3-coloring over ε-edges restricted to `live` states; true when a
/// back edge closes an ε-cycle.
bool HasEpsCycle(const MultiNfa& nfa, const std::vector<bool>& live) {
  enum : uint8_t { kWhite, kGray, kBlack };
  std::vector<uint8_t> color(nfa.num_states(), kWhite);
  // Iterative DFS: (state, next edge index) frames.
  for (uint32_t root = 0; root < nfa.num_states(); ++root) {
    if (!live[root] || color[root] != kWhite) continue;
    std::vector<std::pair<uint32_t, size_t>> stack = {{root, 0}};
    color[root] = kGray;
    while (!stack.empty()) {
      auto& [s, i] = stack.back();
      const auto& edges = nfa.states()[s];
      if (i >= edges.size()) {
        color[s] = kBlack;
        stack.pop_back();
        continue;
      }
      const Transition& t = edges[i++];
      if (t.kind != Transition::Kind::kEpsilon || !live[t.target]) continue;
      if (color[t.target] == kGray) return true;
      if (color[t.target] == kWhite) {
        color[t.target] = kGray;
        stack.emplace_back(t.target, 0);
      }
    }
  }
  return false;
}

}  // namespace

AutomatonFacts AnalyzeListPatternAutomaton(const ListPatternRef& body) {
  AutomatonFacts facts;
  if (body == nullptr) return facts;
  // The one-pattern whole-match automaton, read for its structure only:
  // its alphabet is never sealed here.
  Result<MultiNfa> compiled = MultiNfa::Compile({body});
  if (!compiled.ok()) return facts;
  const MultiNfa& nfa = *compiled;
  facts.compiled = true;

  const std::vector<PredicateRef>& preds = nfa.alphabet().preds();
  std::vector<bool> pred_sat(preds.size(), true);
  for (size_t i = 0; i < preds.size(); ++i) {
    pred_sat[i] = AnalyzePredicateSat(preds[i]) != PredSat::kUnsatisfiable;
  }

  // Forward and reverse adjacency with per-edge liveness.
  std::vector<std::vector<std::pair<uint32_t, bool>>> fwd(nfa.num_states());
  std::vector<std::vector<std::pair<uint32_t, bool>>> rev(nfa.num_states());
  for (uint32_t s = 0; s < nfa.num_states(); ++s) {
    for (const Transition& t : nfa.states()[s]) {
      bool live = EdgeLive(t, pred_sat);
      fwd[s].emplace_back(t.target, live);
      rev[t.target].emplace_back(s, live);
    }
  }

  // One pattern, so exactly one state carries an accept bit.
  uint32_t accept = 0;
  while (nfa.accept_masks()[accept] == 0) ++accept;
  std::vector<bool> from_start = Reach(nfa.num_states(), nfa.start(), fwd);
  std::vector<bool> to_accept = Reach(nfa.num_states(), accept, rev);
  facts.language_empty = !from_start[accept];

  std::vector<uint64_t> eps(nfa.set_words());
  nfa.StartSet(eps.data());
  facts.accepts_empty = nfa.AcceptMask(eps.data()) != 0;

  std::vector<bool> live(nfa.num_states(), false);
  for (uint32_t s = 0; s < nfa.num_states(); ++s) {
    live[s] = from_start[s] && to_accept[s];
  }
  facts.has_live_eps_cycle = HasEpsCycle(nfa, live);
  return facts;
}

}  // namespace aqua::lint
