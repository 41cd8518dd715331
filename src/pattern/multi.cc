#include "pattern/multi.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/metrics.h"

namespace aqua {

namespace {

/// Unwraps prune markers: `!lp` matches like `lp` (§3.4 separates result
/// shaping from matching), so the merged automaton sees through them.
const ListPattern* UnwrapPrune(const ListPattern* p) {
  while (p->kind() == ListPattern::Kind::kPrune) p = p->inner().get();
  return p;
}

/// Flattens top-level concatenation (through prune markers) into a part
/// sequence, so trie merging sees each leading atom individually.
void FlattenConcat(const ListPattern* p, std::vector<const ListPattern*>* out) {
  p = UnwrapPrune(p);
  if (p->kind() == ListPattern::Kind::kConcat) {
    for (const auto& part : p->parts()) FlattenConcat(part.get(), out);
    return;
  }
  out->push_back(p);
}

bool TestBit(const uint64_t* set, uint32_t i) {
  return (set[i >> 6] >> (i & 63)) & 1;
}

void SetBit(uint64_t* set, uint32_t i) { set[i >> 6] |= 1ULL << (i & 63); }

template <typename F>
void ForEachState(const uint64_t* set, size_t words, F f) {
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t bits = set[w]; bits != 0; bits &= bits - 1) {
      f(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
}

/// A 64-bit finalizer (splitmix64) for the DFA's hash keys.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash of `n` packed words (a DFA state set or a cell letter).
size_t HashWords(const uint64_t* words, size_t n) {
  uint64_t h = n;
  for (size_t i = 0; i < n; ++i) h = Mix(h ^ words[i]);
  return static_cast<size_t>(h);
}

/// Feeds `list` to `step` one element at a time, evaluating the alphabet a
/// chunk at a time. `step(e, sig)` advances the automaton over element `e`
/// (`sig` is its alphabet signature when `e` is a cell) and returns the
/// accept mask after it. Search mode OR-accumulates the masks and stops
/// once every pattern has matched; whole mode answers with the mask after
/// the last element. `rows` receives the elements evaluated.
template <typename Step>
uint64_t Scan(const MultiNfa& nfa, const StoreView& store, const List& list,
              uint64_t start_mask, AlphabetScratch* scratch, size_t* rows,
              Step step) {
  const bool search = nfa.search_mode();
  const uint64_t full = nfa.full_mask();
  const PredicateAlphabet& alphabet = nfa.alphabet();
  const size_t stride = alphabet.sig_stride();
  uint64_t matched = start_mask;
  uint64_t last = start_mask;
  size_t scanned = 0;
  // Chunks start small, so a match near the front costs few evaluations,
  // and double up to 256 elements for long scans.
  size_t chunk = 16;
  for (size_t base = 0; base < list.size() && !(search && matched == full);
       base += chunk, chunk = std::min<size_t>(chunk * 2, 256)) {
    const size_t end = std::min(base + chunk, list.size());
    scratch->oids.clear();
    for (size_t i = base; i < end; ++i) {
      const NodePayload& e = list.at(i);
      if (e.is_cell()) scratch->oids.push_back(e.oid());
    }
    alphabet.EvalBatch(store, scratch->oids.data(), scratch->oids.size(),
                       scratch);
    scanned += end - base;
    const uint64_t* sig = scratch->sigs.data();
    for (size_t i = base; i < end; ++i) {
      const NodePayload& e = list.at(i);
      last = step(e, sig);
      if (e.is_cell()) sig += stride;
      matched |= last;
      if (search && matched == full) break;
    }
  }
  if (rows != nullptr) *rows = scanned;
  return search ? matched : last;
}

}  // namespace

uint32_t MultiNfa::NewState() {
  states_.emplace_back();
  accept_masks_.push_back(0);
  return static_cast<uint32_t>(states_.size() - 1);
}

void MultiNfa::AddEdge(uint32_t from, Transition t) {
  states_[from].push_back(t);
}

uint32_t MultiNfa::InternLabel(const std::string& label) {
  if (uint32_t i = LabelIndex(label); i != kNoLabel) return i;
  point_labels_.push_back(label);
  return static_cast<uint32_t>(point_labels_.size() - 1);
}

uint32_t MultiNfa::LabelIndex(const std::string& label) const {
  for (size_t i = 0; i < point_labels_.size(); ++i) {
    if (point_labels_[i] == label) return static_cast<uint32_t>(i);
  }
  return kNoLabel;
}

Result<MultiNfa::Frag> MultiNfa::Build(const ListPattern& p) {
  switch (p.kind()) {
    case ListPattern::Kind::kPred: {
      Frag f{NewState(), NewState()};
      AddEdge(f.start,
              {Transition::Kind::kPred, f.accept, alphabet_.Intern(p.pred())});
      return f;
    }
    case ListPattern::Kind::kAny: {
      Frag f{NewState(), NewState()};
      AddEdge(f.start, {Transition::Kind::kAnyCell, f.accept, 0});
      return f;
    }
    case ListPattern::Kind::kPoint: {
      Frag f{NewState(), NewState()};
      // A pattern point closes with NULL (epsilon) or consumes one
      // same-labeled instance point.
      AddEdge(f.start, {Transition::Kind::kEpsilon, f.accept, 0});
      AddEdge(f.start,
              {Transition::Kind::kPoint, f.accept, InternLabel(p.label())});
      return f;
    }
    case ListPattern::Kind::kConcat: {
      Frag f{NewState(), 0};
      uint32_t cur = f.start;
      for (const auto& part : p.parts()) {
        AQUA_ASSIGN_OR_RETURN(Frag sub, Build(*part));
        AddEdge(cur, {Transition::Kind::kEpsilon, sub.start, 0});
        cur = sub.accept;
      }
      f.accept = cur;
      return f;
    }
    case ListPattern::Kind::kAlt: {
      Frag f{NewState(), NewState()};
      for (const auto& part : p.parts()) {
        AQUA_ASSIGN_OR_RETURN(Frag sub, Build(*part));
        AddEdge(f.start, {Transition::Kind::kEpsilon, sub.start, 0});
        AddEdge(sub.accept, {Transition::Kind::kEpsilon, f.accept, 0});
      }
      return f;
    }
    case ListPattern::Kind::kStar: {
      AQUA_ASSIGN_OR_RETURN(Frag body, Build(*p.inner()));
      Frag f{NewState(), NewState()};
      AddEdge(f.start, {Transition::Kind::kEpsilon, f.accept, 0});
      AddEdge(f.start, {Transition::Kind::kEpsilon, body.start, 0});
      AddEdge(body.accept, {Transition::Kind::kEpsilon, body.start, 0});
      AddEdge(body.accept, {Transition::Kind::kEpsilon, f.accept, 0});
      return f;
    }
    case ListPattern::Kind::kPlus: {
      AQUA_ASSIGN_OR_RETURN(Frag body, Build(*p.inner()));
      Frag f{NewState(), NewState()};
      AddEdge(f.start, {Transition::Kind::kEpsilon, body.start, 0});
      AddEdge(body.accept, {Transition::Kind::kEpsilon, body.start, 0});
      AddEdge(body.accept, {Transition::Kind::kEpsilon, f.accept, 0});
      return f;
    }
    case ListPattern::Kind::kPrune:
      return Build(*p.inner());
    case ListPattern::Kind::kTreeAtom:
      return Status::InvalidArgument(
          "tree-pattern atoms are not allowed in a list pattern");
  }
  return Status::Internal("unreachable in MultiNfa::Build");
}

Status MultiNfa::AddPattern(const ListPatternRef& pattern, uint32_t index,
                            uint32_t trie_root) {
  if (pattern == nullptr) return Status::InvalidArgument("null list pattern");
  std::vector<const ListPattern*> parts;
  FlattenConcat(pattern.get(), &parts);

  // Walk the trie over the leading run of simple atoms, reusing states that
  // an earlier pattern with the same prefix already created. A trie node's
  // only consuming edges are trie edges, so the child for an atom is the
  // target of the node's consuming edge with the same kind and index.
  uint32_t cur = trie_root;
  size_t consumed = 0;
  for (; consumed < parts.size(); ++consumed) {
    const ListPattern* atom = UnwrapPrune(parts[consumed]);
    Transition edge{Transition::Kind::kAnyCell, 0, 0};
    if (atom->kind() == ListPattern::Kind::kPred) {
      edge = {Transition::Kind::kPred, 0, alphabet_.Intern(atom->pred())};
    } else if (atom->kind() == ListPattern::Kind::kPoint) {
      edge = {Transition::Kind::kPoint, 0, InternLabel(atom->label())};
    } else if (atom->kind() != ListPattern::Kind::kAny) {
      break;
    }
    auto shared = std::find_if(
        states_[cur].begin(), states_[cur].end(), [&](const Transition& t) {
          return t.kind == edge.kind && t.index == edge.index;
        });
    if (shared != states_[cur].end()) {
      cur = shared->target;
      ++trie_shared_states_;
      continue;
    }
    edge.target = NewState();
    // A pattern point closes with NULL (epsilon) or consumes one
    // same-labeled instance point.
    if (edge.kind == Transition::Kind::kPoint) {
      AddEdge(cur, {Transition::Kind::kEpsilon, edge.target, 0});
    }
    AddEdge(cur, edge);
    cur = edge.target;
  }

  // Thompson-compile the non-trivial remainder, if any.
  for (; consumed < parts.size(); ++consumed) {
    AQUA_ASSIGN_OR_RETURN(Frag sub, Build(*parts[consumed]));
    AddEdge(cur, {Transition::Kind::kEpsilon, sub.start, 0});
    cur = sub.accept;
  }
  accept_masks_[cur] |= 1ULL << index;
  return Status::OK();
}

Result<MultiNfa> MultiNfa::CompileMerged(
    const std::vector<ListPatternRef>& patterns, bool search) {
  if (patterns.empty()) {
    return Status::InvalidArgument("empty pattern batch");
  }
  if (patterns.size() > 64) {
    return Status::InvalidArgument(
        "at most 64 patterns per merged automaton");
  }
  MultiNfa nfa;
  nfa.search_mode_ = search;
  uint32_t root = nfa.NewState();
  nfa.start_ = root;
  if (search) {
    // One shared search loop feeding the trie root: matches may begin at
    // any position (after cells and instance points alike), discovered in
    // a single left-to-right pass.
    uint32_t loop = nfa.NewState();
    nfa.AddEdge(loop, {Transition::Kind::kAnyElement, loop, 0});
    nfa.AddEdge(loop, {Transition::Kind::kEpsilon, root, 0});
    nfa.start_ = loop;
  }
  for (size_t j = 0; j < patterns.size(); ++j) {
    AQUA_RETURN_IF_ERROR(
        nfa.AddPattern(patterns[j], static_cast<uint32_t>(j), root));
  }
  nfa.num_patterns_ = patterns.size();
  nfa.full_mask_ = patterns.size() == 64
                       ? ~0ULL
                       : (1ULL << patterns.size()) - 1;
  // A search automaton always matches; a whole-match one may only be read.
  if (search) nfa.Seal();
  return nfa;
}

Result<MultiNfa> MultiNfa::Compile(
    const std::vector<ListPatternRef>& patterns) {
  return CompileMerged(patterns, /*search=*/false);
}

Result<MultiNfa> MultiNfa::CompileSearch(
    const std::vector<ListPatternRef>& patterns) {
  return CompileMerged(patterns, /*search=*/true);
}

void MultiNfa::EpsClosure(uint64_t* set) const {
  // Sweep in state order; an edge to a lower-numbered state (a closure's
  // back edge, an alternation's join) forces one more sweep.
  for (bool again = true; again;) {
    again = false;
    for (uint32_t s = 0; s < states_.size(); ++s) {
      if (!TestBit(set, s)) continue;
      for (const Transition& t : states_[s]) {
        if (t.kind != Transition::Kind::kEpsilon || TestBit(set, t.target)) {
          continue;
        }
        SetBit(set, t.target);
        again |= t.target < s;
      }
    }
  }
}

void MultiNfa::StartSet(uint64_t* set) const {
  std::fill(set, set + set_words(), 0);
  SetBit(set, start_);
  EpsClosure(set);
}

uint64_t MultiNfa::AcceptMask(const uint64_t* set) const {
  uint64_t mask = 0;
  ForEachState(set, set_words(),
               [&](uint32_t s) { mask |= accept_masks_[s]; });
  return mask;
}

void MultiNfa::StepCell(const uint64_t* from, const uint64_t* sig,
                        uint64_t* next) const {
  std::fill(next, next + set_words(), 0);
  ForEachState(from, set_words(), [&](uint32_t s) {
    for (const Transition& t : states_[s]) {
      switch (t.kind) {
        case Transition::Kind::kEpsilon:
        case Transition::Kind::kPoint:
          break;
        case Transition::Kind::kPred:
          if (TestBit(sig, t.index)) SetBit(next, t.target);
          break;
        case Transition::Kind::kAnyCell:
        case Transition::Kind::kAnyElement:
          SetBit(next, t.target);
          break;
      }
    }
  });
  EpsClosure(next);
}

void MultiNfa::StepPoint(const uint64_t* from, uint32_t label_index,
                         uint64_t* next) const {
  std::fill(next, next + set_words(), 0);
  ForEachState(from, set_words(), [&](uint32_t s) {
    for (const Transition& t : states_[s]) {
      if (t.kind == Transition::Kind::kAnyElement ||
          (t.kind == Transition::Kind::kPoint && t.index == label_index)) {
        SetBit(next, t.target);
      }
    }
  });
  EpsClosure(next);
}

uint64_t MultiNfa::MatchAll(const StoreView& store, const List& list,
                            size_t* rows) const {
  assert(alphabet_.sealed());
  AlphabetScratch scratch;
  std::vector<uint64_t> cur(set_words()), next(set_words());
  StartSet(cur.data());
  size_t steps = 0;
  const uint64_t matched = Scan(
      *this, store, list, AcceptMask(cur.data()), &scratch, rows,
      [&](const NodePayload& e, const uint64_t* sig) {
        if (e.is_cell()) {
          StepCell(cur.data(), sig, next.data());
        } else {
          StepPoint(cur.data(), LabelIndex(e.label()), next.data());
        }
        cur.swap(next);
        ++steps;
        return AcceptMask(cur.data());
      });
  if (steps > 0) AQUA_OBS_COUNT("pattern.nfa_steps", steps);
  return matched;
}

size_t LazyMultiDfa::WordsHash::operator()(
    const std::vector<uint64_t>& words) const {
  return HashWords(words.data(), words.size());
}

LazyMultiDfa::LazyMultiDfa(const MultiNfa* nfa)
    : nfa_(nfa),
      stride_(nfa->alphabet().sig_stride()),
      cell_base_(static_cast<uint32_t>(nfa->point_labels().size() + 1)),
      num_symbols_(cell_base_),
      cell_slots_(16, kNone),
      width_(cell_base_ + 16),
      next_(nfa->set_words()) {
  std::vector<uint64_t> start(nfa_->set_words());
  nfa_->StartSet(start.data());
  start_state_ = InternState(start);
}

Result<LazyMultiDfa> LazyMultiDfa::Make(const MultiNfa* nfa) {
  if (nfa == nullptr) return Status::InvalidArgument("null MultiNfa");
  if (!nfa->alphabet().sealed()) {
    return Status::InvalidArgument("MultiNfa must be sealed before matching");
  }
  return LazyMultiDfa(nfa);
}

uint32_t LazyMultiDfa::InternState(const std::vector<uint64_t>& set) {
  auto [it, inserted] =
      state_ids_.try_emplace(set, static_cast<uint32_t>(sets_.size()));
  if (inserted) {
    sets_.push_back(it->first.data());
    state_accept_masks_.push_back(nfa_->AcceptMask(it->first.data()));
    table_.resize(table_.size() + width_, kNone);
  }
  return it->second;
}

uint32_t& LazyMultiDfa::CellSlot(const uint64_t* letter) {
  const size_t mask = cell_slots_.size() - 1;
  for (size_t i = HashWords(letter, stride_);; ++i) {
    uint32_t& slot = cell_slots_[i & mask];
    if (slot == kNone ||
        std::equal(letter, letter + stride_, CellLetter(slot))) {
      return slot;
    }
  }
}

uint32_t LazyMultiDfa::CellSymbol(const uint64_t* sig) {
  uint32_t& slot = CellSlot(sig);
  if (slot != kNone) return slot;
  const uint32_t symbol = slot = num_symbols_++;
  cell_letters_.insert(cell_letters_.end(), sig, sig + stride_);
  if (2 * (num_symbols_ - cell_base_) > cell_slots_.size()) {
    cell_slots_.assign(2 * cell_slots_.size(), kNone);
    for (uint32_t s = cell_base_; s < num_symbols_; ++s) {
      CellSlot(CellLetter(s)) = s;
    }
  }
  if (num_symbols_ > width_) {
    // Double the table's width, keeping every state's row.
    std::vector<uint32_t> table(sets_.size() * 2 * width_, kNone);
    for (size_t s = 0; s < sets_.size(); ++s) {
      std::copy_n(&table_[s * width_], width_, &table[2 * s * width_]);
    }
    table_.swap(table);
    width_ *= 2;
  }
  return symbol;
}

uint32_t LazyMultiDfa::Miss(uint32_t state, uint32_t symbol) {
  ++misses_;
  if (symbol >= cell_base_) {
    nfa_->StepCell(sets_[state], CellLetter(symbol), next_.data());
  } else {
    const bool unnamed = symbol + 1 == cell_base_;
    nfa_->StepPoint(sets_[state], unnamed ? MultiNfa::kNoLabel : symbol,
                    next_.data());
  }
  const uint32_t next = InternState(next_);
  table_[state * width_ + symbol] = next;
  return next;
}

uint64_t LazyMultiDfa::MatchAll(const StoreView& store, const List& list,
                                size_t* rows) {
  const uint64_t hits0 = hits_;
  const uint64_t misses0 = misses_;
  uint32_t state = start_state_;
  const uint64_t matched = Scan(
      *nfa_, store, list, state_accept_masks_[start_state_], &scratch_, rows,
      [&](const NodePayload& e, const uint64_t* sig) {
        // `kNoLabel` (all ones) clamps to the last point symbol.
        const uint32_t symbol =
            e.is_cell() ? CellSymbol(sig)
                        : std::min(nfa_->LabelIndex(e.label()), cell_base_ - 1);
        const uint32_t cached = table_[state * width_ + symbol];
        if (cached == kNone) {
          state = Miss(state, symbol);
        } else {
          ++hits_;
          state = cached;
        }
        return state_accept_masks_[state];
      });
  if (hits_ > hits0) AQUA_OBS_COUNT("pattern.dfa_hits", hits_ - hits0);
  if (misses_ > misses0) {
    AQUA_OBS_COUNT("pattern.dfa_misses", misses_ - misses0);
    // Each miss ran one NFA simulation step.
    AQUA_OBS_COUNT("pattern.nfa_steps", misses_ - misses0);
  }
  return matched;
}

}  // namespace aqua
