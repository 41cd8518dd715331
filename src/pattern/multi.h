#ifndef AQUA_PATTERN_MULTI_H_
#define AQUA_PATTERN_MULTI_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bulk/list.h"
#include "common/result.h"
#include "pattern/alphabet.h"
#include "pattern/list_pattern.h"

namespace aqua {

/// The list automaton: a Thompson NFA over up to 64 list patterns merged
/// into one product automaton, answering the boolean list questions the
/// engine asks ("does pattern j match somewhere in / all of this list?").
///
/// Prune markers do not change the recognized language (§3.4 separates
/// matching from result shaping), so `!` is transparent here; the
/// backtracking `ListMatcher` remains the engine for match *shapes*.
///
/// Compilation interns every pattern predicate into one shared
/// `PredicateAlphabet` (structural dedup, so `{citizen=="Brazil"}` appearing
/// in five patterns is one slot), trie-merges the patterns' common leading
/// atoms into shared states, and Thompson-compiles each remainder. Every
/// state carries an *accept mask*: bit j set means pattern j accepts here.
///
/// Uses:
///  * one pattern, search mode — the existence prefilter in front of the
///    backtracking matcher (`ListSubSelect`, `ListSubSelectOp`);
///  * N patterns, search mode — one columnar scan answers a whole batch
///    (`BatchedListMatchOp`): element facts come from one
///    `PredicateAlphabet::EvalBatch` per chunk, the scan OR-accumulates the
///    accept masks it touches and stops once every pattern has matched;
///  * one pattern, whole-match mode — lint's start/accept reachability
///    analysis (structure only, never sealed) and cross-checks against the
///    backtracker's `MatchesWhole`.
/// Every scan the engine runs goes through a `LazyMultiDfa` over the
/// sealed automaton; the step functions below are its miss path.
///
/// State sets are packed bitsets of `set_words()` words.
///
/// Thread model: a sealed MultiNfa is immutable and freely shared; matching
/// state lives in the caller (a `LazyMultiDfa` owns its caches, `MatchAll`
/// allocates its own buffers).
class MultiNfa {
 public:
  /// Compiles the whole-match automaton: bit j of `MatchAll` is set when
  /// the entire list is in patterns[j]'s language. The alphabet is left
  /// unsealed, so structural readers pay no kernel compilation; call
  /// `Seal` before matching. Fails on empty input, more than 64 patterns,
  /// or tree-pattern atoms.
  static Result<MultiNfa> Compile(const std::vector<ListPatternRef>& patterns);

  /// Compiles `(any element)* merged(patterns)` for single-pass existence
  /// search (bit j set when some sublist is in patterns[j]'s language) and
  /// seals it, ready to match.
  static Result<MultiNfa> CompileSearch(
      const std::vector<ListPatternRef>& patterns);

  /// Compiles the alphabet's columnar kernels (idempotent). Required before
  /// matching; not thread-safe, so seal before sharing.
  void Seal() { alphabet_.Seal(); }

  /// Returns the bitset of matching patterns (bit j = patterns[j]) by plain
  /// NFA simulation. Requires `Seal()`. `rows`, when not null, receives
  /// the number of elements whose alphabet signatures were evaluated.
  /// The engine never calls this (it scans with `LazyMultiDfa`): it is the
  /// reference the DFA is tested against, the NFA column of
  /// `bench_list_match` and the comparison in the `music_db` example.
  uint64_t MatchAll(const StoreView& store, const List& list,
                    size_t* rows = nullptr) const;

  bool search_mode() const { return search_mode_; }
  size_t num_patterns() const { return num_patterns_; }
  size_t num_states() const { return states_.size(); }
  const PredicateAlphabet& alphabet() const { return alphabet_; }
  /// All-patterns-matched mask (bit j set for every pattern j).
  uint64_t full_mask() const { return full_mask_; }
  /// States shared by trie-merging pattern prefixes (0 when all patterns
  /// start differently); a direct measure of the product-automaton win.
  size_t trie_shared_states() const { return trie_shared_states_; }

  struct Transition {
    /// `kAnyCell` is the pattern atom `?` (cells only); `kAnyElement` is
    /// the search loop, which skips cells and instance points alike.
    enum class Kind { kEpsilon, kPred, kAnyCell, kAnyElement, kPoint };
    Kind kind;
    uint32_t target;
    uint32_t index;  // alphabet slot (kPred) or label index (kPoint)
  };

  const std::vector<std::vector<Transition>>& states() const {
    return states_;
  }
  const std::vector<uint64_t>& accept_masks() const { return accept_masks_; }
  const std::vector<std::string>& point_labels() const {
    return point_labels_;
  }
  uint32_t start() const { return start_; }

  /// Words per packed state set.
  size_t set_words() const { return (states_.size() + 63) / 64; }

  /// Epsilon-closure of a packed state set, in place.
  void EpsClosure(uint64_t* set) const;

  /// Writes the closed start set into `set` (`set_words()` words).
  void StartSet(uint64_t* set) const;

  /// OR of the accept masks of all states in `set`.
  uint64_t AcceptMask(const uint64_t* set) const;

  /// One simulation step, closure included, from `from` into `next` (which
  /// must not alias it): over a cell whose alphabet signature starts at
  /// `sig`, or over a point with `label_index` (`kNoLabel` for a label no
  /// pattern names).
  static constexpr uint32_t kNoLabel = static_cast<uint32_t>(-1);
  void StepCell(const uint64_t* from, const uint64_t* sig,
                uint64_t* next) const;
  void StepPoint(const uint64_t* from, uint32_t label_index,
                 uint64_t* next) const;

  /// Index of `label` among `point_labels()`, or `kNoLabel`.
  uint32_t LabelIndex(const std::string& label) const;

 private:
  struct Frag {
    uint32_t start;
    uint32_t accept;
  };

  static Result<MultiNfa> CompileMerged(
      const std::vector<ListPatternRef>& patterns, bool search);
  uint32_t NewState();
  void AddEdge(uint32_t from, Transition t);
  uint32_t InternLabel(const std::string& label);
  Result<Frag> Build(const ListPattern& p);
  Status AddPattern(const ListPatternRef& pattern, uint32_t index,
                    uint32_t trie_root);

  std::vector<std::vector<Transition>> states_;
  std::vector<uint64_t> accept_masks_;
  std::vector<std::string> point_labels_;
  PredicateAlphabet alphabet_;
  uint32_t start_ = 0;
  uint64_t full_mask_ = 0;
  size_t num_patterns_ = 0;
  size_t trie_shared_states_ = 0;
  bool search_mode_ = false;
};

/// Lazily determinized `MultiNfa`, the automaton every list scan runs.
/// Each element is a *letter* — a cell's whole alphabet signature
/// (`sig_stride()` words, so any alphabet width), a point's label — and
/// each distinct letter is interned to a dense symbol. Each (DFA state,
/// symbol) pair seen materializes one cached transition in a flat
/// state-by-symbol table, and each DFA state caches the OR of its NFA
/// states' accept masks, so a hot scan costs one letter probe, one table
/// load and one mask OR per element, allocating nothing. DFA states are
/// packed NFA state sets interned in a hash map.
///
/// The input alphabet is symbolic (predicate outcomes), so ahead-of-time
/// determinization would enumerate predicate minterms; determinizing on
/// demand only ever builds the transitions the data exercises.
///
/// Thread model: matching MUTATES the caches and the owned alphabet
/// scratch, so instances are per worker over one shared const `MultiNfa`;
/// the caches then amortize across every list that worker scans.
class LazyMultiDfa {
 public:
  /// `nfa` must be sealed and must outlive the DFA.
  static Result<LazyMultiDfa> Make(const MultiNfa* nfa);

  LazyMultiDfa(LazyMultiDfa&&) = default;
  LazyMultiDfa& operator=(LazyMultiDfa&&) = default;
  LazyMultiDfa(const LazyMultiDfa&) = delete;
  LazyMultiDfa& operator=(const LazyMultiDfa&) = delete;

  /// Same contract as `MultiNfa::MatchAll`.
  uint64_t MatchAll(const StoreView& store, const List& list,
                    size_t* rows = nullptr);

  /// Number of materialized DFA states so far.
  size_t num_states() const { return sets_.size(); }
  /// Number of cached transitions so far (one per miss).
  size_t num_transitions() const { return misses_; }
  /// Transition-cache hits/misses over this DFA's lifetime. A miss runs
  /// one NFA simulation step (mirrored to the registry as
  /// `pattern.dfa_hits`, `pattern.dfa_misses` and `pattern.nfa_steps`).
  uint64_t cache_hits() const { return hits_; }
  uint64_t cache_misses() const { return misses_; }

 private:
  static constexpr uint32_t kNone = static_cast<uint32_t>(-1);

  explicit LazyMultiDfa(const MultiNfa* nfa);

  struct WordsHash {
    size_t operator()(const std::vector<uint64_t>& words) const;
  };

  uint32_t InternState(const std::vector<uint64_t>& set);
  /// The symbol of the cell signature `sig`, interned on first sight.
  uint32_t CellSymbol(const uint64_t* sig);
  /// `letter`'s slot in `cell_slots_`: its symbol, or the empty slot
  /// where it belongs.
  uint32_t& CellSlot(const uint64_t* letter);
  const uint64_t* CellLetter(uint32_t symbol) const {
    return cell_letters_.data() + (symbol - cell_base_) * stride_;
  }
  /// Builds the transition of `state` over `symbol` by one NFA step.
  uint32_t Miss(uint32_t state, uint32_t symbol);

  const MultiNfa* nfa_;
  size_t stride_;  // words per cell letter
  AlphabetScratch scratch_;
  /// Packed NFA state set -> DFA state id. `sets_[id]` points at the key's
  /// words, which the map's nodes keep in place.
  std::unordered_map<std::vector<uint64_t>, uint32_t, WordsHash> state_ids_;
  std::vector<const uint64_t*> sets_;
  std::vector<uint64_t> state_accept_masks_;
  /// Symbols below `cell_base_` are points: a label index, the last one
  /// any label no pattern names. Cell symbols follow; their signatures sit
  /// back to back in `cell_letters_`, indexed by the linear-probing table
  /// `cell_slots_` (a power of two in size, at most half full).
  uint32_t cell_base_;
  uint32_t num_symbols_;
  std::vector<uint64_t> cell_letters_;
  std::vector<uint32_t> cell_slots_;
  /// `table_[state * width_ + symbol]`: the cached successor, or `kNone`.
  std::vector<uint32_t> table_;
  size_t width_;
  std::vector<uint64_t> next_;  // miss-path step buffer
  uint32_t start_state_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace aqua

#endif  // AQUA_PATTERN_MULTI_H_
