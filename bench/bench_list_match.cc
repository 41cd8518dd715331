// E2 — list pattern matching engines over songs (§3.2/§6).
//
// The same boolean query ("does this song contain the melody?") through
// three engines: the backtracking matcher, Thompson NFA simulation, and the
// lazily-determinized DFA (compiled once, amortized across the corpus). The
// two automata are the one-pattern search `MultiNfa` and `LazyMultiDfa`.
// Sweeps song length and pattern complexity. Expected shape: backtracking
// is fine for short patterns, NFA is robustly linear, DFA wins on corpus
// scans once its transitions are hot. The automata also run one pattern over
// a 70-predicate alphabet (two signature words per cell).
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace aqua {
namespace {

using bench::Check;
using bench::OrDie;

AnchoredListPattern Melody() {
  static PredicateEnv* env = [] {
    auto* e = new PredicateEnv();
    for (const char* p : {"A", "B", "C", "D", "E", "F", "G"}) {
      e->Bind(p, Predicate::AttrEquals("pitch", Value::String(p)));
    }
    return e;
  }();
  PatternParserOptions popts;
  popts.env = env;
  return OrDie(ParseListPattern("A ? ? F", popts));
}

AnchoredListPattern ComplexMelody() {
  static PredicateEnv* env = [] {
    auto* e = new PredicateEnv();
    for (const char* p : {"A", "B", "C", "D", "E", "F", "G"}) {
      e->Bind(p, Predicate::AttrEquals("pitch", Value::String(p)));
    }
    return e;
  }();
  PatternParserOptions popts;
  popts.env = env;
  // A, then a run of non-F notes, then F, then C or D.
  return OrDie(ParseListPattern(
      "A [[{pitch != \"F\"}]]* F [[C | D]]", popts));
}

AnchoredListPattern WideMelody() {
  // A, any one note, F, with the middle note spelled as a 68-way
  // alternation over durations (only 1-8 occur): 70 alphabet predicates,
  // so a cell's signature spans two words.
  std::string alt = "A [[{duration == 1}";
  for (int d = 2; d <= 68; ++d) {
    alt += " | {duration == " + std::to_string(d) + "}";
  }
  PatternParserOptions popts;
  PredicateEnv env;
  env.Bind("A", Predicate::AttrEquals("pitch", Value::String("A")));
  env.Bind("F", Predicate::AttrEquals("pitch", Value::String("F")));
  popts.env = &env;
  return OrDie(ParseListPattern(alt + "]] F", popts));
}

std::vector<List> MakeCorpus(ObjectStore& store, size_t songs,
                             size_t notes) {
  std::vector<List> corpus;
  for (size_t i = 0; i < songs; ++i) {
    SongSpec spec;
    spec.num_notes = notes;
    spec.seed = 1000 + i;
    corpus.push_back(OrDie(MakeSong(store, spec)));
  }
  return corpus;
}

const AnchoredListPattern& PatternFor(int id) {
  static AnchoredListPattern simple = Melody();
  static AnchoredListPattern complex_pattern = ComplexMelody();
  static AnchoredListPattern wide = WideMelody();
  return id == 0 ? simple : id == 1 ? complex_pattern : wide;
}

void BM_ListMatch_Backtracking(benchmark::State& state) {
  ObjectStore store;
  auto corpus = MakeCorpus(store, 32, static_cast<size_t>(state.range(0)));
  const AnchoredListPattern& pattern = PatternFor(state.range(1));
  ListMatchOptions opts;
  opts.max_matches = 1;  // boolean question: any match?
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (const List& song : corpus) {
      ListMatcher matcher(store, song);
      if (!OrDie(matcher.FindAll(pattern, opts)).empty()) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["hits"] = static_cast<double>(hits);
}

void BM_ListMatch_Nfa(benchmark::State& state) {
  ObjectStore store;
  auto corpus = MakeCorpus(store, 32, static_cast<size_t>(state.range(0)));
  MultiNfa nfa =
      OrDie(MultiNfa::CompileSearch({PatternFor(state.range(1)).body}));
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (const List& song : corpus) {
      if (nfa.MatchAll(store, song) != 0) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["hits"] = static_cast<double>(hits);
  state.counters["states"] = static_cast<double>(nfa.num_states());
}

void BM_ListMatch_LazyDfa(benchmark::State& state) {
  ObjectStore store;
  auto corpus = MakeCorpus(store, 32, static_cast<size_t>(state.range(0)));
  MultiNfa nfa =
      OrDie(MultiNfa::CompileSearch({PatternFor(state.range(1)).body}));
  LazyMultiDfa dfa = OrDie(LazyMultiDfa::Make(&nfa));
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (const List& song : corpus) {
      if (dfa.MatchAll(store, song) != 0) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["hits"] = static_cast<double>(hits);
  state.counters["dfa_states"] = static_cast<double>(dfa.num_states());
}

// {song length, pattern id (0 = A??F, 1 = closure/alt pattern, 2 = A?F
// over a 70-predicate alphabet)}
#define LIST_MATCH_ARGS                                               \
  ->Args({64, 0})->Args({256, 0})->Args({1024, 0})->Args({4096, 0})  \
      ->Args({64, 1})->Args({256, 1})->Args({1024, 1})->Args({4096, 1})

BENCHMARK(BM_ListMatch_Backtracking) LIST_MATCH_ARGS;
BENCHMARK(BM_ListMatch_Nfa) LIST_MATCH_ARGS->Args({4096, 2});
BENCHMARK(BM_ListMatch_LazyDfa) LIST_MATCH_ARGS->Args({4096, 2});

void BM_ListMatch_EnumerateAll(benchmark::State& state) {
  // Full enumeration (the operator path): all matches with extents.
  ObjectStore store;
  SongSpec spec;
  spec.num_notes = static_cast<size_t>(state.range(0));
  List song = OrDie(MakeSong(store, spec));
  const AnchoredListPattern& pattern = PatternFor(0);
  size_t matches = 0;
  for (auto _ : state) {
    ListMatcher matcher(store, song);
    matches = OrDie(matcher.FindAll(pattern)).size();
    benchmark::DoNotOptimize(matches);
  }
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_ListMatch_EnumerateAll)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace aqua

AQUA_BENCH_MAIN()
