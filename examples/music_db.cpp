// The §6 music database: songs are lists of notes; melodies are list
// patterns. Shows sub_select / all_anc over lists and the NFA/DFA boolean
// engines for corpus scans.
//
//   ./build/examples/example_music_db
#include <iostream>

#include "example_util.h"

using namespace aqua;
using aqua::examples::Check;
using aqua::examples::OrDie;

int main() {
  ObjectStore store;
  Check(RegisterNoteType(store));
  LabelFn pitch = AttrLabelFn(&store, "pitch");

  // A small corpus of deterministic random songs.
  std::vector<List> corpus;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SongSpec spec;
    spec.num_notes = 64;
    spec.seed = seed;
    corpus.push_back(OrDie(MakeSong(store, spec)));
  }
  std::cout << "corpus: " << corpus.size() << " songs x 64 notes\n";
  std::cout << "song 1: " << PrintList(corpus[0], pitch) << "\n\n";

  // The paper's melody [A??F]: an A, two arbitrary notes, an F.
  PredicateEnv env;
  env.Bind("A", Predicate::AttrEquals("pitch", Value::String("A")));
  env.Bind("F", Predicate::AttrEquals("pitch", Value::String("F")));
  PatternParserOptions popts;
  popts.env = &env;
  AnchoredListPattern melody = OrDie(ParseListPattern("A ? ? F", popts));

  // sub_select([A??F])(L): every phrase in every song.
  size_t total_phrases = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    Datum phrases = OrDie(ListSubSelect(store, corpus[i], melody));
    total_phrases += phrases.size();
    if (i == 0) {
      std::cout << "phrases in song 1: " << phrases.ToString(pitch) << "\n";
    }
  }
  std::cout << "phrases in corpus: " << total_phrases << "\n\n";

  // all_anc: the melody plus everything played before it.
  Datum contexts = OrDie(ListAllAnc(
      store, corpus[0], melody,
      [](const List& before, const List& match) -> Result<Datum> {
        return Datum::Tuple(
            {Datum::Scalar(Value::Int(static_cast<int64_t>(before.size() - 1))),
             Datum::Of(match)});
      }));
  std::cout << "melody positions in song 1 (notes-before, melody):\n  "
            << contexts.ToString(pitch) << "\n\n";

  // Boolean corpus scan: which songs contain the melody at all? The NFA
  // runs in O(notes x states); the lazy DFA amortizes to a table lookup
  // per note across the corpus.
  MultiNfa nfa = OrDie(MultiNfa::CompileSearch({melody.body}));
  LazyMultiDfa dfa = OrDie(LazyMultiDfa::Make(&nfa));
  size_t nfa_hits = 0, dfa_hits = 0;
  for (const List& song : corpus) {
    if (nfa.MatchAll(store, song) != 0) ++nfa_hits;
    if (dfa.MatchAll(store, song) != 0) ++dfa_hits;
  }
  std::cout << "songs containing [A??F]: " << nfa_hits << "/" << corpus.size()
            << " (NFA) == " << dfa_hits << " (DFA), "
            << dfa.num_states() << " DFA states materialized\n\n";

  // A richer pattern: an A-major-ish run — A, then notes above C, then E.
  AnchoredListPattern run = OrDie(ParseListPattern(
      "{pitch == \"A\"} [[{pitch != \"A\" && pitch != \"B\"}]]+ "
      "{pitch == \"E\"}",
      popts));
  Datum runs = OrDie(ListSubSelect(store, corpus[1], run));
  std::cout << "runs in song 2: " << runs.size() << "\n";

  // Duration-sensitive pattern: a long note followed by a short one.
  AnchoredListPattern rhythm =
      OrDie(ParseListPattern("{duration >= 6} {duration <= 2}", popts));
  size_t rhythm_hits = 0;
  for (const List& song : corpus) {
    rhythm_hits += OrDie(ListSubSelect(store, song, rhythm)).size();
  }
  std::cout << "long-short pairs in corpus: " << rhythm_hits << "\n";
  return 0;
}
