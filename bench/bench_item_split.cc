// Thread sweeps over a single input item. With no set of items to fan out
// over, the executor splits the one item's own work into ranges on the
// pool (docs/EXECUTION.md, "Parallelize"): a list sub_select over one song
// runs its begin positions as ranges, and a select over one forest builds
// its result trees as ranges of the topmost kept nodes. These record the
// scaling at 1, 2 and 4 threads; results are byte-identical at every
// thread count (tests/exec/split_differential_test). No CI gate reads them.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace aqua {
namespace {

using bench::Check;
using bench::OrDie;

void BM_ItemSplit_ListSubSelectThreads(benchmark::State& state) {
  // The §3.2 melody search over one 100k-note song: a pitch closure that
  // matches at many begins, so backtracking dominates the prefilter scan.
  const size_t notes = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  Database db;
  SongSpec spec;
  spec.num_notes = notes;
  spec.seed = 7;
  Check(db.RegisterList("song", OrDie(MakeSong(db.store(), spec))));
  auto plan = Q::ListSubSelect(
      Q::ScanList("song"),
      OrDie(ParseListPattern(
          "{pitch == \"C\"} {pitch == \"E\"}+ {duration == 4}")));
  Executor exec(&db);
  exec.set_threads(threads);
  size_t results = 0;
  for (auto _ : state) {
    results = OrDie(exec.Execute(plan)).size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["results"] = static_cast<double>(results);
}
BENCHMARK(BM_ItemSplit_ListSubSelectThreads)
    ->Args({100000, 1})->Args({100000, 2})->Args({100000, 4})
    ->UseRealTime();

void BM_ItemSplit_ForestSelectThreads(benchmark::State& state) {
  // select over one tree: a sentinel root over 48 family trees that the
  // predicate drops, so the forest has 48 roots to build.
  const size_t people = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  constexpr size_t kFamilies = 48;
  Database db;
  Check(RegisterPersonType(db.store()));
  std::vector<Tree> families;
  for (size_t i = 0; i < kFamilies; ++i) {
    FamilyTreeSpec spec;
    spec.num_people = people / kFamilies;
    spec.seed = 1000 + i;
    families.push_back(OrDie(MakeFamilyTree(db.store(), spec)));
  }
  Oid sentinel = OrDie(
      db.store().Create("Person", {{"name", Value::String("forest")},
                                   {"citizen", Value::String("none")},
                                   {"eyes", Value::String("blue")},
                                   {"education", Value::String("HS")},
                                   {"age", Value::Int(0)}}));
  Check(db.RegisterTree(
      "family", Tree::Node(NodePayload::Cell(sentinel), families)));
  auto plan = Q::TreeSelect(
      Q::ScanTree("family"),
      Predicate::Not(Predicate::AttrEquals("citizen", Value::String("none"))));
  Executor exec(&db);
  exec.set_threads(threads);
  size_t pieces = 0;
  for (auto _ : state) {
    pieces = OrDie(exec.Execute(plan)).size();
    benchmark::DoNotOptimize(pieces);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["pieces"] = static_cast<double>(pieces);
}
BENCHMARK(BM_ItemSplit_ForestSelectThreads)
    ->Args({16384, 1})->Args({16384, 2})->Args({16384, 4})
    ->UseRealTime();

}  // namespace
}  // namespace aqua

AQUA_BENCH_MAIN()
