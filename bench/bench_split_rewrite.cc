// E1 — §4 "Why Split?": the index-assisted decomposition of sub_select.
//
//   sub_select(tp)(T)  vs
//   apply(sub_select(⊤tp))(split(anchor)(T))   [literal rewrite]  vs
//   fused index probe + anchored matching      [physical operator]
//
// Sweeps tree size and anchor selectivity (label-alphabet size). The
// paper's claim: the split form "drastically narrows the search space";
// expect the indexed forms to win by roughly the selectivity factor, with
// the literal rewrite paying subtree materialization on top.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace aqua {
namespace {

using bench::Check;
using bench::Labels;
using bench::OrDie;

struct Workload {
  ObjectStore store;
  Tree tree;
  TreePatternRef pattern;
  AttributeIndex index;
};

/// Pattern anchored at label t0 with a t1 child somewhere:
/// {name=="t0"}(?* {name=="t1"} ?*).
std::unique_ptr<Workload> MakeWorkload(size_t nodes, size_t alphabet) {
  auto w = std::make_unique<Workload>();
  RandomTreeSpec spec;
  spec.num_nodes = nodes;
  spec.labels = Labels(alphabet);
  spec.seed = 1234;
  w->tree = OrDie(MakeRandomTree(w->store, spec));
  w->pattern =
      OrDie(ParseTreePattern("{name == \"t0\"}(?* {name == \"t1\"} ?*)"));
  w->index = OrDie(AttributeIndex::BuildForTree(w->store, w->tree, "name"));
  return w;
}

void BM_SubSelect_Naive(benchmark::State& state) {
  auto w = MakeWorkload(static_cast<size_t>(state.range(0)),
                        static_cast<size_t>(state.range(1)));
  size_t results = 0;
  for (auto _ : state) {
    results = OrDie(TreeSubSelect(w->store, w->tree, w->pattern)).size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["selectivity"] = 1.0 / static_cast<double>(state.range(1));
}

void BM_SubSelect_SplitRewrite(benchmark::State& state) {
  auto w = MakeWorkload(static_cast<size_t>(state.range(0)),
                        static_cast<size_t>(state.range(1)));
  size_t results = 0;
  for (auto _ : state) {
    results = OrDie(TreeSubSelectSplitRewrite(w->store, w->tree, w->pattern,
                                              w->index))
                  .size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
}

void BM_SubSelect_Indexed(benchmark::State& state) {
  auto w = MakeWorkload(static_cast<size_t>(state.range(0)),
                        static_cast<size_t>(state.range(1)));
  size_t results = 0;
  for (auto _ : state) {
    results =
        OrDie(TreeSubSelectIndexed(w->store, w->tree, w->pattern, w->index))
            .size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
}

// Size sweep at fixed selectivity 1/8, then selectivity sweep at 8k nodes.
#define SPLIT_REWRITE_ARGS                                        \
  ->Args({1000, 8})->Args({4000, 8})->Args({16000, 8})            \
      ->Args({8000, 2})->Args({8000, 4})->Args({8000, 16})        \
      ->Args({8000, 64})

BENCHMARK(BM_SubSelect_Naive) SPLIT_REWRITE_ARGS;
BENCHMARK(BM_SubSelect_SplitRewrite) SPLIT_REWRITE_ARGS;
BENCHMARK(BM_SubSelect_Indexed) SPLIT_REWRITE_ARGS;

void BM_SubSelect_PlannerChoice(benchmark::State& state) {
  // End-to-end: the rewriter decides; measures the optimized plan through
  // the executor (optimizer time included once per iteration).
  const size_t nodes = static_cast<size_t>(state.range(0));
  Database db;
  Check(RegisterItemType(db.store()));
  RandomTreeSpec spec;
  spec.num_nodes = nodes;
  spec.labels = Labels(8);
  spec.seed = 1234;
  Check(db.RegisterTree("t", OrDie(MakeRandomTree(db.store(), spec))));
  Check(db.CreateIndex("t", "name"));
  auto tp =
      OrDie(ParseTreePattern("{name == \"t0\"}(?* {name == \"t1\"} ?*)"));
  size_t results = 0;
  bool rewritten = false;
  for (auto _ : state) {
    Rewriter rewriter(&db);
    rewriter.AddDefaultRules();
    PlanRef plan =
        OrDie(rewriter.Optimize(Q::TreeSubSelect(Q::ScanTree("t"), tp)));
    rewritten = plan->op == PlanOp::kIndexedSubSelect;
    Executor exec(&db);
    results = OrDie(exec.Execute(plan)).size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["used_index"] = rewritten ? 1 : 0;
}
BENCHMARK(BM_SubSelect_PlannerChoice)->Arg(1000)->Arg(8000);

// --- Anchored Execute at a fixed candidate count --------------------------
//
// The measured form of the §4 claim: an index-anchored sub_select costs its
// candidates, not the tree. The tree grows 10k -> 1M nodes while the anchor
// label keeps about 25 candidates (the alphabet grows with the tree, and the
// anchor is the label whose count is closest to 25), so a flat time means
// no step of the anchored path is linear in the tree.

struct AnchoredWorkload {
  Database db;
  PlanRef plan;
  size_t candidates = 0;
};

std::unique_ptr<AnchoredWorkload> MakeAnchoredWorkload(size_t nodes) {
  constexpr size_t kCandidates = 25;
  auto w = std::make_unique<AnchoredWorkload>();
  RandomTreeSpec spec;
  spec.num_nodes = nodes;
  spec.labels = Labels(std::max<size_t>(1, nodes / kCandidates));
  spec.seed = 1234;
  Check(w->db.RegisterTree("t", OrDie(MakeRandomTree(w->db.store(), spec))));
  Check(w->db.CreateIndex("t", "name"));
  const Tree& tree = *OrDie(w->db.GetTree("t"));
  const AttributeIndex& names = *OrDie(w->db.indexes().Get("t", "name"));
  // Anchor on the label with about kCandidates nodes; the pattern's child
  // is a candidate's first child, so at least one match exists.
  std::string anchor;
  size_t best = nodes;
  for (size_t i = 0; i < 100 && i < spec.labels.size(); ++i) {
    size_t count = names.Lookup(Value::String(spec.labels[i])).size();
    size_t gap = count > kCandidates ? count - kCandidates : kCandidates - count;
    if (gap < best) {
      best = gap;
      anchor = spec.labels[i];
    }
  }
  std::vector<NodeId> roots = names.Lookup(Value::String(anchor));
  w->candidates = roots.size();
  std::string child = anchor;
  for (NodeId v : roots) {
    if (tree.is_leaf(v)) continue;
    Oid first = tree.payload(tree.children(v)[0]).oid();
    child = OrDie(w->db.store().GetAttr(first, "name")).string_value();
    break;
  }
  auto tp = OrDie(ParseTreePattern("{name == \"" + anchor +
                                   "\"}(?* {name == \"" + child + "\"} ?*)"));
  w->plan = Q::IndexedSubSelect(
      "t", "name", Predicate::AttrEquals("name", Value::String(anchor)), tp);
  return w;
}

/// Args: tree size, then 1 = metrics registry on (the default) or 0 = off
/// at runtime. Off drops the executor epilogue's metric writes, leaving
/// the query path alone; the two should stay within a constant of each
/// other at every tree size (none of the epilogue's work walks the store).
void BM_AnchoredExecute_TreeSize(benchmark::State& state) {
  auto w = MakeAnchoredWorkload(static_cast<size_t>(state.range(0)));
  const bool obs_on = state.range(1) != 0;
  obs::Registry::set_enabled(obs_on);
  Executor exec(&w->db);
  size_t results = 0;
  for (auto _ : state) {
    results = OrDie(exec.Execute(w->plan)).size();
    benchmark::DoNotOptimize(results);
  }
  obs::Registry::set_enabled(true);
  state.counters["results"] = static_cast<double>(results);
  state.counters["candidates"] = static_cast<double>(w->candidates);
}
BENCHMARK(BM_AnchoredExecute_TreeSize)
    ->ArgsProduct({{10000, 100000, 1000000}, {1, 0}})
    ->Unit(benchmark::kMicrosecond);

// --- Stats-warehouse A/B ---------------------------------------------------
//
// The same planner decision with a cold stats warehouse (static cost-model
// constants) vs one warmed by prior executions of both candidate plans
// (learned selectivities + observed candidates-per-probe). The forced
// variants below bracket the choice; CI's plan-choice gate asserts the
// warmed planner never lands >2x slower than the best forced alternative.

struct PlanChoiceWorkload {
  Database db;
  TreePatternRef pattern;
  PlanRef naive;
  PlanRef indexed;
};

std::unique_ptr<PlanChoiceWorkload> MakePlanChoiceWorkload(size_t nodes) {
  auto w = std::make_unique<PlanChoiceWorkload>();
  Check(RegisterItemType(w->db.store()));
  RandomTreeSpec spec;
  spec.num_nodes = nodes;
  spec.labels = Labels(8);
  spec.seed = 1234;
  Check(w->db.RegisterTree("t", OrDie(MakeRandomTree(w->db.store(), spec))));
  Check(w->db.CreateIndex("t", "name"));
  w->pattern =
      OrDie(ParseTreePattern("{name == \"t0\"}(?* {name == \"t1\"} ?*)"));
  w->naive = Q::TreeSubSelect(Q::ScanTree("t"), w->pattern);
  w->indexed = Q::IndexedSubSelect(
      "t", "name", Predicate::AttrEquals("name", Value::String("t0")),
      w->pattern);
  return w;
}

/// Executes `plan` once through a fresh executor; the forced baselines.
void RunForcedPlan(benchmark::State& state, const PlanRef& plan,
                   PlanChoiceWorkload& w) {
  size_t results = 0;
  for (auto _ : state) {
    Executor exec(&w.db);
    results = OrDie(exec.Execute(plan)).size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
}

void BM_PlanChoice_Naive(benchmark::State& state) {
  auto w = MakePlanChoiceWorkload(static_cast<size_t>(state.range(0)));
  RunForcedPlan(state, w->naive, *w);
}

void BM_PlanChoice_Indexed(benchmark::State& state) {
  auto w = MakePlanChoiceWorkload(static_cast<size_t>(state.range(0)));
  RunForcedPlan(state, w->indexed, *w);
}

/// Optimize-then-execute with the stats-informed rewriter against `w`.
size_t OptimizeAndRun(PlanChoiceWorkload& w, bool* used_index) {
  Rewriter rewriter(&w.db, &obs::StatsWarehouse::Global());
  rewriter.AddDefaultRules();
  PlanRef plan = OrDie(rewriter.Optimize(w.naive));
  *used_index = plan->op == PlanOp::kIndexedSubSelect;
  Executor exec(&w.db);
  return OrDie(exec.Execute(plan)).size();
}

void BM_PlanChoice_Cold(benchmark::State& state) {
  auto w = MakePlanChoiceWorkload(static_cast<size_t>(state.range(0)));
  size_t results = 0;
  bool used_index = false;
  for (auto _ : state) {
    state.PauseTiming();
    // Every iteration decides from static constants: no learned records.
    obs::StatsWarehouse::Global().Reset();
    state.ResumeTiming();
    results = OptimizeAndRun(*w, &used_index);
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["used_index"] = used_index ? 1 : 0;
}

void BM_PlanChoice_Warmed(benchmark::State& state) {
  auto w = MakePlanChoiceWorkload(static_cast<size_t>(state.range(0)));
  // Warm the warehouse past kMinConfidence with both alternatives: the
  // naive plan and whatever the static rewriter picks (so the learned
  // fingerprints match the candidates the measured rewriter will rank).
  obs::StatsWarehouse::Global().Reset();
  {
    Rewriter cold(&w->db);
    cold.AddDefaultRules();
    PlanRef alt = OrDie(cold.Optimize(w->naive));
    Executor exec(&w->db);
    for (int i = 0; i < 3; ++i) {
      OrDie(exec.Execute(w->naive));
      OrDie(exec.Execute(alt));
      OrDie(exec.Execute(w->indexed));
    }
  }
  size_t results = 0;
  bool used_index = false;
  for (auto _ : state) {
    results = OptimizeAndRun(*w, &used_index);
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["used_index"] = used_index ? 1 : 0;
}

BENCHMARK(BM_PlanChoice_Naive)->Arg(1000)->Arg(8000);
BENCHMARK(BM_PlanChoice_Indexed)->Arg(1000)->Arg(8000);
BENCHMARK(BM_PlanChoice_Cold)->Arg(1000)->Arg(8000);
BENCHMARK(BM_PlanChoice_Warmed)->Arg(1000)->Arg(8000);

}  // namespace
}  // namespace aqua

AQUA_BENCH_MAIN()
