#!/usr/bin/env bash
# Benchmark runner: thread-sweeps the fan-out and single-item split
# benches, runs the snapshot and batched multi-query benches and the stats-warmed plan-choice A/B
# sweeps (cold vs warmed optimizer), and merges the per-bench JSON reports
# (including the registry counters/gauges attributed to each run) into
# BENCH.json. Each record carries a `source` field naming the bench run it
# came from; CI's bench gates filter on it.
#
#   bash bench/run_benches.sh
#   BUILD_DIR=build-release MERGED_OUT=/tmp/bench.json bash bench/run_benches.sh
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
MERGED_OUT="${MERGED_OUT:-BENCH.json}"
MIN_TIME="${MIN_TIME:-0.05}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

"$BUILD_DIR/bench/bench_fig4_split" \
  --benchmark_filter='BM_Fig4_ForestFanOutThreads' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/fig4_fanout.json"

"$BUILD_DIR/bench/bench_fig4_split" \
  --benchmark_filter='BM_Fig4_CertifiedApplyThreads' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/apply_fanout.json"

"$BUILD_DIR/bench/bench_fig4_split" \
  --benchmark_filter='BM_Fig4_MutatingApplyThreads' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/mutating_fanout.json"

"$BUILD_DIR/bench/bench_tree_kleene" \
  --benchmark_filter='BM_Kleene_FanOutThreads' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/kleene_fanout.json"

# Single-item splits: one list's begin ranges, one forest's select roots.
# Recorded only; no CI gate reads them.
"$BUILD_DIR/bench/bench_item_split" \
  --benchmark_filter='BM_ItemSplit_' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/item_split.json"

"$BUILD_DIR/bench/bench_snapshot" \
  --benchmark_filter='BM_Snapshot_' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/snapshot_overhead.json"

"$BUILD_DIR/bench/bench_multi_query" \
  --benchmark_filter='BM_MultiQuery_' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/multi_query.json"

# Plan-choice A/B: forced baselines bracket the optimizer's pick; Cold
# decides from static constants, Warmed from learned runtime statistics.
"$BUILD_DIR/bench/bench_split_rewrite" \
  --benchmark_filter='BM_PlanChoice_' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/plan_choice.json"

"$BUILD_DIR/bench/bench_fig5_rewrite" \
  --benchmark_filter='BM_Fig5_PlannedMatch_' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/fig5_planned.json"

python3 - "$tmpdir" "$MERGED_OUT" <<'EOF'
import glob, json, os, sys

indir, out = sys.argv[1], sys.argv[2]
merged = {"benchmarks": [], "sources": []}
for path in sorted(glob.glob(os.path.join(indir, "*.json"))):
    doc = json.load(open(path))
    src = os.path.splitext(os.path.basename(path))[0]
    merged["sources"].append(src)
    for rec in doc["benchmarks"]:
        rec["source"] = src
        merged["benchmarks"].append(rec)
    # Final process-wide registry state of the last bench binary run.
    for key in ("counters", "gauges", "histograms"):
        if key in doc:
            merged[key] = doc[key]
assert merged["benchmarks"], "no benchmark records collected"
with open(out, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
print(f"wrote {out}: {len(merged['benchmarks'])} records "
      f"from {len(merged['sources'])} benches")
EOF
