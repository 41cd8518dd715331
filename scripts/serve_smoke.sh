#!/usr/bin/env bash
# Exercises the shell's embedded scrape endpoint (`\serve`) under
# concurrent query traffic, then validates a scraped /metrics body with
# `aqua_metricsd --check`. Used by the TSan CI job to shake out races
# between the accept thread and query threads.
#
#   bash scripts/serve_smoke.sh
#   SHELL_BIN=build-tsan/tools/aqua_shell PORT=9491 bash scripts/serve_smoke.sh
set -euo pipefail

SHELL_BIN="${SHELL_BIN:-build/tools/aqua_shell}"
CHECK_BIN="${CHECK_BIN:-build/tools/aqua_metricsd}"
PORT="${PORT:-9477}"
ROUNDS="${ROUNDS:-50}"

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# The feed subshell keeps the shell (and its server) alive with a trailing
# sleep so the scraper below always finds a live endpoint.
{
  echo "\\threads 4"
  echo "tree t r(b(d e) x(b(d f)))"
  echo "list l [a x a y]"
  echo "\\serve $PORT"
  for _ in $(seq "$ROUNDS"); do
    echo "subselect t b(d ?)"
    echo "subselect l a ?"
  done
  sleep 3
  echo "quit"
} | "$SHELL_BIN" >"$out/shell.log" 2>&1 &
shell_pid=$!

url="http://127.0.0.1:$PORT"
up=0
for _ in $(seq 50); do
  if curl -sf "$url/healthz" -o /dev/null 2>/dev/null; then
    up=1
    break
  fi
  sleep 0.2
done
if [ "$up" != 1 ]; then
  echo "serve smoke FAILED: endpoint never came up" >&2
  cat "$out/shell.log" >&2
  exit 1
fi

# Hammer the endpoint while queries are still flowing.
for _ in $(seq 20); do
  curl -sf "$url/metrics" -o /dev/null
  curl -sf "$url/flight" -o /dev/null
done

# Canonical scrape for the conformance check (server is still up inside
# the feed's trailing sleep).
curl -sf "$url/metrics" -o "$out/metrics.txt"
curl -sf "$url/plans" -o "$out/plans.json"

wait "$shell_pid"

"$CHECK_BIN" --check "$out/metrics.txt"
grep -Eq 'aqua_exec_executes_total [1-9]' "$out/metrics.txt"
grep -q 'aqua_digest_calls_total{digest=' "$out/metrics.txt"
grep -q '"plans"' "$out/plans.json"
echo "serve smoke OK: $((ROUNDS * 2)) queries served alongside scrapes"
