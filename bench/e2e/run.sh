#!/usr/bin/env bash
# End-to-end benchmark driver. Run it from anywhere inside a checkout; it
# configures and builds bench/e2e (Release, with the library from src/) in
# .bench_build/e2e under the checkout, then measures.
#
# All workloads, serially, one process each (so each peak RSS is clean):
#   bench/e2e/run.sh [--seed S] [--runs N] [--out DIR] [--workloads a,b]
# Each workload gets N untraced runs (default 5) and one traced run. Every
# metric is printed as `workload metric value unit`, DIR (default
# .bench_build/e2e/results) receives BENCH_e2e.json and
# BENCH_e2e_layers.json, and the exit code is non-zero if any correctness
# check failed.
#
# One workload for a fixed time (the form BENCHMARK.json's command uses):
#   bench/e2e/run.sh --workload NAME --seed S --seconds T --trace 0|1
# The last output line is the JSON result object.
#
# Generated inputs go to .bench_build/e2e/work and are deleted when a
# process ends.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/e2e"
bin="$build/ppsched_e2e"

cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target ppsched_e2e -j 4 >&2
mkdir -p "$build/work"

# A fixed address-space layout makes peak RSS repeat for a seed; with
# randomization it moves by up to 10% from process to process.
run=("$bin")
if setarch "$(uname -m)" -R true 2>/dev/null; then
  run=(setarch "$(uname -m)" -R "$bin")
fi

for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "${run[@]}" "$@" --workdir "$build/work"
  fi
done

seed=20261016
runs=5
out="$build/results"
workloads=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    *) echo "usage: $0 [--seed S] [--runs N] [--out DIR] [--workloads a,b]" >&2; exit 2 ;;
  esac
done
if [[ -z "$workloads" ]]; then
  workloads="$("$bin" --list | paste -sd, -)"
fi

mkdir -p "$out"
lines="$out/e2e_lines.txt"
: > "$lines"
status=0
IFS=',' read -ra names <<< "$workloads"
for w in "${names[@]}"; do
  if ! "${run[@]}" --workload "$w" --seed "$seed" --runs "$runs" --trace 1 \
      --workdir "$build/work" | grep -v '^{' | tee -a "$lines"; then
    echo "$w: correctness check failed" >&2
    status=1
  fi
done
"$bin" --write-json "$lines" --out "$out"
exit "$status"
