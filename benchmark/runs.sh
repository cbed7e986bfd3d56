#!/usr/bin/env bash
# Runs the benchmark on seeds 1..N for each named workload and stores
# each run's stdout as <outdir>/<workload>-<seed>.out (stderr beside it
# as .err), the layout benchmark/compare.py reads. Run it from the
# repository root:
#
#   bash benchmark/runs.sh <outdir> <N> [trace] [workload ...]
#
# trace is 0 (end-to-end, the default) or 1 (per-layer); the workloads
# default to all three.
set -euo pipefail

out=$1
n=$2
trace=${3:-0}
shift $(($# < 3 ? $# : 3))
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(regrid-stream replay-hot paper-eval)
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

mkdir -p "$out"
for w in "${workloads[@]}"; do
	for seed in $(seq 1 "$n"); do
		bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
			>"$out/$w-$seed.out" 2>"$out/$w-$seed.err"
		tail -n 1 "$out/$w-$seed.out"
	done
done
