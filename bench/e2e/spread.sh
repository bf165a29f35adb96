#!/usr/bin/env bash
# Measures the run-to-run spread of the end-to-end metrics: runs the
# benchmark N times per workload, with traffic seeds 1..N, interleaving the
# workloads, and prints for each metric its median, quartiles, quartile
# spread and largest deviation, plus the medians of the odd-seed and
# even-seed runs as two interleaved sets. Run it from the repository root:
#
#   bash bench/e2e/spread.sh 10 30                 # all workloads, 30 s runs
#   bash bench/e2e/spread.sh 5 30 catalog-hot      # one workload
#
# Result lines are kept in .bench_build/spread/<workload>-<seed>.json.
set -euo pipefail

n=${1:?usage: bash bench/e2e/spread.sh N [seconds] [workload...]}
seconds=${2:-30}
shift $(( $# < 2 ? $# : 2 ))
if [ $# -eq 0 ]; then
	set -- catalog-hot catalog-cold geo-mixed restart-single
fi
out=.bench_build/spread
mkdir -p "$out"
for seed in $(seq 1 "$n"); do
	for w in "$@"; do
		echo "spread: $w seed $seed" >&2
		bash bench/e2e/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/$w-$seed.log"
		tail -n 1 "$out/$w-$seed.log" >"$out/$w-$seed.json"
	done
done

python3 - "$out" "$n" "$@" <<'EOF'
import json, statistics, sys

out, n, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
for w in workloads:
    runs = [json.load(open(f"{out}/{w}-{s}.json")) for s in range(1, n + 1)]
    print(f"== {w}: {n} runs, {sum(r['failed'] for r in runs)} failed queries")
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>9}{'maxdev':>9}{'odd med':>12}{'even med':>12}{'diff':>8}")
    for name in runs[0]["metrics"]:
        xs = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if n >= 2 else (med, med, med)
        dev = max(abs(x - med) for x in xs)
        odd, even = statistics.median(xs[0::2]), statistics.median(xs[1::2] or xs)
        rel = lambda v: v / med if med else 0.0
        print(f"{name:<18}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{rel(q3 - q1):>9.2%}{rel(dev):>9.2%}"
              f"{odd:>12.5g}{even:>12.5g}{rel(even - odd):>8.2%}")
EOF
