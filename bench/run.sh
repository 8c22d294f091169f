#!/usr/bin/env bash
# Runs every workload R times at one seed and keeps each run's output in
# OUT/<workload>-<i>.out, for `bench -agree`. Workloads are interleaved
# so machine drift during the set touches all of them alike.
#
#   bash bench/run.sh 5 /tmp/setA        # seed 1
#   bash bench/run.sh 5 /tmp/setB 1
#   bash bench/bench.sh -agree /tmp/setA /tmp/setB
set -euo pipefail

if [[ $# -lt 2 ]]; then
	echo "usage: bench/run.sh R OUT [SEED]" >&2
	exit 2
fi
runs=$1 out=$2 seed=${3:-1}
seconds=25 # BENCHMARK.json run_seconds
mkdir -p "$out"
for i in $(seq 1 "$runs"); do
	for w in table3 fig4 fig2 collect-hostile; do
		bash bench/bench.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/$w-$i.out"
		tail -n 1 "$out/$w-$i.out" | cut -c1-120
	done
done
