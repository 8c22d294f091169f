#!/usr/bin/env bash
# Builds the benchmark from source and runs it once. Run it from the
# repository root; every build and cache file stays in .bench_build/.
#
#   bash bench/bench.sh --workload table3 --seed 1 --seconds 25 --trace 0
#   bash bench/bench.sh -agree SET_A SET_B
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "bench.sh: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# Offline and self-contained: no module downloads, no toolchain switch,
# no user go env file.
export GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
