#!/bin/sh
# check_coverage.sh — gate per-package statement coverage.
#
# Usage: scripts/check_coverage.sh [threshold-percent] [package ...]
#
# Runs `go test -cover` on each package and fails when any of them
# reports total statement coverage below the threshold (default 60%).
# The default package list is the one CI gates; pass packages to check
# others.
set -eu

THRESHOLD="${1:-60}"
if [ "$#" -gt 1 ]; then
    shift
    PACKAGES="$*"
else
    PACKAGES="./internal/runner ./internal/core ./internal/sim ./internal/faults ./internal/trace ./internal/obs ./internal/obs/ledger ./internal/obs/export ./internal/check ./internal/jobs ./internal/ml/rforest ./internal/dpu ./internal/ina226 ./internal/board ./internal/power ./internal/hwmon"
fi

status=0
for pkg in $PACKAGES; do
    out=$(go test -cover -coverprofile=/dev/null "$pkg" 2>&1) || {
        echo "$out"
        echo "FAIL: tests failed in $pkg"
        status=1
        continue
    }
    pct=$(printf '%s\n' "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p' | head -n1)
    if [ -z "$pct" ]; then
        echo "FAIL: could not parse coverage for $pkg:"
        printf '%s\n' "$out"
        status=1
        continue
    fi
    ok=$(awk -v p="$pct" -v t="$THRESHOLD" 'BEGIN { print (p >= t) ? 1 : 0 }')
    if [ "$ok" -eq 1 ]; then
        echo "ok   $pkg  ${pct}% >= ${THRESHOLD}%"
    else
        echo "FAIL $pkg  ${pct}% < ${THRESHOLD}%"
        status=1
    fi
done
exit $status
