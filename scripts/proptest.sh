#!/bin/sh
# proptest.sh — run every property suite (TestProp*) at a chosen
# iteration count and seed.
#
# Usage: scripts/proptest.sh [iters] [seed]
#
# CI calls this with a small bounded count and the fixed default seed
# so the suites are deterministic and fast; a nightly job (or a local
# soak before a risky change) raises the count:
#
#   scripts/proptest.sh 5000            # 5000 iterations, default seed
#   scripts/proptest.sh 5000 $(date +%s)  # fresh seed per night
#
# A falsified property prints a replay line with the exact seed; paste
# it into `go test` from the failing package to reproduce the
# byte-identical shrunk counterexample (see README, "Replaying a
# counterexample").
set -eu

ITERS="${1:-100}"
SEED="${2:-728813}" # check.DefaultSeed (0xB1EED)

# Every package that contains a TestProp* suite. internal/check's own
# self-tests run too: they pin shrink determinism and seed derivation.
PACKAGES="./internal/check ./internal/sim ./internal/stats ./internal/trace ./internal/leakage ./internal/core ./internal/runner ./internal/obs/ledger ./internal/ml/rforest"

status=0
for pkg in $PACKAGES; do
    if go test -count=1 -run '^TestProp|^TestMutant' "$pkg" \
        -args -check.seed="$SEED" -check.iters="$ITERS"; then
        :
    else
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "FAIL: property suites falsified at seed=$SEED iters=$ITERS" >&2
fi
exit $status
