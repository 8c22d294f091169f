#!/bin/sh
# chaos_resume.sh — kill a checkpointed run mid-flight and prove the
# resumed run is byte-identical to an uninterrupted one.
#
# Usage: scripts/chaos_resume.sh
#
# Flow: run `characterize` supervised (crash-safe checkpoint, hostile
# fault profile) to completion as the reference, then run it again,
# SIGKILL the process mid-sweep, resume from the checkpoint with a
# different worker count, and diff (a) the canonical run manifests and
# (b) the rendered Fig. 2 reports. Any byte of difference fails: the
# round-barrier checkpoint contract promises that a killed-and-resumed
# run measures exactly what an uninterrupted run measures.
set -eu

BIN="${TMPDIR:-/tmp}/amperebleed-chaos.$$"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK" "$BIN"' EXIT

go build -o "$BIN" ./cmd/amperebleed

SEED=7
SAMPLES=20

echo "chaos-resume: reference run (uninterrupted, workers=1)"
"$BIN" -faults hostile -ledger "$WORK/ref.jsonl" \
    characterize -seed "$SEED" -samples "$SAMPLES" -parallel 1 \
    -checkpoint "$WORK/ref.checkpoint.json" > "$WORK/ref.out"

# Kill the same run mid-sweep. The delay ladder adapts to machine
# speed: too early leaves no checkpoint yet, too late lets the run
# finish; both retry with a different delay.
killed=0
for delay in 0.4 0.2 0.6 0.1 0.8; do
    rm -f "$WORK/chaos.checkpoint.json"
    "$BIN" -faults hostile \
        characterize -seed "$SEED" -samples "$SAMPLES" -parallel 4 \
        -checkpoint "$WORK/chaos.checkpoint.json" > /dev/null 2>&1 &
    pid=$!
    sleep "$delay"
    if kill -9 "$pid" 2>/dev/null; then
        wait "$pid" 2>/dev/null || true
        if [ -f "$WORK/chaos.checkpoint.json" ]; then
            echo "chaos-resume: SIGKILL after ${delay}s left a mid-run checkpoint"
            killed=1
            break
        fi
        echo "chaos-resume: killed before the first round barrier (${delay}s); retrying"
    else
        wait "$pid" 2>/dev/null || true
        echo "chaos-resume: run finished before the ${delay}s kill; retrying"
    fi
done
if [ "$killed" -ne 1 ]; then
    echo "FAIL: never captured a mid-run checkpoint; machine too fast/slow for the delay ladder"
    exit 1
fi

echo "chaos-resume: resuming with workers=2"
"$BIN" -ledger "$WORK/chaos.jsonl" \
    resume -parallel 2 "$WORK/chaos.checkpoint.json" \
    > "$WORK/chaos.out" 2> "$WORK/resume.log"
sed 's/^/  /' "$WORK/resume.log"

"$BIN" runs -ledger "$WORK/ref.jsonl" -canonical 0 > "$WORK/ref.canonical.json"
"$BIN" runs -ledger "$WORK/chaos.jsonl" -canonical 0 > "$WORK/chaos.canonical.json"

if ! diff "$WORK/ref.canonical.json" "$WORK/chaos.canonical.json"; then
    echo "FAIL: canonical manifest of the resumed run differs from the uninterrupted run"
    exit 1
fi
if ! diff "$WORK/ref.out" "$WORK/chaos.out"; then
    echo "FAIL: rendered report of the resumed run differs from the uninterrupted run"
    exit 1
fi
echo "ok: killed-and-resumed run is byte-identical to the uninterrupted run"

# Phase 2: load shedding under a sensor that has effectively died.
# At intensity 50 the hostile profile saturates the sysfs error rate;
# the acceptance bar is explicit degradation — the circuit breaker
# opens and sheds, every one of the 4 levels quarantines with a clear
# error after a single attempt (a level is a pure function of its
# seed, so a retry could only fail the same way), and the process
# exits instead of hanging.
echo "chaos-resume: breaker shed smoke (hostile, intensity 50)"
set +e
timeout 120 "$BIN" -obs -faults hostile -fault-intensity 50 \
    characterize -seed 3 -levels 4 -samples 24 \
    -checkpoint "$WORK/shed.checkpoint.json" > "$WORK/shed.out" 2> "$WORK/shed.err"
shed_exit=$?
set -e
if [ "$shed_exit" -eq 124 ]; then
    echo "FAIL: hostile high-intensity run hung instead of degrading"
    exit 1
fi
opens=$(sed -n 's/.*resilience\.breaker\.open_total *\([0-9][0-9]*\).*/\1/p' "$WORK/shed.out" | head -n1)
quarantined=$(sed -n 's/.*jobs\.shards_quarantined *\([0-9][0-9]*\).*/\1/p' "$WORK/shed.out" | head -n1)
shards=$(sed -n 's/.*runner\.shards  *\([0-9][0-9]*\).*/\1/p' "$WORK/shed.out" | head -n1)
if [ -z "$opens" ] || [ "$opens" -eq 0 ]; then
    echo "FAIL: breaker never opened under hostile intensity 50 (open_total=${opens:-missing})"
    exit 1
fi
if [ "${quarantined:-missing}" != 4 ]; then
    echo "FAIL: want all 4 dead-sensor levels quarantined (shards_quarantined=${quarantined:-missing})"
    exit 1
fi
if [ "${shards:-missing}" != 4 ]; then
    echo "FAIL: want each dead level attempted once, 4 shards (runner.shards=${shards:-missing})"
    exit 1
fi
echo "ok: breaker opened ${opens}x and all ${quarantined} levels quarantined after one attempt each (exit ${shed_exit}, no hang)"
