#!/bin/sh
# telemetry_smoke.sh — end-to-end smoke test of the live telemetry
# stack: start an amperebleed run serving -obs-addr, then verify that
#
#   * /healthz answers (and reaches "ok" or a diagnosed verdict), and
#     /healthz?verbose=1 returns the per-rule verdict JSON,
#   * /metrics is a valid OpenMetrics exposition (checked with the
#     in-repo parser via cmd/metricscheck) carrying the core families,
#   * /metrics/snapshot returns the JSON snapshot `top` polls,
#   * `amperebleed top -once -addr` renders all five panels from the
#     live server,
#   * a plain `amperebleed top -once` demo run renders all five panels.
#
# Everything binds to a loopback port picked by the kernel.
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== build =="
go build -o "$TMP/amperebleed" ./cmd/amperebleed
go build -o "$TMP/metricscheck" ./cmd/metricscheck

echo "== start server (covert run under the hostile fault profile) =="
"$TMP/amperebleed" -obs-addr 127.0.0.1:0 -obs-hold 60s -faults hostile \
    covert -bits 64 >"$TMP/run.log" 2>"$TMP/run.err" &
SERVER_PID=$!

# The bound address is announced on stderr as "obs: serving http://ADDR/...".
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|^obs: serving http://\([^/]*\)/.*|\1|p' "$TMP/run.err" | head -n1)
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || {
        echo "FAIL: server exited before binding"; cat "$TMP/run.err"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: no bound address announced"; cat "$TMP/run.err"; exit 1; }
echo "server at $ADDR"

echo "== /healthz =="
HEALTH=$(curl -fsS "http://$ADDR/healthz")
echo "$HEALTH"

echo "== /healthz?verbose=1 (per-rule verdicts) =="
curl -fsS "http://$ADDR/healthz?verbose=1" >"$TMP/healthz.json" || true
grep -q '"verdicts"' "$TMP/healthz.json" \
    || { echo "FAIL: verbose healthz lacks verdicts"; cat "$TMP/healthz.json"; exit 1; }

echo "== /metrics (validated with the in-repo parser) =="
curl -fsS "http://$ADDR/metrics" >"$TMP/metrics.txt"
"$TMP/metricscheck" -require sim_ticks,core_sampler_samples,covert_ber "$TMP/metrics.txt"

echo "== /metrics/snapshot cross-check =="
curl -fsS "http://$ADDR/metrics/snapshot" | grep -q '"counters"' \
    || { echo "FAIL: snapshot endpoint lacks counters"; exit 1; }

echo "== top -once against the live server =="
"$TMP/amperebleed" top -once -addr "$ADDR" >"$TMP/top-remote.txt"
for panel in sampling leakage covert faults shards; do
    grep -q "$panel" "$TMP/top-remote.txt" \
        || { echo "FAIL: remote top frame lacks the $panel panel"; cat "$TMP/top-remote.txt"; exit 1; }
done

kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true

echo "== top -once in-process demo =="
"$TMP/amperebleed" -faults hostile top -once >"$TMP/top-demo.txt"
for panel in sampling leakage covert faults shards; do
    grep -q "$panel" "$TMP/top-demo.txt" \
        || { echo "FAIL: demo top frame lacks the $panel panel"; cat "$TMP/top-demo.txt"; exit 1; }
done

echo "telemetry smoke: all checks passed"
