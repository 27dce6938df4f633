#!/usr/bin/env bash
# soak_smoke.sh — session-lifecycle soak of the daemon stack.
#
# Phase 1 boots a self-contained ring under cmd/ringload with churning
# sessions: alongside the steady senders, -churn goroutines cycle
# connect → join → multicast → disconnect for the whole run, hammering
# the daemon's ordered join/leave path and per-session outbox
# setup/teardown. The run must stay ordered (goodput reported) and must
# cycle a minimum number of sessions.
#
# Phase 2 boots a keyed (-ring-key) 2-node ringdaemon pair, waits for
# the token to rotate, then SIGTERMs both and checks that the graceful
# drain path ran before shutdown.
#
# Exits non-zero (and prints the offending output) on any failure.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    for f in "$workdir"/*.log; do
        [ -f "$f" ] || continue
        echo "--- $f ---" >&2
        cat "$f" >&2 || true
    done
    exit 1
}

echo "== building ringload and ringdaemon"
go build -o "$workdir/ringload" ./cmd/ringload
go build -o "$workdir/ringdaemon" ./cmd/ringdaemon

# Phase 1: churn soak. 8 churners per daemon × 2 daemons cycle sessions
# continuously for the whole run; CI machines manage thousands of cycles
# (20k+ locally) in a few seconds. Past ~16 churners per daemon the
# ordered join/leave traffic starves the steady senders entirely, so
# this is deliberately below that cliff.
echo "== churn soak: 2 daemons, 16 churning sessions, 5s"
"$workdir/ringload" -nodes 2 -rate 1000 -payload 64 \
    -warmup 1s -duration 4s -churn 8 >"$workdir/ringload.log" 2>&1 \
    || fail "ringload exited non-zero"
grep -q '^ordered: ' "$workdir/ringload.log" \
    || fail "no ordered-throughput line (steady load starved by churn?)"
cycled=$(awk '/^churn: /{print int($2)}' "$workdir/ringload.log")
[ "${cycled:-0}" -ge 500 ] \
    || fail "only ${cycled:-0} sessions cycled, want >= 500"
echo "   $cycled sessions cycled under steady ordered load"

# Phase 2: keyed ring + graceful drain. Wrong-key peers would be
# isolated (covered by unit tests); here we check the operational path:
# a keyed ring forms, and SIGTERM drains before stopping.
echo "== keyed drain: 2 daemons with -ring-key, SIGTERM after token rotates"
peers="1=127.0.0.1:5201,2=127.0.0.1:5202"
obs_ports=(6881 6882)
for i in 1 2; do
    "$workdir/ringdaemon" \
        -id "$i" \
        -data "127.0.0.1:520$i" \
        -client "127.0.0.1:490$i" \
        -peers "$peers" \
        -ring-key soak-secret \
        -drain-timeout 3s \
        -obs "127.0.0.1:${obs_ports[$((i-1))]}" \
        >"$workdir/daemon$i.log" 2>&1 &
    pids+=($!)
done

rotating=false
for _ in $(seq 120); do
    r=$(curl -fsS --max-time 2 "http://127.0.0.1:${obs_ports[0]}/metrics" 2>/dev/null |
        awk '/^accelring_ring_rounds /{print int($2)}' || true)
    if [ "${r:-0}" -gt 0 ]; then
        rotating=true
        break
    fi
    sleep 0.25
done
$rotating || fail "keyed ring never rotated the token"
echo "   keyed ring formed and token rotating"

for pid in "${pids[@]}"; do kill -TERM "$pid" 2>/dev/null || true; done
for pid in "${pids[@]}"; do wait "$pid" 2>/dev/null || true; done
pids=()
for i in 1 2; do
    grep -q 'draining (budget' "$workdir/daemon$i.log" \
        || fail "daemon $i skipped the drain path"
    grep -q 'shutting down' "$workdir/daemon$i.log" \
        || fail "daemon $i never reached clean shutdown"
done
echo "   both daemons drained gracefully on SIGTERM"

echo "OK: soak smoke passed"
