#!/usr/bin/env bash
# obs_smoke.sh — end-to-end smoke test of the observability stack.
#
# Builds ringdaemon, brings up a live 3-node ring with -obs and
# -trace-sample, then curls the debug endpoints of every node and
# validates what comes back:
#   /metrics        valid Prometheus exposition, accelring_* names only
#   /debug/health   JSON array with one healthy status per ring
#   /debug/ring     round traces derived from the flight recorder, per ring
#   /debug/msgtrace JSON (message tracing enabled end to end)
#   /debug/flight   JSONL black-box dump
#
# A second phase brings up a 2-node x 2-shard cluster with -slo-p99,
# pushes real client traffic through it with ringload, and validates the
# latency-attribution stack:
#   /debug/ring     one "daemonN.shardR" key per ring of the shared recorder
#   /debug/latency  per-ring stage digests with folded spans
#   /metrics        accelring_latency_* and accelring_slo_* families
#   ringtop -once   renders one console snapshot across both nodes
#
# Exits non-zero (and prints the offending body) on any failure.
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

echo "== building ringdaemon, ringload, ringtop"
go build -o "$workdir/ringdaemon" ./cmd/ringdaemon
go build -o "$workdir/ringload" ./cmd/ringload
go build -o "$workdir/ringtop" ./cmd/ringtop

peers="1=127.0.0.1:5101,2=127.0.0.1:5102,3=127.0.0.1:5103"
obs_ports=(6871 6872 6873)

echo "== starting 3 daemons"
for i in 1 2 3; do
    "$workdir/ringdaemon" \
        -id "$i" \
        -data "127.0.0.1:510$i" \
        -client "127.0.0.1:480$i" \
        -peers "$peers" \
        -obs "127.0.0.1:${obs_ports[$((i-1))]}" \
        -trace-sample 1 \
        >"$workdir/daemon$i.log" 2>&1 &
    pids+=($!)
done

fetch() { # fetch URL [retries]
    local url=$1 tries=${2:-40}
    for _ in $(seq "$tries"); do
        if curl -fsS --max-time 2 "$url" 2>/dev/null; then return 0; fi
        sleep 0.25
    done
    echo "FAIL: $url never answered" >&2
    return 1
}

# ring_keys prints the /debug/ring keys (one per ring) that hold at least
# one round, after checking every round's sent_seq >= recv_seq; a round
# that breaks it is printed as BAD:<key>.
ring_keys() { # ring_keys BODY
    echo "$1" | awk '
        /^  "[^"]+": \[/ { key = $1; gsub(/[":]/, "", key) }
        /"recv_seq":/    { recv = $2 + 0 }
        /"sent_seq":/    { if ($2 + 0 >= recv) ok[key] = 1; else print "BAD:" key }
        END              { for (k in ok) print k }' | sort
}

fail() {
    echo "FAIL: $*" >&2
    for i in 1 2 3; do
        echo "--- daemon$i.log ---" >&2
        cat "$workdir/daemon$i.log" >&2 || true
    done
    exit 1
}

echo "== waiting for the ring to form on every node"
rounds=0
for _ in $(seq 120); do
    rotating=0
    for port in "${obs_ports[@]}"; do
        r=$(fetch "http://127.0.0.1:$port/metrics" 4 | awk '/^accelring_ring_rounds /{print int($2)}')
        [ "${r:-0}" -gt 0 ] && rotating=$((rotating + 1))
    done
    if [ "$rotating" -eq 3 ]; then
        rounds=$r
        break
    fi
    sleep 0.25
done
[ "$rounds" -gt 0 ] || fail "token never rotated on all nodes"
echo "   token rotating on all 3 nodes ($rounds rounds at node 3)"

echo "== validating /metrics on every node"
for port in "${obs_ports[@]}"; do
    metrics=$(fetch "http://127.0.0.1:$port/metrics")
    grep -q '^# TYPE accelring_ring_rounds counter$' <<<"$metrics" \
        || fail "node :$port missing TYPE line for accelring_ring_rounds"
    grep -q '^accelring_transport_udp_tx_token_frames ' <<<"$metrics" \
        || fail "node :$port missing transport counters"
    grep -q '_bucket{le="+Inf"} ' <<<"$metrics" \
        || fail "node :$port missing histogram buckets"
    # Every sample line must carry the stable accelring_ prefix and
    # lowercase snake-case name.
    bad=$(echo "$metrics" | grep -v '^#' | grep -Ev '^accelring_[a-z0-9_]+(\{[^}]*\})? ' || true)
    [ -z "$bad" ] || fail "node :$port bad series names:
$bad"
done
echo "   exposition valid on all 3 nodes"

echo "== validating /debug/health"
for port in "${obs_ports[@]}"; do
    health=$(fetch "http://127.0.0.1:$port/debug/health")
    grep -Eq '"token_stall": *false' <<<"$health" \
        || fail "node :$port unhealthy: $health"
done
echo "   all nodes healthy"

echo "== validating /debug/ring"
for i in 1 2 3; do
    ring=$(fetch "http://127.0.0.1:${obs_ports[$((i-1))]}/debug/ring?n=8")
    keys=$(ring_keys "$ring")
    [ "$keys" = "daemon$i" ] || fail "node $i /debug/ring rings = '$keys', want 'daemon$i': ${ring:0:400}"
done
echo "   every node renders consistent rounds for its ring"

echo "== validating /debug/msgtrace and /debug/flight"
trace=$(fetch "http://127.0.0.1:${obs_ports[0]}/debug/msgtrace")
[ "${trace:0:1}" = "{" ] || fail "msgtrace not JSON: ${trace:0:200}"
# grep -q would SIGPIPE the upstream echo under pipefail on a large
# body, so these are plain substring checks.
flight=$(fetch "http://127.0.0.1:${obs_ports[0]}/debug/flight")
[ "${flight:0:1}" = "{" ] || fail "flight not JSONL: ${flight:0:200}"
case "$flight" in
*'"kind":"token_rx"'*) ;;
*) fail "flight has no token events" ;;
esac

echo "== phase 2: 2-node x 2-shard cluster with latency attribution + SLO"
shard_obs=(6874 6875)
shard_peers="1=127.0.0.1:5211,2=127.0.0.1:5212"
for i in 1 2; do
    "$workdir/ringdaemon" \
        -id "$i" \
        -data "127.0.0.1:521$i" \
        -client "127.0.0.1:481$i" \
        -peers "$shard_peers" \
        -shards 2 -shard-stride 10 \
        -obs "127.0.0.1:${shard_obs[$((i-1))]}" \
        -trace-sample 1 \
        -slo-p99 250ms \
        >"$workdir/sharded$i.log" 2>&1 &
    pids+=($!)
done

fail2() {
    echo "FAIL: $*" >&2
    for i in 1 2; do
        echo "--- sharded$i.log ---" >&2
        cat "$workdir/sharded$i.log" >&2 || true
    done
    exit 1
}

echo "== waiting for both rings to rotate on both nodes"
formed=0
for _ in $(seq 120); do
    rotating=0
    for port in "${shard_obs[@]}"; do
        m=$(fetch "http://127.0.0.1:$port/metrics" 4)
        r0=$(echo "$m" | awk '/^accelring_ring_rounds\{ring="0"\} /{print int($2)}')
        r1=$(echo "$m" | awk '/^accelring_ring_rounds\{ring="1"\} /{print int($2)}')
        [ "${r0:-0}" -gt 0 ] && [ "${r1:-0}" -gt 0 ] && rotating=$((rotating + 1))
    done
    if [ "$rotating" -eq 2 ]; then
        formed=1
        break
    fi
    sleep 0.25
done
[ "$formed" -eq 1 ] || fail2 "sharded rings never rotated on both nodes"
echo "   both rings rotating on both nodes"

echo "== validating /debug/ring on the sharded nodes"
for i in 1 2; do
    ring=$(fetch "http://127.0.0.1:${shard_obs[$((i-1))]}/debug/ring?n=8")
    keys=$(ring_keys "$ring" | tr '\n' ' ')
    [ "$keys" = "daemon$i.shard0 daemon$i.shard1 " ] \
        || fail2 "node $i /debug/ring rings = '$keys', want both shards: ${ring:0:400}"
done
echo "   both rings of both nodes render consistent rounds"

echo "== pushing client traffic through the sharded cluster"
"$workdir/ringload" -daemons 127.0.0.1:4811,127.0.0.1:4812 \
    -rate 200 -payload 64 -warmup 500ms -duration 2s \
    >"$workdir/ringload.log" 2>&1 || fail2 "ringload failed: $(cat "$workdir/ringload.log")"

echo "== validating /debug/latency"
spans=0
for _ in $(seq 40); do
    lat=$(fetch "http://127.0.0.1:${shard_obs[0]}/debug/latency")
    case "$lat" in
    *'"spans_folded"'*)
        s=$(echo "$lat" | grep -o '"spans_folded": *[0-9]*' | grep -o '[0-9]*' | sort -n | tail -1)
        if [ "${s:-0}" -gt 0 ]; then
            spans=$s
            break
        fi
        ;;
    esac
    sleep 0.25
done
[ "${lat:0:1}" = "[" ] && [ "${#lat}" -gt 2 ] || fail2 "/debug/latency is not non-empty JSON: '${lat:0:200}'"
[ "$spans" -gt 0 ] || fail2 "no spans folded at /debug/latency: $lat"
case "$lat" in
*'"scope":"shard0"'* | *'"scope": "shard0"'*) ;;
*) fail2 "latency digest has no shard0 scope: $lat" ;;
esac
case "$lat" in
*'"stages"'*) ;;
*) fail2 "latency digest has no stage map: $lat" ;;
esac
echo "   $spans spans folded with per-stage digests"

echo "== validating SLO families and health verdicts"
slo_ok=0
for _ in $(seq 40); do
    m=$(fetch "http://127.0.0.1:${shard_obs[0]}/metrics")
    if grep -q '^accelring_slo_p99_burn_ppm{ring="0"} ' <<<"$m" &&
        grep -q '^accelring_latency_e2e_ns_count{ring="0"} ' <<<"$m"; then
        slo_ok=1
        break
    fi
    sleep 0.25
done
[ "$slo_ok" -eq 1 ] || fail2 "SLO/latency families missing from /metrics"
health=$(fetch "http://127.0.0.1:${shard_obs[0]}/debug/health")
case "$health" in
*'"slo_burn"'*) ;;
*) fail2 "health verdicts carry no slo_burn flag: $health" ;;
esac
echo "   slo burn gauges exported, health carries slo_burn"

echo "== validating ringtop -once"
top=$("$workdir/ringtop" -once -nodes "127.0.0.1:${shard_obs[0]},127.0.0.1:${shard_obs[1]}")
case "$top" in
*UNREACHABLE*) fail2 "ringtop saw an unreachable node:
$top" ;;
esac
case "$top" in
*shard0*) ;;
*) fail2 "ringtop did not render per-ring rows:
$top" ;;
esac
echo "   ringtop rendered both nodes"

echo "OK: observability smoke passed"
