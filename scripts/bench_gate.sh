#!/usr/bin/env bash
# bench_gate.sh — the count gate: a short traced pass of every
# BENCHMARK.json workload, checked on rows that do not depend on the
# box's speed.
#
#   scripts/bench_gate.sh           check against results/BENCH_quick.json
#   scripts/bench_gate.sh record    check, then rewrite that baseline
#   make bench-gate
#
# Each workload runs as `benchmark -workload W -seconds 2 -trace 1` (about
# 10 s) from one build of the working tree: a 2 s window and the full
# ladder. The ladder's allocation rungs count the whole process's
# allocations over their messages, and a garbage collection costs a few
# hundred (the sync.Pools refill); over -quick's 1/20 of a rung that
# swung daemon.delivered_msg_allocs by up to 20 % between runs of one
# tree, over the full rung by under 1 %. Its final JSON line must show:
#   - correct, and 0 failed operations;
#   - membership.installs = 1 and membership.token_retransmits_per_s = 0;
#   - core.retrans_per_kmsg < 10, core.rtr_requested_per_kmsg < 10 and
#     core.data_dropped_per_kmsg = 0: the loss signals. A lost datagram
#     shows as requests and retransmissions; with data leaving as
#     segmented runs one lost datagram is a whole run, and a duplicate or
#     foreign frame shows as dropped data;
#   - ringnode.ordered_msg_allocs, daemon.delivered_msg_allocs,
#     runtime.alloc_bytes_per_msg and daemon.fanout_encodes_per_msg at
#     most 10 % above the baseline's line for the same workload;
#   - on the saturate_* workloads, transport.tx_syscalls_per_msg,
#     transport.rx_syscalls_per_msg and daemon.writer_flushes_per_frame
#     too. A saturated ring's bursts are full, and over 15 runs of one
#     tree these spread by under 5 %. An open-loop steady row sends, reads
#     and flushes at whatever burst the moment brings, and the same runs
#     spread by 14-31 % there.
# The baseline holds each workload's final JSON line, one per line. When a
# check fails, every FAIL row is printed again at the end (workload, row,
# value, bound) and the script exits non-zero.
set -euo pipefail

cd "$(dirname "$0")/.."
baseline=results/BENCH_quick.json
mode=${1:-check}
case $mode in check | record) ;; *)
    echo "usage: $0 [record]" >&2
    exit 2
    ;;
esac

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/benchmark" ./benchmark

workloads=$(awk '/"workloads"/ { in_w = 1 } in_w && /^ *\]/ { exit }
    in_w && match($0, /"name": *"[^"]*"/) { s = substr($0, RSTART, RLENGTH); sub(/.*: *"/, "", s); sub(/"$/, "", s); print s }' BENCHMARK.json)

status=0
for w in $workloads; do
    echo "running $w" >&2
    if ! "$work/benchmark" -workload "$w" -seconds 2 -trace 1 >"$work/$w.out"; then
        echo "$w: the benchmark exited non-zero" | tee -a "$work/fails" >&2
        status=1
    fi
    grep '^{' "$work/$w.out" | tail -n 1 >"$work/$w.json" || true
    if [[ ! -s $work/$w.json ]]; then
        echo "$w: no result line" | tee -a "$work/fails" >&2
        status=1
        continue
    fi
    base=""
    if [[ -f $baseline ]]; then
        base=$(awk -v w="\"$w\": " 'index($0, w) == 1 { print substr($0, length(w) + 1) }' "$baseline" | sed 's/,$//')
    fi
    if [[ $mode == check && -z $base ]]; then
        echo "$w: no baseline line in $baseline" | tee -a "$work/fails" >&2
        status=1
        continue
    fi
    awk -v wl="$w" -v base="$base" -v mode="$mode" -v fails="$work/fails" '
        function val(line, name,   s) {
            if (!match(line, "\"" name "\":\\{\"value\":[^,}]*")) return ""
            s = substr(line, RSTART, RLENGTH); sub(/.*:/, "", s)
            return s + 0
        }
        function row(name, got, bound, ok,   line) {
            line = sprintf("%-22s %-34s %12s  %-14s %s", wl, name, got, bound, ok ? "ok" : "FAIL")
            print line
            if (!ok) { bad = 1; print line >>fails }
        }
        {
            row("correct", ($0 ~ /"correct":true/) ? "true" : "false", "true", $0 ~ /"correct":true/)
            f = match($0, /"failed":[0-9]+/) ? substr($0, RSTART + 9, RLENGTH - 9) + 0 : -1
            row("failed", f, "= 0", f == 0)
            v = val($0, "membership.installs");                row("membership.installs", v, "= 1", v == 1)
            v = val($0, "membership.token_retransmits_per_s"); row("membership.token_retransmits_per_s", v, "= 0", v == 0)
            v = val($0, "core.retrans_per_kmsg");              row("core.retrans_per_kmsg", v, "< 10", v != "" && v < 10)
            v = val($0, "core.rtr_requested_per_kmsg");        row("core.rtr_requested_per_kmsg", v, "< 10", v != "" && v < 10)
            v = val($0, "core.data_dropped_per_kmsg");         row("core.data_dropped_per_kmsg", v, "= 0", v != "" && v == 0)
            rows = "ringnode.ordered_msg_allocs daemon.delivered_msg_allocs runtime.alloc_bytes_per_msg daemon.fanout_encodes_per_msg"
            if (wl ~ /^saturate_/) rows = rows " transport.tx_syscalls_per_msg transport.rx_syscalls_per_msg daemon.writer_flushes_per_frame"
            n = split(rows, ladder, " ")
            for (i = 1; i <= n; i++) {
                v = val($0, ladder[i])
                if (mode == "record") { row(ladder[i], v, "recorded", v != ""); continue }
                b = val(base, ladder[i])
                row(ladder[i], v, sprintf("<= %.4g", 1.1 * b), v != "" && b != "" && v <= 1.1 * b)
            }
        }
        END { exit bad }' "$work/$w.json" || status=1
done

if [[ -s $work/fails ]]; then
    echo "bench-gate failed:" >&2
    cat "$work/fails" >&2
fi

if [[ $mode == record ]]; then
    if ((status != 0)); then
        echo "not recording: the run failed the gate" >&2
        exit 1
    fi
    {
        echo "{"
        sep=","
        set -- $workloads
        for w; do
            [[ $w == "${!#}" ]] && sep=""
            printf '"%s": %s%s\n' "$w" "$(cat "$work/$w.json")" "$sep"
        done
        echo "}"
    } >"$baseline"
    echo "recorded $baseline" >&2
fi
exit $status
