#!/usr/bin/env bash
# bench_pairs.sh — interleaved parent/change timing pairs of one workload
# of the end-to-end benchmark (benchmark/README.md: a gain is claimed only
# from interleaved pairs at defaults).
#
#   scripts/bench_pairs.sh PARENT N WORKLOAD [SEED [METRIC]]
#   make bench-pairs PARENT=<sha> N=10 W=steady_sharded_1350 [SEED=2] [M=allocs_per_msg]
#
# Builds the benchmark twice, from PARENT's committed files (exported with
# git archive into a temporary directory, so nothing is registered in the
# repository) and from the working tree. Then it runs N pairs of untraced
# runs of WORKLOAD at the pinned 20 s window, the parent first in odd
# pairs and the change first in even ones, and prints:
#   - each pair's METRIC (default lat_p50_us) and box probe, both sides;
#   - per end-to-end metric, each side's median and quartiles over its N
#     runs and the pairs the change won, in the direction BENCHMARK.json
#     declares;
#   - box_probe_us the same way: how fast the box itself ran (when it
#     moves, every timing moves with it);
#   - how many runs were correct and how many operations failed.
# Runs' raw output is kept under the temporary directory only while the
# script runs.
set -euo pipefail

cd "$(dirname "$0")/.."
usage="usage: $0 PARENT N WORKLOAD [SEED [METRIC]]"
parent=${1:?$usage}
pairs=${2:?$usage}
workload=${3:?$usage}
seed=${4:-1}
metric=${5:-lat_p50_us}
seconds=20

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "building the benchmark at $parent and from the working tree" >&2
mkdir "$work/src"
git archive "$parent" | tar -x -C "$work/src"
(cd "$work/src" && go build -o "$work/parent" ./benchmark)
go build -o "$work/change" ./benchmark

# record SIDE PAIR: one run, reduced to "side pair metric value" lines.
record() {
    local out="$work/$1.$2.out"
    "$work/$1" -workload "$workload" -seed "$seed" -seconds "$seconds" -trace 0 >"$out"
    awk -v side="$1" -v pair="$2" -v wl="$workload" '
        function median(a, n,   i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
            return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
        }
        $1 == wl && NF == 4 { print side, pair, $2, $3 }
        /^#windows / && match($0, /"box_probe_us":\[[^]]*\]/) {
            s = substr($0, RSTART + 16, RLENGTH - 17)
            n = split(s, v, ",")
            print side, pair, "box_probe_us", median(v, n)
        }
        /^\{/ {
            print side, pair, "correct", ($0 ~ /"correct":true/) ? 1 : 0
            if (match($0, /"failed":[0-9]+/)) print side, pair, "failed", substr($0, RSTART + 9, RLENGTH - 9)
        }' "$out" >>"$work/records"
}

for i in $(seq 1 "$pairs"); do
    order="parent change"
    if (( i % 2 == 0 )); then order="change parent"; fi
    for side in $order; do
        echo "pair $i/$pairs: $side" >&2
        record "$side" "$i"
    done
done

echo "$workload: $pairs interleaved pairs, seed $seed, ${seconds} s windows; parent $(git rev-parse --short "$parent") vs working tree"
awk -v pm="$metric" '
    # Directions of the declared metrics: "better" follows "name" in each entry.
    FNR == NR {
        if (match($0, /"name": *"[^"]*"/)) { s = substr($0, RSTART, RLENGTH); sub(/.*: *"/, "", s); sub(/"$/, "", s); name = s }
        if (match($0, /"better": *"[^"]*"/)) { s = substr($0, RSTART, RLENGTH); sub(/.*: *"/, "", s); sub(/"$/, "", s); better[name] = s }
        next
    }
    {
        val[$1, $2, $3] = $4
        if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 }
        if ($2 > np) np = $2
    }
    function sorted(side, m,   i, j, t, n) {
        n = 0
        for (i = 1; i <= np; i++) if ((side, i, m) in val) q[++n] = val[side, i, m]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && q[j-1] > q[j]; j--) { t = q[j]; q[j] = q[j-1]; q[j-1] = t }
        return n
    }
    # quantile of the sorted q[1..n], linear between order statistics.
    function quant(n, p,   h, lo) {
        if (n == 0) return 0
        h = 1 + (n - 1) * p; lo = int(h)
        return lo >= n ? q[n] : q[lo] + (h - lo) * (q[lo+1] - q[lo])
    }
    function num(v) { return sprintf(v >= 1000 ? "%.0f" : "%.4g", v) }
    function stats(side, m,   n) {
        n = sorted(side, m)
        return num(quant(n, 0.5)) " [" num(quant(n, 0.25)) "-" num(quant(n, 0.75)) "]"
    }
    END {
        printf "\n%-5s %14s %14s %12s %12s\n", "pair", "parent", "change", "parent box", "change box"
        printf "%-5s %29s\n", "", pm
        for (i = 1; i <= np; i++)
            printf "%-5s %14s %14s %12.1f %12.1f\n", i (i % 2 ? "p" : "c"),
                num(val["parent", i, pm]), num(val["change", i, pm]),
                val["parent", i, "box_probe_us"], val["change", i, "box_probe_us"]
        printf "(p: parent ran first, c: change ran first)\n\n"
        printf "%-22s %-28s %-28s %s\n", "metric", "parent median [q1-q3]", "change median [q1-q3]", "change won"
        for (k = 1; k <= nm; k++) {
            m = order[k]
            if (m == "correct" || m == "failed") continue
            won = "-"
            if (m in better) {
                w = 0
                for (i = 1; i <= np; i++) {
                    a = val["parent", i, m]; b = val["change", i, m]
                    if ((better[m] == "lower" && b < a) || (better[m] == "higher" && b > a)) w++
                }
                won = w "/" np
            }
            printf "%-22s %-28s %-28s %s\n", m, stats("parent", m), stats("change", m), won
        }
        for (s = 1; s <= 2; s++) {
            side = s == 1 ? "parent" : "change"
            c = f = 0
            for (i = 1; i <= np; i++) { c += val[side, i, "correct"]; f += val[side, i, "failed"] }
            printf "%s: %d/%d runs correct, %d failed operations\n", side, c, np, f
        }
    }' BENCHMARK.json "$work/records"
