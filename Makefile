GO ?= go

.PHONY: ci vet build test race race-full loc bench-e2e bench-e2e-quick bench-smoke bench-baseline bench-wire bench-wire-smoke bench-fanout bench-fanout-smoke bench-xring bench-xring-smoke chaos chaos-xring obs-smoke soak-smoke

ci: vet build test race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The transports, the fault injector, the sharding layer (N protocol
# goroutines per node), the ordered-group core they all feed, the
# daemon's client layer (a reader and a writer goroutine per session
# around one send window) and the recorder every one of them writes into
# are the concurrency hot spots; keep them under the race detector even
# when the full -race run is too slow for the inner loop.
race:
	$(GO) test -race ./internal/transport/... ./internal/faults/... ./internal/shard/... ./internal/groupcore/... ./internal/daemon/... ./internal/obs/...

# The full suite under the race detector (CI runs this as its own job).
race-full:
	$(GO) test -race ./...

# Non-test Go lines per package (the benchmark excluded), then the total:
# the size figure simplification PRs report before and after.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' \
	  | xargs wc -l | awk '$$2 == "total" { total = $$1; next } \
	    { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1 } \
	    END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", total }'

# The end-to-end benchmark of the real stack declared in BENCHMARK.json
# (see benchmark/README.md): the full run, and the short one CI uses.
bench-e2e:
	$(GO) run ./benchmark

bench-e2e-quick:
	$(GO) run ./benchmark -quick

# One-iteration benchmark pass over two figures and the core engine, as a
# cheap regression tripwire (CI runs this as its own job).
bench-smoke:
	$(GO) test -run '^$$' -bench 'Fig0[13]' -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 100x ./internal/core

# Allocation/throughput baseline: core-engine + wire microbenchmarks plus
# the Fig01/Fig03 end-to-end simulations, all with -benchmem, written as
# JSON to results/BENCH_core.json (raw text kept alongside). Commit the
# JSON when the hot path changes so regressions show up in review.
bench-baseline:
	mkdir -p results
	{ $(GO) test -run '^$$' -bench . -benchmem ./internal/core ./internal/wire ; \
	  $(GO) test -run '^$$' -bench 'Fig0[13]' -benchtime 1x -benchmem . ; } \
	  | tee results/BENCH_core.txt | $(GO) run ./cmd/benchjson > results/BENCH_core.json

# Wire-path baseline: loopback UDP syscalls-per-frame (bare vs batched
# vs multicast sendmmsg/recvmmsg) plus simulated-ring ordered throughput
# bare vs packed, recorded in results/BENCH_wire.json (+ raw text).
# Commit the JSON when the wire path changes; the multicast rows skip
# silently where the environment cannot route group traffic on loopback.
bench-wire:
	mkdir -p results
	{ $(GO) test -run '^$$' -bench 'Wire' -benchtime 20000x -benchmem ./internal/transport ; \
	  $(GO) test -run '^$$' -bench 'WireRing' -benchtime 30000x -benchmem ./internal/ringnode ; } \
	  | tee results/BENCH_wire.txt | $(GO) run ./cmd/benchjson > results/BENCH_wire.json

# Quick variant for CI: one pass, throwaway output.
bench-wire-smoke:
	$(GO) test -run '^$$' -bench 'Wire' -benchtime 1000x ./internal/transport
	$(GO) test -run '^$$' -bench 'WireRing' -benchtime 2000x ./internal/ringnode

# Client fan-out figure: 1 publisher frame delivered to 16/64 subscriber
# sessions over TCP loopback through the production outbox and writer
# (encode-once shared bodies, batched vectored writes). Records frames/s,
# write syscalls/frame, and allocs/op in results/BENCH_fanout.json (+ raw
# text). Commit the JSON when the daemon client layer changes.
bench-fanout:
	mkdir -p results
	$(GO) test -run '^$$' -bench 'Fanout' -benchtime 20000x -benchmem ./internal/daemon \
	  | tee results/BENCH_fanout.txt | $(GO) run ./cmd/benchjson > results/BENCH_fanout.json

# Quick variant for CI: one short pass, throwaway output.
bench-fanout-smoke:
	$(GO) test -run '^$$' -bench 'Fanout' -benchtime 500x ./internal/daemon

# Cross-ring merge figure: end-to-end client delivery through real
# daemons — single-ring split baseline (the PR 4 shape) vs the 2-shard
# merged path (merge overhead is the per-message delta), plus the live
# migration blackout window (ns/op of one Migrate round trip with
# traffic in flight). Recorded in results/BENCH_xring.json (+ raw text).
# Commit the JSON when the merge or migration path changes.
bench-xring:
	mkdir -p results
	{ $(GO) test -run '^$$' -bench 'XRing(Split|Merged)Delivery' -benchtime 20000x -benchmem ./internal/daemon ; \
	  $(GO) test -run '^$$' -bench 'XRingMigrationBlackout' -benchtime 200x -benchmem ./internal/daemon ; } \
	  | tee results/BENCH_xring.txt | $(GO) run ./cmd/benchjson > results/BENCH_xring.json

# Quick variant for CI: short passes, throwaway output.
bench-xring-smoke:
	$(GO) test -run '^$$' -bench 'XRing(Split|Merged)Delivery' -benchtime 1000x ./internal/daemon
	$(GO) test -run '^$$' -bench 'XRingMigrationBlackout' -benchtime 20x ./internal/daemon

# Replay one chaos seed: make chaos FAULTS_SEED=17
chaos:
	$(GO) test -v -run TestChaosRandomPlans ./internal/faults/chaos/

# Replay one cross-ring merge+migration chaos seed:
# make chaos-xring FAULTS_SEED=17
chaos-xring:
	$(GO) test -v -run TestXRingChaos ./internal/faults/chaos/

# End-to-end observability smoke: live 3-node ring, curl /metrics,
# /debug/health, /debug/msgtrace, /debug/flight and validate the output.
obs-smoke:
	./scripts/obs_smoke.sh

# Session-lifecycle soak: thousands of churning client sessions under
# steady ordered load, then a keyed (-ring-key) ring drained via SIGTERM.
soak-smoke:
	./scripts/soak_smoke.sh
