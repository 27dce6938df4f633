GO ?= go

.PHONY: ci vet vet-cross build test race race-full poison loc bench-e2e bench-e2e-quick bench-record bench-gate bench-pairs bench-smoke chaos chaos-xring chaos-sweep obs-smoke soak-smoke examples-smoke

ci: vet build test race

# go vet, then the format gate: any file gofmt would change fails it.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
	  echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# go vet on two targets that build the portable files (the recvmmsg
# reader is linux/amd64 and linux/arm64 only), so they keep compiling.
vet-cross:
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...
	GOOS=linux GOARCH=386 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The transports, the fault injector, the protocol step and its two hosts
# (the real-time goroutine, whose submission queue any goroutine feeds,
# and the simulator), the cross-ring merge, the ordered-group core and its
# host (N protocol goroutines that submit to one another's queues at
# emission points), the library facade (application
# goroutines submitting into queues the ring goroutines drain), the
# daemon's client layer (a reader and a writer goroutine per session
# around one send window), the state the delivery path reuses between
# messages (the group table's cached delivery sets, each connection
# reader's interned names and scratch, the client's delivery slabs) and
# the recorder every one of them writes into are the concurrency hot
# spots; keep them under the race detector even when the full -race run
# is too slow for the inner loop.
RACE_PKGS = . ./internal/transport/... ./internal/faults/... ./internal/ringnode/... ./internal/simproc/... ./internal/shard/... ./internal/groupcore/... ./internal/daemon/... ./internal/group/... ./internal/session/... ./internal/client/... ./internal/obs/...
race:
	$(GO) test -race $(RACE_PKGS)

# The same packages, the pool's own tests and the benchmark with the pool
# poisoning what it takes back (bufpool's poison build tag): a buffer
# written after bufpool.Put panics at its next Get, and one read after Put
# reads the pattern, so a frame recycled while something still reads its
# payload fails a test.
poison:
	$(GO) test -tags poison $(RACE_PKGS) ./internal/bufpool/ ./benchmark

# The full suite under the race detector (CI runs this as its own job).
# The benchmark's quick pass drives real daemons against wall-clock
# deadlines; beside every other package under -race it starves and its
# subscribers see Throttled notices, so it runs alone, after the rest.
race-full:
	$(GO) test -race $$($(GO) list ./... | grep -v '^accelring/benchmark$$')
	$(GO) test -race ./benchmark

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

# The committed perf trajectory: the full run (every workload, its
# untraced and its traced pass) copied from the ignored
# benchmark/results/latest.json to results/BENCH_e2e.json. A change that
# moves a row records it in the same commit.
bench-record:
	$(GO) run ./benchmark
	cp benchmark/results/latest.json results/BENCH_e2e.json

# The count gate (scripts/bench_gate.sh): a short traced pass of every
# workload, checked on rows that do not depend on the box's speed
# (correctness, one ring install, no token or data retransmission, the
# ringnode and daemon ladder allocations, the bytes allocated and the
# fan-out encodes per delivered message, and on the saturate rows the
# syscalls per message and the writer flushes per frame, within 10 % of
# results/BENCH_quick.json).
# `scripts/bench_gate.sh record` rewrites that baseline from a passing run.
bench-gate:
	./scripts/bench_gate.sh

# Interleaved timing pairs of one workload, a parent commit against the
# working tree, at the pinned 20 s windows (scripts/bench_pairs.sh):
# make bench-pairs PARENT=<sha> N=10 W=steady_sharded_1350 [SEED=2] [M=allocs_per_msg]
# N defaults to 10 here, whatever chaos-sweep's default; M names the
# metric printed pair by pair (default lat_p50_us).
SEED ?= 1
M ?= lat_p50_us
bench-pairs:
	./scripts/bench_pairs.sh $(PARENT) $(if $(filter command line,$(origin N)),$(N),10) $(W) $(SEED) $(M)

# Two paper figures in quick mode through the one figure entry point, and
# one pass over the core engine's benchmarks, as a cheap regression
# tripwire (CI runs this as its own job). The gated numbers are the
# per-layer ladder rungs of `go run ./benchmark` (benchmark/README.md) and
# the AllocsPerRun tests; the other Benchmark* functions are developer
# tools.
bench-smoke:
	$(GO) run ./cmd/ringbench -quick -figure fig1 -out $$(mktemp -d)
	$(GO) run ./cmd/ringbench -quick -figure fig3 -out $$(mktemp -d)
	$(GO) test -run '^$$' -bench . -benchtime 100x ./internal/core

# Replay one chaos seed: make chaos FAULTS_SEED=17
chaos:
	$(GO) test -v -run TestChaosRandomPlans ./internal/faults/chaos/

# Replay one cross-ring merge+migration chaos seed:
# make chaos-xring FAULTS_SEED=17
chaos-xring:
	$(GO) test -v -run TestXRingChaos ./internal/faults/chaos/

# Deep sweep of both seeded harnesses over seeds 1..N:
# make chaos-sweep N=200
N ?= 200
chaos-sweep:
	FAULTS_SEED=$$(seq -s, 1 $(N)) $(GO) test -count=1 -timeout 1800s \
	  -run 'TestChaosRandomPlans|TestXRingChaosGlobalOrder' ./internal/faults/chaos/

# End-to-end observability smoke: live 3-node ring, curl /metrics,
# /debug/health, /debug/msgtrace, /debug/flight and validate the output.
obs-smoke:
	./scripts/obs_smoke.sh

# Session-lifecycle soak: thousands of churning client sessions under
# steady ordered load, then a keyed (-ring-key) ring drained via SIGTERM.
soak-smoke:
	./scripts/soak_smoke.sh

# The example programs check their own replicas or transcripts against
# each other and exit non-zero when they diverge.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/chat
	$(GO) run ./examples/banklog
