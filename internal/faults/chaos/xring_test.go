package chaos

import (
	"fmt"
	"reflect"
	"testing"

	"accelring/internal/evs"
	"accelring/internal/faults"
	"accelring/internal/simnet"
)

// TestXRingChaosGlobalOrder sweeps ≥ 20 seeds over a 2-shard topology
// with a full cross-ring merger per node: one live migration forced
// mid-stream, the migration's source ring split and healed while the
// migration is in flight, whole-node kills, and independent per-ring
// fault plans. Checks that every node delivers the identical GLOBAL
// order (converged prologue and post-heal epilogue), that the epilogue
// loses nothing, that no node ever delivers a payload twice (migration
// handoff included), that the migration settles to one agreed route
// everywhere, and that the per-ring EVS invariants still hold under the
// merge. A failure prints the seed; FAULTS_SEED=<seed> replays it.
func TestXRingChaosGlobalOrder(t *testing.T) {
	defaults := make([]int64, 24)
	for i := range defaults {
		defaults[i] = int64(i + 1)
	}
	seeds := faults.Seeds(defaults...)
	if testing.Short() && len(seeds) > 4 {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res := RunXRing(XRingOptions{Seed: faults.ReplaySeed(t, seed), Shards: 2})
			t.Logf("shards=%d nodes=%d steps=%d groups=%d submitted=%d delivered=%d migrated=%q->%d closed=%d",
				res.Shards, res.Nodes, res.Steps, len(res.Groups),
				res.Submitted, res.Delivered, res.MigratedGroup, res.MigratedTo, res.MigrationsClosed)
			for _, v := range res.Violations {
				t.Errorf("invariant violated: %s", v)
			}
			if t.Failed() {
				t.Fatalf("seed %d violated cross-ring invariants; replay with %s=%d",
					seed, faults.SeedEnv, seed)
			}
		})
	}
	// TestXRingChaosMigrationCloses asserts on one deterministic seed that
	// the forced migration actually closed, so the sweep cannot silently
	// degrade into a no-migration test (the subtests run in parallel, so
	// nothing is aggregated across them here).
}

// TestXRingChaosMigrationCloses pins that the forced mid-stream
// migration actually completes on a representative seed — the sweep's
// migration checks are conditional on the Begin surviving the fault
// plan, so this guards against the schedule degenerating.
func TestXRingChaosMigrationCloses(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		res := RunXRing(XRingOptions{Seed: seed, Shards: 2})
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d violated invariants: %v", seed, res.Violations)
		}
		if res.MigrationsClosed > 0 {
			return
		}
	}
	t.Fatal("no seed in 1..4 closed a migration; the forced schedule is not exercising handoff")
}

// TestXRingChaosDeterministicReplay: a cross-ring run is a pure function
// of its seed — replaying must reproduce the identical result, down to
// byte-identical per-node global delivery logs. This is the regression
// the deterministic SplitByRing/merge ordering contract promises: two
// identical runs produce identical delivery logs.
func TestXRingChaosDeterministicReplay(t *testing.T) {
	a := RunXRing(XRingOptions{Seed: 7, Shards: 2})
	b := RunXRing(XRingOptions{Seed: 7, Shards: 2})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%+v\nvs\n%+v", a, b)
	}
	if !reflect.DeepEqual(a.GlobalLogs, b.GlobalLogs) {
		t.Fatal("global delivery logs diverged between identical runs")
	}
	if a.Delivered == 0 {
		t.Fatal("run delivered nothing; cross-ring harness is not exercising the rings")
	}
	total := 0
	for _, log := range a.GlobalLogs {
		total += len(log)
	}
	if total == 0 {
		t.Fatal("no node produced a global log; the mergers are not being driven")
	}
}

// TestEqualStreamsDetectsPlantedViolations: the cross-ring order checker
// must see one entry of one node's global stream swapped with its
// neighbour, dropped, or duplicated — and stay silent on equal streams.
func TestEqualStreamsDetectsPlantedViolations(t *testing.T) {
	ref := []string{"g-0/a-1-1", "g-1/a-2-2", "g-0/a-3-3", "g-2/a-1-4"}
	plant := map[string]func([]string) []string{
		"equal":     func(s []string) []string { return s },
		"swap":      func(s []string) []string { s[1], s[2] = s[2], s[1]; return s },
		"drop":      func(s []string) []string { return append(s[:2], s[3:]...) },
		"drop-last": func(s []string) []string { return s[:3] },
		"duplicate": func(s []string) []string { return append(s[:3], s[2:]...) },
	}
	for name, mutate := range plant {
		x := &xrun{res: &XRingResult{}, nodes: []*xnode{{id: 1}, {id: 2}, {id: 3}}}
		streams := map[evs.ProcID][]string{1: ref, 2: ref, 3: mutate(append([]string(nil), ref...))}
		x.checkEqualStreams("global-order", streams)
		if got := violationsOf("global-order", x.res.Violations); (got == 0) != (name == "equal") {
			t.Errorf("%s: %d global-order violations: %v", name, got, x.res.Violations)
		}
	}
	// A dead node's stream is exempt: it stopped wherever it was killed.
	x := &xrun{res: &XRingResult{}, nodes: []*xnode{{id: 1}, {id: 2}, {id: 3, dead: true}}}
	x.checkEqualStreams("global-order", map[evs.ProcID][]string{1: ref, 2: ref, 3: ref[:1]})
	if len(x.res.Violations) != 0 {
		t.Errorf("dead node held to the global order: %v", x.res.Violations)
	}
}

// TestXRingRunHasOneClock: every ring of a run is scheduled by the same
// simulator, and each ring delivery reaches the node's core at its own
// virtual instant — so the instants of consecutive hand-overs into one
// core never go backwards, whichever rings they came from, and they are
// not rounded to any harness step.
func TestXRingRunHasOneClock(t *testing.T) {
	x := runXRing(XRingOptions{Seed: 7, Shards: 2})
	for r, h := range x.hs {
		if h.c.Sim != x.sim {
			t.Fatalf("ring %d runs on its own scheduler", r)
		}
	}
	offStep := false
	for _, n := range x.nodes {
		if len(n.fedAt) == 0 {
			t.Fatalf("node %d's core was never fed", n.id)
		}
		for i, at := range n.fedAt {
			if i > 0 && at < n.fedAt[i-1] {
				t.Fatalf("node %d: hand-over %d at %v after one at %v", n.id, i, at, n.fedAt[i-1])
			}
			if at%simnet.Millisecond != 0 {
				offStep = true
			}
		}
	}
	if !offStep {
		t.Fatal("every delivery landed on a whole millisecond: deliveries are being batched")
	}
}
