package chaos

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/faults"
	"accelring/internal/simnet"
	"accelring/internal/stats"
)

// TestChaosRandomPlans runs the full chaos harness over ≥ 20 seeds: each
// seed derives a 4–6 daemon cluster, a randomized fault plan (i.i.d. and
// bursty loss, duplication, delay/reorder, partitions) and a
// kill/restart schedule, then checks the four EVS invariants. A failure
// prints the seed; FAULTS_SEED=<seed> replays it deterministically.
func TestChaosRandomPlans(t *testing.T) {
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
			res := Run(Options{Seed: faults.ReplaySeed(t, seed)})
			t.Logf("nodes=%d steps=%d submitted=%d delivered=%d configs=%d\n%s",
				res.Nodes, res.Steps, res.Submitted, res.Delivered, res.Configs,
				stats.FormatFaults(res.Faults))
			for _, v := range res.Violations {
				t.Errorf("invariant violated: %s", v)
			}
			if t.Failed() {
				t.Fatalf("seed %d violated EVS invariants; replay with %s=%d",
					seed, faults.SeedEnv, seed)
			}
			if res.Nodes < 4 {
				t.Fatalf("cluster too small: %d nodes", res.Nodes)
			}
		})
	}
}

// TestChaosDeterministicReplay: a run is a pure function of its seed —
// replaying must reproduce the identical result, counters included.
func TestChaosDeterministicReplay(t *testing.T) {
	a := Run(Options{Seed: 11})
	b := Run(Options{Seed: 11})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Delivered == 0 {
		t.Fatal("run delivered nothing; harness is not exercising the cluster")
	}
}

// TestChaosExercisesFaults: across the default seeds, the injector must
// actually drop, duplicate, and delay traffic, and at least one run must
// lose frames to switch-port overrun and one to receive-socket overrun
// and still converge with every invariant intact, and a packed run must
// deliver a multi-message bundle — otherwise the harness is vacuous.
func TestChaosExercisesFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregate fault-activity check needs the full seed set")
	}
	var dropped, duplicated, delayed uint64
	switchSurvived, sockSurvived, bundled := false, false, false
	for seed := int64(1); seed <= 24; seed++ {
		res, h := runForDebug(Options{Seed: seed})
		for _, log := range h.logs {
			for i := range log.events {
				bundled = bundled || log.posAt(i) > 0
			}
		}
		for _, c := range res.Faults {
			dropped += c.Dropped
			duplicated += c.Duplicated
			delayed += c.Delayed
		}
		clean := len(res.Violations) == 0
		switchSurvived = switchSurvived || res.SwitchDrops > 0 && clean
		sockSurvived = sockSurvived || res.SockDrops > 0 && clean
	}
	if dropped == 0 || duplicated == 0 || delayed == 0 {
		t.Fatalf("fault plans too tame: dropped=%d duplicated=%d delayed=%d",
			dropped, duplicated, delayed)
	}
	if !switchSurvived {
		t.Fatal("no default seed overran a switch port and still converged cleanly")
	}
	if !sockSurvived {
		t.Fatal("no default seed overran a receive socket and still converged cleanly")
	}
	if !bundled {
		t.Fatal("no default seed delivered a multi-message packing bundle")
	}
}

// TestRestartAloneMintsFreshViewID is the scenario of a failure the sweep
// found (on this substrate, seed 3; on the previous one, seeds past 200):
// the representative of the first ring is killed and restarts cut off from
// everyone, so the fresh process — no memory of its past — forms a ring of
// one. That ring must not carry the ViewID of the first ring its previous
// incarnation minted, or two different configurations share one name.
func TestRestartAloneMintsFreshViewID(t *testing.T) {
	h := newHarness(simnet.NewSim(), rand.New(rand.NewSource(1)), 4, false)
	if stuck := waitConverged(h.c.Sim, 10*time.Second, h); stuck != "" {
		t.Fatal("initial ring did not form:" + stuck)
	}
	first := h.node(1).Machine().Ring().ID
	rep := first.Rep
	var plan faults.Plan
	plan.Add(faults.Rule{Name: "partition", Model: h.part})
	h.c.Net.SetInjector(faults.New(1, plan))

	h.kill(rep)
	h.part.Split(map[evs.ProcID]int{rep: 1})
	h.restart(rep)
	advance(h.c.Sim, time.Second)
	alone := h.node(rep).Machine().Ring()
	if len(alone.Members) != 1 {
		t.Fatalf("restarted process did not form a ring of one: %v", alone)
	}
	if alone.ID == first {
		t.Fatalf("restarted process re-minted %v, the ViewID of the first ring", first)
	}
	h.stopFaults()
	if stuck := waitConverged(h.c.Sim, 20*time.Second, h); stuck != "" {
		t.Fatal("did not converge after heal:" + stuck)
	}
	advance(h.c.Sim, 2*time.Second)
	for _, v := range checkInvariants(h.logs) {
		t.Errorf("invariant violated: %s", v)
	}
}

// ---- forged-log tests: every invariant checker must detect a violation
// planted in a synthetic delivery log.

func cfg(rep evs.ProcID, seq uint64) evs.ViewID { return evs.ViewID{Rep: rep, Seq: seq} }

func regular(id evs.ViewID, members ...evs.ProcID) evs.ConfigChange {
	return evs.ConfigChange{Config: evs.Configuration{ID: id, Members: members}}
}

func transitional(id evs.ViewID, members ...evs.ProcID) evs.ConfigChange {
	return evs.ConfigChange{Config: evs.Configuration{ID: id, Members: members}, Transitional: true}
}

func msg(c evs.ViewID, seq uint64, sender evs.ProcID, svc evs.Service, payload string) evs.Message {
	return evs.Message{Seq: seq, Sender: sender, Service: svc, Config: c, Payload: []byte(payload)}
}

func violationsOf(kind string, vs []Violation) int {
	n := 0
	for _, v := range vs {
		if v.Invariant == kind {
			n++
		}
	}
	return n
}

func TestCheckersDetectPlantedViolations(t *testing.T) {
	c1 := cfg(1, 1)

	t.Run("total-order-slot-conflict", func(t *testing.T) {
		// Both members fill slot (c1, seq 2), with different messages.
		a := &memberLog{id: 1, events: []evs.Event{
			regular(c1, 1, 2),
			msg(c1, 1, 1, evs.Agreed, "x"),
			msg(c1, 2, 2, evs.Agreed, "y"),
		}}
		b := &memberLog{id: 2, events: []evs.Event{
			regular(c1, 1, 2),
			msg(c1, 1, 1, evs.Agreed, "x"),
			msg(c1, 2, 2, evs.Agreed, "DIFFERENT"),
		}}
		if violationsOf("total-order", checkInvariants([]*memberLog{a, b})) == 0 {
			t.Fatal("slot conflict not detected")
		}
	})

	t.Run("total-order-relative-order", func(t *testing.T) {
		// The two members deliver x and y in opposite orders, in different
		// configurations and slots — only the cross-log order check sees it.
		c2 := cfg(2, 1)
		a := &memberLog{id: 1, events: []evs.Event{
			regular(c1, 1, 2),
			msg(c1, 1, 1, evs.Agreed, "x"),
			msg(c1, 2, 2, evs.Agreed, "y"),
		}}
		b := &memberLog{id: 2, events: []evs.Event{
			regular(c2, 1, 2),
			msg(c2, 1, 2, evs.Agreed, "y"),
			msg(c2, 2, 1, evs.Agreed, "x"),
		}}
		if violationsOf("total-order", checkInvariants([]*memberLog{a, b})) == 0 {
			t.Fatal("opposite relative orders not detected")
		}
	})

	t.Run("total-order-duplicate", func(t *testing.T) {
		// One member delivers the same message twice across two
		// configurations — per-config seq checks can't see it.
		c2 := cfg(2, 1)
		a := &memberLog{id: 1, events: []evs.Event{
			regular(c1, 1, 2),
			msg(c1, 1, 1, evs.Agreed, "x"),
			regular(c2, 1, 2),
			msg(c2, 1, 1, evs.Agreed, "x"),
		}}
		if violationsOf("total-order", checkInvariants([]*memberLog{a})) == 0 {
			t.Fatal("cross-config duplicate delivery not detected")
		}
	})

	t.Run("seq-regression", func(t *testing.T) {
		a := &memberLog{id: 1, events: []evs.Event{
			regular(c1, 1),
			msg(c1, 5, 1, evs.Agreed, "x"),
			msg(c1, 5, 1, evs.Agreed, "x"),
		}}
		if violationsOf("seq-regression", checkInvariants([]*memberLog{a})) == 0 {
			t.Fatal("duplicate delivery not detected")
		}
		b := &memberLog{id: 1, events: []evs.Event{
			regular(c1, 1),
			msg(c1, 5, 1, evs.Agreed, "x"),
			msg(c1, 3, 1, evs.Agreed, "y"),
		}}
		if violationsOf("seq-regression", checkInvariants([]*memberLog{b})) == 0 {
			t.Fatal("sequence regression not detected")
		}
		// A packed bundle's messages share a seq at increasing positions;
		// a position that does not increase is a duplicate.
		bundle := &memberLog{id: 1, events: []evs.Event{
			regular(c1, 1),
			msg(c1, 5, 1, evs.Agreed, "x"),
			msg(c1, 5, 1, evs.Agreed, "y"),
		}, pos: []int{0, 0, 1}}
		if vs := checkInvariants([]*memberLog{bundle}); len(vs) != 0 {
			t.Fatalf("a packed bundle flagged: %v", vs)
		}
		bundle.pos[2] = 0
		if violationsOf("seq-regression", checkInvariants([]*memberLog{bundle})) == 0 {
			t.Fatal("repeated bundle position not detected")
		}
	})

	t.Run("virtual-synchrony-membership", func(t *testing.T) {
		a := &memberLog{id: 1, events: []evs.Event{regular(c1, 1, 2)}}
		b := &memberLog{id: 2, events: []evs.Event{regular(c1, 1, 2, 3)}}
		if violationsOf("virtual-synchrony", checkInvariants([]*memberLog{a, b})) == 0 {
			t.Fatal("membership disagreement not detected")
		}
	})

	t.Run("virtual-synchrony-transition", func(t *testing.T) {
		c2 := cfg(1, 2)
		// Both members move c1 -> c2 together, but b missed message 2 in
		// c1. Prefix-consistent, yet virtual synchrony is violated.
		a := &memberLog{id: 1, events: []evs.Event{
			regular(c1, 1, 2),
			msg(c1, 1, 1, evs.Agreed, "x"),
			msg(c1, 2, 2, evs.Agreed, "y"),
			regular(c2, 1, 2),
		}}
		b := &memberLog{id: 2, events: []evs.Event{
			regular(c1, 1, 2),
			msg(c1, 1, 1, evs.Agreed, "x"),
			regular(c2, 1, 2),
		}}
		if violationsOf("virtual-synchrony", checkInvariants([]*memberLog{a, b})) == 0 {
			t.Fatal("transition message-set disagreement not detected")
		}
	})

	t.Run("safe-stability", func(t *testing.T) {
		// Member 1 delivers a Safe message in the regular part of c1;
		// member 2 installed c1, never crashed, never delivers it.
		a := &memberLog{id: 1, events: []evs.Event{
			regular(c1, 1, 2),
			msg(c1, 1, 1, evs.Safe, "s"),
		}}
		b := &memberLog{id: 2, events: []evs.Event{
			regular(c1, 1, 2),
		}}
		if violationsOf("safe-stability", checkInvariants([]*memberLog{a, b})) == 0 {
			t.Fatal("missing safe delivery not detected")
		}
		// A crashed member is exempt.
		b.crashed = true
		if violationsOf("safe-stability", checkInvariants([]*memberLog{a, b})) != 0 {
			t.Fatal("crashed member wrongly held to safe-stability")
		}
		// A Safe message delivered only after the transitional (EVS tail)
		// carries no all-members guarantee.
		aTail := &memberLog{id: 1, events: []evs.Event{
			regular(c1, 1, 2),
			transitional(cfg(1, 2), 1),
			msg(c1, 1, 1, evs.Safe, "s"),
		}}
		bAlive := &memberLog{id: 2, events: []evs.Event{regular(c1, 1, 2)}}
		if violationsOf("safe-stability", checkInvariants([]*memberLog{aTail, bAlive})) != 0 {
			t.Fatal("tail-delivered safe message wrongly required everywhere")
		}
	})
}
