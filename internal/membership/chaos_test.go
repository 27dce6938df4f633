package membership

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/faults"
)

// TestChaosRandomFaultSchedules drives random kill/partition/heal/submit
// schedules against a cluster of machines and then checks the EVS
// consistency invariants:
//
//  1. per-configuration agreement — for every regular configuration and
//     every pair of members that delivered messages in it, one member's
//     delivery sequence is a prefix of the other's (members may part ways
//     mid-configuration, but never deliver conflicting orders);
//  2. self delivery — no member delivers its own message twice;
//  3. convergence — after faults stop and the network heals, all live
//     machines end operational on one shared ring.
//
// Seeds come from faults.Seeds, so a failing schedule can be replayed
// with FAULTS_SEED=<seed>.
func TestChaosRandomFaultSchedules(t *testing.T) {
	seeds := faults.Seeds(1, 2, 3, 4, 5, 6, 7, 8)
	if testing.Short() && len(seeds) > 2 {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, faults.ReplaySeed(t, seed))
		})
	}
}

func runChaos(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(3) // 3..5 machines
	ids := make([]evs.ProcID, n)
	for i := range ids {
		ids[i] = evs.ProcID(i + 1)
	}
	h := newMemHarness(t, ids...)
	h.waitOperational(5 * time.Second)

	// partition assigns each machine a side; frames cross only within a
	// side. side 0 for everyone = fully connected.
	side := make(map[evs.ProcID]int)
	h.drop = func(from, to evs.ProcID, token bool, frame []byte) bool {
		return side[from] != side[to]
	}

	var msgCount int
	submit := func(id evs.ProcID) {
		if h.dead[id] {
			return
		}
		msgCount++
		payload := fmt.Sprintf("c-%d-%d", id, msgCount)
		svc := evs.Agreed
		if rng.Intn(2) == 0 {
			svc = evs.Safe
		}
		// Submission may fail while the machine is reforming; that is
		// allowed, callers retry in real systems.
		_ = h.machines[id].Submit([]byte(payload), svc)
	}

	// Random schedule: a few fault/heal/submit steps with time advances.
	steps := 8 + rng.Intn(8)
	for s := 0; s < steps; s++ {
		switch rng.Intn(5) {
		case 0: // kill one live machine (keep at least two alive)
			live := liveIDs(h, ids)
			if len(live) > 2 {
				h.dead[live[rng.Intn(len(live))]] = true
			}
		case 1: // partition into two sides
			for _, id := range ids {
				side[id] = rng.Intn(2)
			}
		case 2: // heal the partition
			for _, id := range ids {
				side[id] = 0
			}
		default: // traffic burst
			for i := 0; i < 1+rng.Intn(4); i++ {
				submit(ids[rng.Intn(n)])
			}
		}
		h.advance(time.Duration(50+rng.Intn(300)) * time.Millisecond)
	}

	// Heal everything and let survivors converge.
	for _, id := range ids {
		side[id] = 0
	}
	h.advance(2 * time.Second)
	live := liveIDs(h, ids)
	deadline := h.now.Add(10 * time.Second)
	for h.now.Before(deadline) {
		if converged(h, live) {
			break
		}
		h.advance(50 * time.Millisecond)
	}
	if !converged(h, live) {
		for _, id := range live {
			t.Logf("machine %d: state=%v ring=%v", id, h.machines[id].State(), h.machines[id].Ring())
		}
		t.Fatalf("seed %d: live machines did not converge", seed)
	}

	checkPerConfigAgreement(t, h, ids)
	checkNoDuplicateDeliveries(t, h, ids)
}

func liveIDs(h *memHarness, ids []evs.ProcID) []evs.ProcID {
	var out []evs.ProcID
	for _, id := range ids {
		if !h.dead[id] {
			out = append(out, id)
		}
	}
	return out
}

func converged(h *memHarness, live []evs.ProcID) bool {
	if len(live) == 0 {
		return true
	}
	ref := h.machines[live[0]].Ring()
	if h.machines[live[0]].State() != StateOperational || len(ref.Members) != len(live) {
		return false
	}
	for _, id := range live[1:] {
		if h.machines[id].State() != StateOperational || !h.machines[id].Ring().Equal(ref) {
			return false
		}
	}
	return true
}

// checkPerConfigAgreement verifies invariant 1: group each member's
// delivered messages by the configuration they were delivered in; for any
// two members and any shared configuration, one sequence must be a prefix
// of the other.
func checkPerConfigAgreement(t *testing.T, h *memHarness, ids []evs.ProcID) {
	t.Helper()
	type key struct {
		cfg evs.ViewID
	}
	perMember := make(map[evs.ProcID]map[key][]string)
	for _, id := range ids {
		segs := make(map[key][]string)
		for _, m := range h.outs[id].messages() {
			k := key{cfg: m.Config}
			segs[k] = append(segs[k], fmt.Sprintf("%d:%s", m.Seq, m.Payload))
		}
		perMember[id] = segs
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			for k, seqA := range perMember[a] {
				seqB, ok := perMember[b][k]
				if !ok {
					continue
				}
				short := seqA
				long := seqB
				if len(short) > len(long) {
					short, long = long, short
				}
				for x := range short {
					if short[x] != long[x] {
						t.Fatalf("members %d and %d disagree in config %v at %d: %q vs %q",
							a, b, k.cfg, x, short[x], long[x])
					}
				}
			}
		}
	}
}

// checkNoDuplicateDeliveries verifies invariant 2: a (config, seq) pair is
// delivered at most once per member.
func checkNoDuplicateDeliveries(t *testing.T, h *memHarness, ids []evs.ProcID) {
	t.Helper()
	for _, id := range ids {
		seen := make(map[string]bool)
		for _, m := range h.outs[id].messages() {
			k := fmt.Sprintf("%v/%d", m.Config, m.Seq)
			if seen[k] {
				t.Fatalf("member %d delivered %s twice", id, k)
			}
			seen[k] = true
		}
	}
}
