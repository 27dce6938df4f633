package simproc

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"accelring/internal/core"
	"accelring/internal/evs"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/simnet"
)

func gigOpts(nodes int, accelerated bool) Options {
	ring := ringnode.Original(0, nil, 20, 160)
	if accelerated {
		ring = ringnode.Accelerated(0, nil, 20, 160, 15)
	}
	return Options{Fabric: simnet.GigabitFabric(nodes), Profile: Daemon(), Ring: ring}
}

// runFor advances the cluster's simulation by d.
func runFor(c *Cluster, d simnet.Time) { c.Sim.RunUntil(c.Sim.Now() + d) }

func TestTokenRotates(t *testing.T) {
	c, err := NewCluster(gigOpts(4, true))
	if err != nil {
		t.Fatal(err)
	}
	runFor(c, 5*simnet.Millisecond)
	for i, n := range c.Nodes {
		rounds := n.Engine().Counters().Rounds
		if rounds < 10 {
			t.Fatalf("node %d completed only %d rounds in 5ms", i, rounds)
		}
	}
}

func TestClusterTotalOrderAndDelivery(t *testing.T) {
	for _, accel := range []bool{false, true} {
		t.Run(fmt.Sprintf("accelerated=%v", accel), func(t *testing.T) {
			c, err := NewCluster(gigOpts(4, accel))
			if err != nil {
				t.Fatal(err)
			}
			delivered := make(map[simnet.NodeID][]evs.Message)
			c.SetDeliverHook(func(node simnet.NodeID, ev evs.Event, at simnet.Time) {
				if m, ok := ev.(evs.Message); ok {
					delivered[node] = append(delivered[node], m)
				}
			})
			const perNode = 25
			total := perNode * len(c.Nodes)
			for _, n := range c.Nodes {
				n := n
				for i := 0; i < perNode; i++ {
					payload := make([]byte, 200)
					StampPayload(payload, 0)
					n.Submit(payload, evs.Agreed)
				}
			}
			runFor(c, 100*simnet.Millisecond)
			for id, ms := range delivered {
				if len(ms) != total {
					t.Fatalf("node %d delivered %d, want %d", id, len(ms), total)
				}
				for i, m := range ms {
					// Seqs before the first are the ring's recovery markers.
					if i > 0 && m.Seq != ms[i-1].Seq+1 {
						t.Fatalf("node %d delivery %d has seq %d after %d", id, i, m.Seq, ms[i-1].Seq)
					}
					if ref := delivered[0][i]; m.Sender != ref.Sender || m.Seq != ref.Seq {
						t.Fatalf("node %d delivery %d differs from node 0", id, i)
					}
				}
			}
			if len(delivered) != len(c.Nodes) {
				t.Fatalf("only %d nodes delivered", len(delivered))
			}
		})
	}
}

func TestSafeDeliveryLatencyExceedsAgreed(t *testing.T) {
	measure := func(svc evs.Service) simnet.Time {
		c, err := NewCluster(gigOpts(4, true))
		if err != nil {
			t.Fatal(err)
		}
		var total simnet.Time
		var count int
		c.SetDeliverHook(func(node simnet.NodeID, ev evs.Event, at simnet.Time) {
			m, ok := ev.(evs.Message)
			if ts := PayloadStamp(m.Payload); ok && ts >= 0 {
				total += at - ts
				count++
			}
		})
		// Let the ring spin up, then submit a handful of stamped messages.
		runFor(c, 2*simnet.Millisecond)
		for i := 0; i < 10; i++ {
			payload := make([]byte, 200)
			StampPayload(payload, c.Sim.Now())
			c.Nodes[1].Submit(payload, svc)
		}
		runFor(c, 50*simnet.Millisecond)
		if count == 0 {
			t.Fatalf("no deliveries for %v", svc)
		}
		return total / simnet.Time(count)
	}
	agreed := measure(evs.Agreed)
	safe := measure(evs.Safe)
	if safe <= agreed {
		t.Fatalf("safe latency %v not above agreed latency %v", safe, agreed)
	}
}

// TestAcceleratedFasterRounds: the headline mechanism — the token
// circulates faster when participants pass it before finishing their
// multicasts, under identical load.
func TestAcceleratedFasterRounds(t *testing.T) {
	rounds := func(accel bool) uint64 {
		c, err := NewCluster(gigOpts(8, accel))
		if err != nil {
			t.Fatal(err)
		}
		// Saturating senders: always have a full personal window queued.
		for _, n := range c.Nodes {
			n := n
			var refill func()
			refill = func() {
				// Submit is asynchronous (client IPC hop), so batch rather
				// than poll the queue length.
				if n.Engine().QueueLen() < 20 {
					for i := 0; i < 20; i++ {
						payload := make([]byte, 1350)
						StampPayload(payload, c.Sim.Now())
						n.Submit(payload, evs.Agreed)
					}
				}
				c.Sim.After(100*simnet.Microsecond, refill)
			}
			c.Sim.After(0, refill)
		}
		before := c.Nodes[0].Engine().Counters().Rounds
		runFor(c, 50*simnet.Millisecond)
		return c.Nodes[0].Engine().Counters().Rounds - before
	}
	orig := rounds(false)
	accel := rounds(true)
	if accel <= orig {
		t.Fatalf("accelerated rounds %d not above original %d under load", accel, orig)
	}
	t.Logf("rounds in 50ms under load: original=%d accelerated=%d", orig, accel)
}

// TestIngressFilterLossRecovers: under both protocols, a node that loses
// every third data packet still delivers every message, in the same total
// order as the others, through retransmissions.
func TestIngressFilterLossRecovers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		accel bool
	}{{"original", false}, {"accelerated", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(gigOpts(4, tc.accel))
			if err != nil {
				t.Fatal(err)
			}
			// Node 2 loses 30% of data deterministically (every 3rd packet).
			var seen int
			c.Net.SetIngressFilter(func(to simnet.NodeID, p *simnet.Packet) bool {
				if to != 2 || p.Kind == 1 /* token */ {
					return false
				}
				seen++
				return seen%3 == 0
			})
			delivered := make(map[simnet.NodeID][]uint64)
			c.SetDeliverHook(func(node simnet.NodeID, ev evs.Event, at simnet.Time) {
				if m, ok := ev.(evs.Message); ok {
					delivered[node] = append(delivered[node], m.Seq)
				}
			})
			const perNode = 20
			for _, n := range c.Nodes {
				for i := 0; i < perNode; i++ {
					n.Submit(make([]byte, 300), evs.Agreed)
				}
			}
			runFor(c, 200*simnet.Millisecond)
			want := perNode * len(c.Nodes)
			if len(delivered) != len(c.Nodes) {
				t.Fatalf("%d of %d nodes delivered anything", len(delivered), len(c.Nodes))
			}
			for id, got := range delivered {
				if len(got) != want {
					t.Fatalf("node %d delivered %d, want %d (loss not recovered)", id, len(got), want)
				}
				if !slices.Equal(got, delivered[0]) {
					t.Fatalf("node %d delivered %v, node 0 %v", id, got, delivered[0])
				}
			}
			if c.Net.Stats().FilterDrops == 0 {
				t.Fatal("filter dropped nothing; test is vacuous")
			}
			var retrans uint64
			for _, n := range c.Nodes {
				retrans += n.Engine().Counters().Retransmitted
			}
			if retrans == 0 {
				t.Fatal("loss recovered without retransmissions?")
			}
		})
	}
}

func TestTraceEventsEmitted(t *testing.T) {
	c, err := NewCluster(gigOpts(3, true))
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	for _, n := range c.Nodes {
		n.SetTrace(func(ev TraceEvent) { kinds[ev.Kind]++ })
	}
	c.Nodes[0].Submit(make([]byte, 100), evs.Agreed)
	runFor(c, 5*simnet.Millisecond)
	for _, k := range []string{"send-data", "send-token", "recv-data", "recv-token", "deliver"} {
		if kinds[k] == 0 {
			t.Fatalf("no %q trace events (got %v)", k, kinds)
		}
	}
}

func TestPayloadStamp(t *testing.T) {
	p := make([]byte, 16)
	StampPayload(p, 12345)
	if got := PayloadStamp(p); got != 12345 {
		t.Fatalf("stamp round trip = %v", got)
	}
	if got := PayloadStamp(make([]byte, 4)); got != -1 {
		t.Fatalf("short payload stamp = %v, want -1", got)
	}
	// StampPayload on a short payload must not panic.
	StampPayload(make([]byte, 4), 1)
}

func TestClusterValidation(t *testing.T) {
	opts := gigOpts(4, true)
	opts.Fabric.Nodes = 0
	if _, err := NewCluster(opts); err == nil {
		t.Fatal("zero-node cluster accepted")
	}
	opts = gigOpts(4, true)
	opts.Ring.Windows.Personal = 0
	if _, err := NewCluster(opts); err == nil {
		t.Fatal("invalid windows accepted")
	}
}

// ringViewRun drives a lossy 4-node cluster with a flight recorder per
// node on the simulation's clock and returns each node's /debug/ring view
// next to its engine's own counters.
func ringViewRun(t *testing.T) ([][]obs.RoundTrace, []core.Counters) {
	t.Helper()
	const nodes = 4
	opts := gigOpts(nodes, true)
	recs := make([]*obs.Recorder, nodes)
	opts.Observer = func(node int) *obs.RingObserver {
		recs[node] = obs.NewRecorder(1 << 16) // deep enough for every visit of the run
		return &obs.RingObserver{Flight: recs[node]}
	}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	c.Net.SetIngressFilter(func(to simnet.NodeID, p *simnet.Packet) bool {
		if to != 2 || p.Kind == 1 /* token */ {
			return false
		}
		seen++
		return seen%3 == 0
	})
	for _, n := range c.Nodes {
		for i := 0; i < 40; i++ {
			n.Submit(make([]byte, 300), evs.Agreed)
		}
	}
	runFor(c, 100*simnet.Millisecond)

	views := make([][]obs.RoundTrace, nodes)
	counters := make([]core.Counters, nodes)
	for i, n := range c.Nodes {
		if recs[i].Total() > 1<<16 {
			t.Fatalf("node %d recorded %d events: the recorder wrapped, deepen it", i, recs[i].Total())
		}
		views[i] = obs.Rounds(recs[i].Snapshot(0))[""]
		counters[i] = n.Engine().Counters()
	}
	return views, counters
}

// TestRingViewMatchesEngineCounters checks the /debug/ring view — derived
// from the token events the engine records once — against the engine's
// own counters, visit by visit, and that it is a pure function of the run.
func TestRingViewMatchesEngineCounters(t *testing.T) {
	views, counters := ringViewRun(t)
	var retransmitted uint64
	for i, rounds := range views {
		cnt := counters[i]
		if uint64(len(rounds)) != cnt.Rounds {
			t.Fatalf("node %d: view has %d rounds, engine counted %d", i, len(rounds), cnt.Rounds)
		}
		var sent, retrans, requested uint64
		for j, tr := range rounds {
			if tr.Round != uint64(j+1) {
				t.Fatalf("node %d: round %d follows %d rounds (not contiguous)", i, tr.Round, j)
			}
			if tr.SentSeq < tr.RecvSeq || tr.SentSeq-tr.RecvSeq != uint64(tr.New) || tr.Pre+tr.Post != tr.New || tr.Hold < 0 {
				t.Fatalf("node %d round %d inconsistent: %+v", i, tr.Round, tr)
			}
			sent += uint64(tr.New)
			retrans += uint64(tr.Retransmitted)
			requested += uint64(tr.Requested)
		}
		if sent != cnt.Sent || retrans != cnt.Retransmitted || requested != cnt.Requested {
			t.Fatalf("node %d: view sums new=%d retransmitted=%d requested=%d, engine counted %d/%d/%d",
				i, sent, retrans, requested, cnt.Sent, cnt.Retransmitted, cnt.Requested)
		}
		retransmitted += retrans
	}
	if retransmitted == 0 {
		t.Fatal("no retransmissions in the run; the retransmitted check is vacuous")
	}
	if again, _ := ringViewRun(t); !reflect.DeepEqual(views, again) {
		t.Fatal("two runs of the same schedule rendered different /debug/ring views")
	}
}
