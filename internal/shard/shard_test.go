package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/faults"
	"accelring/internal/group"
	"accelring/internal/membership"
	"accelring/internal/ringnode"
	"accelring/internal/transport"
)

func fastTimeouts() membership.Timeouts {
	return membership.Timeouts{
		JoinInterval:    5 * time.Millisecond,
		Gather:          25 * time.Millisecond,
		Commit:          50 * time.Millisecond,
		TokenLoss:       100 * time.Millisecond,
		TokenRetransmit: 30 * time.Millisecond,
	}
}

// ringLog records one node's deliveries per ring.
type ringLog struct {
	mu   sync.Mutex
	msgs map[int][]string // ring -> payloads in delivery order
}

func (l *ringLog) add(ring int, ev evs.Event) {
	m, ok := ev.(evs.Message)
	if !ok {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.msgs == nil {
		l.msgs = make(map[int][]string)
	}
	l.msgs[ring] = append(l.msgs[ring], string(m.Payload))
}

func (l *ringLog) ring(r int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.msgs[r]...)
}

// startCluster launches nodes shard groups (one per participant), each
// running `shards` rings over per-ring hubs.
func startCluster(t *testing.T, nodes, shards int) ([]*Group, []*ringLog, []*transport.Hub) {
	t.Helper()
	hubs := make([]*transport.Hub, shards)
	for r := range hubs {
		hubs[r] = transport.NewHub()
	}
	groups := make([]*Group, nodes)
	logs := make([]*ringLog, nodes)
	for i := 0; i < nodes; i++ {
		self := evs.ProcID(i + 1)
		log := &ringLog{}
		logs[i] = log
		base := ringnode.Accelerated(self, nil, 10, 100, 7)
		base.Timeouts = fastTimeouts()
		g, err := Start(Config{
			Shards: shards,
			Base:   base,
			NewTransport: func(ring int) (transport.Transport, error) {
				return hubs[ring].Endpoint(self, 0, 0)
			},
			OnEvent: log.add,
		})
		if err != nil {
			t.Fatalf("node %d: %v", self, err)
		}
		groups[i] = g
		t.Cleanup(g.Stop)
	}
	for i, g := range groups {
		if !g.WaitOperational(5 * time.Second) {
			t.Fatalf("node %d: rings did not become operational", i+1)
		}
	}
	return groups, logs, hubs
}

// TestShardedPerGroupTotalOrder runs a 3-node, 2-ring cluster, routes two
// groups to their owning rings, and checks the tentpole guarantee: every
// node delivers each group's messages in one identical order, and each
// group's traffic appears only on its owning ring.
func TestShardedPerGroupTotalOrder(t *testing.T) {
	groups, logs, _ := startCluster(t, 3, 2)
	g0 := groups[0]

	// Two groups that land on different rings (pinned by group.RingOf).
	gA, gB := "g-0", "g-1"
	if group.RingOf(gA, 2) == group.RingOf(gB, 2) {
		t.Fatalf("test groups map to the same ring; pick different names")
	}

	const perSender = 20
	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func(sender int, g *Group) {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				for _, name := range []string{gA, gB} {
					payload := fmt.Sprintf("%s/n%d/m%d", name, sender, k)
					ring := group.RingOf(name, g.Shards())
					for {
						if err := g.Submit(ring, []byte(payload), evs.Agreed); err == nil {
							break
						}
						time.Sleep(time.Millisecond)
					}
				}
			}
		}(i, g)
	}
	wg.Wait()

	want := 3 * perSender
	deadline := time.Now().Add(10 * time.Second)
	ringA, ringB := group.RingOf(gA, g0.Shards()), group.RingOf(gB, g0.Shards())
	for time.Now().Before(deadline) {
		done := true
		for _, l := range logs {
			if len(l.ring(ringA)) < want || len(l.ring(ringB)) < want {
				done = false
				break
			}
		}
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, l := range logs {
		// No cross-ring leakage: ring r only ever delivers its own groups.
		for _, p := range l.ring(ringA) {
			if p[:len(gA)] != gA {
				t.Fatalf("ring %d delivered foreign payload %q", ringA, p)
			}
		}
		for _, p := range l.ring(ringB) {
			if p[:len(gB)] != gB {
				t.Fatalf("ring %d delivered foreign payload %q", ringB, p)
			}
		}
	}

	// Per-group total order: every node saw each ring's stream identically.
	for r := 0; r < 2; r++ {
		ref := logs[0].ring(r)
		if len(ref) != want {
			t.Fatalf("node 1 ring %d delivered %d messages, want %d", r, len(ref), want)
		}
		for i := 1; i < len(logs); i++ {
			got := logs[i].ring(r)
			if len(got) != len(ref) {
				t.Fatalf("node %d ring %d delivered %d messages, node 1 delivered %d",
					i+1, r, len(got), len(ref))
			}
			for k := range ref {
				if got[k] != ref[k] {
					t.Fatalf("ring %d delivery %d differs: node %d got %q, node 1 got %q",
						r, k, i+1, got[k], ref[k])
				}
			}
		}
	}
}

// TestShardIsolation kills one ring's connectivity and checks the other
// ring keeps ordering traffic: ring instances fail independently.
func TestShardIsolation(t *testing.T) {
	groups, logs, hubs := startCluster(t, 2, 2)

	// Cut ring 1's hub completely; ring 0 must keep working.
	var cut faults.Plan
	cut.Add(faults.Rule{Name: "cut", Model: faults.Loss{P: 1}})
	hubs[1].SetInjector(faults.New(1, cut))

	deadline := time.Now().Add(5 * time.Second)
	sent := 0
	for time.Now().Before(deadline) && sent < 10 {
		if err := groups[0].Submit(0, []byte(fmt.Sprintf("alive-%d", sent)), evs.Agreed); err == nil {
			sent++
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if sent < 10 {
		t.Fatalf("ring 0 stopped accepting traffic while ring 1 was cut (sent %d)", sent)
	}
	for time.Now().Before(deadline) {
		if len(logs[1].ring(0)) >= 10 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node 2 delivered %d ring-0 messages while ring 1 was cut, want 10",
		len(logs[1].ring(0)))
}

// TestStartValidation covers constructor failure paths.
func TestStartValidation(t *testing.T) {
	base := ringnode.Accelerated(1, nil, 10, 100, 7)
	if _, err := Start(Config{Shards: 0, Base: base}); err == nil {
		t.Fatal("Shards=0 accepted")
	}
	if _, err := Start(Config{Shards: MaxShards + 1, Base: base}); err == nil {
		t.Fatal("Shards beyond MaxShards accepted")
	}
	if _, err := Start(Config{Shards: 2, Base: base}); err == nil {
		t.Fatal("nil NewTransport accepted")
	}
	boom := fmt.Errorf("boom")
	hub := transport.NewHub()
	_, err := Start(Config{
		Shards: 2,
		Base:   base,
		NewTransport: func(ring int) (transport.Transport, error) {
			if ring == 1 {
				return nil, boom
			}
			return hub.Endpoint(1, 0, 0)
		},
	})
	if err == nil {
		t.Fatal("transport error not propagated")
	}
}
