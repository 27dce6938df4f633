package ringnode

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/membership"
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

// eventLog collects delivery events safely across goroutines. It keeps a
// copy of each payload: the delivered one is valid only until OnEvent
// returns.
type eventLog struct {
	mu     sync.Mutex
	events []evs.Event
}

func (l *eventLog) add(ev evs.Event) {
	if m, ok := ev.(evs.Message); ok {
		m.Payload = bytes.Clone(m.Payload)
		ev = m
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

func (l *eventLog) messages() []evs.Message {
	l.mu.Lock()
	defer l.mu.Unlock()
	var ms []evs.Message
	for _, ev := range l.events {
		if m, ok := ev.(evs.Message); ok {
			ms = append(ms, m)
		}
	}
	return ms
}

func (l *eventLog) configs() []evs.ConfigChange {
	l.mu.Lock()
	defer l.mu.Unlock()
	var cs []evs.ConfigChange
	for _, ev := range l.events {
		if c, ok := ev.(evs.ConfigChange); ok {
			cs = append(cs, c)
		}
	}
	return cs
}

// startHubNodes launches n nodes over an in-process hub.
func startHubNodes(t *testing.T, n int, accelerated bool) ([]*Node, []*eventLog, *transport.Hub) {
	t.Helper()
	hub := transport.NewHub()
	nodes := make([]*Node, n)
	logs := make([]*eventLog, n)
	for i := 0; i < n; i++ {
		id := evs.ProcID(i + 1)
		ep, err := hub.Endpoint(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		log := &eventLog{}
		var cfg Config
		if accelerated {
			cfg = Accelerated(id, ep, 10, 100, 7)
		} else {
			cfg = Original(id, ep, 10, 100)
		}
		cfg.Timeouts = fastTimeouts()
		cfg.OnEvent = log.add
		node, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		nodes[i] = node
		logs[i] = log
	}
	return nodes, logs, hub
}

func waitFullRing(t *testing.T, nodes []*Node, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		all := true
		for _, n := range nodes {
			st := n.Status()
			if st.State != membership.StateOperational || len(st.Ring.Members) != want {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, n := range nodes {
		t.Logf("node %d: %+v", i, n.Status())
	}
	t.Fatalf("nodes did not form a %d-member ring", want)
}

func waitMessages(t *testing.T, logs []*eventLog, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		all := true
		for _, l := range logs {
			if len(l.messages()) < want {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, l := range logs {
		t.Logf("log %d: %d messages", i, len(l.messages()))
	}
	t.Fatalf("nodes did not all deliver %d messages", want)
}

func TestHubRingFormsAndOrders(t *testing.T) {
	for _, accel := range []bool{true, false} {
		t.Run(fmt.Sprintf("accelerated=%v", accel), func(t *testing.T) {
			nodes, logs, _ := startHubNodes(t, 3, accel)
			waitFullRing(t, nodes, 3, 5*time.Second)

			const perNode = 20
			for i, n := range nodes {
				for k := 0; k < perNode; k++ {
					if err := n.Submit([]byte(fmt.Sprintf("m-%d-%d", i, k)), evs.Agreed); err != nil {
						t.Fatalf("submit: %v", err)
					}
				}
			}
			total := perNode * len(nodes)
			waitMessages(t, logs, total, 5*time.Second)

			ref := logs[0].messages()
			for i, l := range logs {
				ms := l.messages()
				if len(ms) != total {
					t.Fatalf("node %d delivered %d, want %d", i, len(ms), total)
				}
				for k := range ms {
					if ms[k].Seq != ref[k].Seq || string(ms[k].Payload) != string(ref[k].Payload) {
						t.Fatalf("total order violated at %d on node %d", k, i)
					}
				}
			}
		})
	}
}

func TestHubSafeDelivery(t *testing.T) {
	nodes, logs, _ := startHubNodes(t, 3, true)
	waitFullRing(t, nodes, 3, 5*time.Second)
	if err := nodes[0].Submit([]byte("safe-msg"), evs.Safe); err != nil {
		t.Fatal(err)
	}
	waitMessages(t, logs, 1, 5*time.Second)
	for i, l := range logs {
		ms := l.messages()
		if ms[0].Service != evs.Safe || string(ms[0].Payload) != "safe-msg" {
			t.Fatalf("node %d delivered %+v", i, ms[0])
		}
	}
}

func TestSubmitBeforeOperational(t *testing.T) {
	hub := transport.NewHub()
	ep, err := hub.Endpoint(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Accelerated(1, ep, 10, 100, 7)
	// Long gather: the node stays non-operational for a while.
	to := fastTimeouts()
	to.Gather = 10 * time.Second
	cfg.Timeouts = to
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	if err := n.Submit([]byte("x"), evs.Agreed); err != membership.ErrNotOperational {
		t.Fatalf("Submit = %v, want ErrNotOperational", err)
	}
}

func TestStopIsIdempotentAndUnblocks(t *testing.T) {
	nodes, _, _ := startHubNodes(t, 2, true)
	waitFullRing(t, nodes, 2, 5*time.Second)
	nodes[0].Stop()
	nodes[0].Stop() // idempotent
	if err := nodes[0].Submit([]byte("x"), evs.Agreed); err != ErrStopped {
		t.Fatalf("Submit after stop = %v, want ErrStopped", err)
	}
}

func TestCrashTriggersReform(t *testing.T) {
	nodes, logs, _ := startHubNodes(t, 3, true)
	waitFullRing(t, nodes, 3, 5*time.Second)
	firstRing := nodes[0].Status().Ring.ID

	nodes[2].Stop()
	// The two survivors must reform without node 3.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s0, s1 := nodes[0].Status(), nodes[1].Status()
		if s0.State == membership.StateOperational && firstRing.Less(s0.Ring.ID) &&
			s1.State == membership.StateOperational && s0.Ring.Equal(s1.Ring) &&
			len(s0.Ring.Members) == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	s0 := nodes[0].Status()
	if len(s0.Ring.Members) != 2 {
		t.Fatalf("ring did not reform: %+v", s0)
	}
	// Ordering still works on the reformed ring.
	if err := nodes[0].Submit([]byte("post-crash"), evs.Agreed); err != nil {
		t.Fatal(err)
	}
	waitMessages(t, logs[:2], 1, 5*time.Second)
	// Survivors saw a transitional configuration during the reform.
	for i := 0; i < 2; i++ {
		var sawTransitional bool
		for _, c := range logs[i].configs() {
			if c.Transitional {
				sawTransitional = true
			}
		}
		if !sawTransitional {
			t.Fatalf("node %d saw no transitional config: %+v", i, logs[i].configs())
		}
	}
}

func TestUDPRingEndToEnd(t *testing.T) {
	const n = 3
	// First open all transports to learn their ports, then interconnect.
	uds := make([]*transport.UDP, n)
	for i := 0; i < n; i++ {
		u, err := transport.NewUDP(transport.UDPConfig{
			Self:   evs.ProcID(i + 1),
			Listen: transport.UDPPeer{Data: "127.0.0.1:0"},
		})
		if err != nil {
			t.Fatal(err)
		}
		uds[i] = u
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if err := uds[i].AddPeer(evs.ProcID(j+1), uds[j].LocalAddrs()); err != nil {
				t.Fatal(err)
			}
		}
		// Self-unicast (the representative starts its own ring's token).
		if err := uds[i].AddPeer(evs.ProcID(i+1), uds[i].LocalAddrs()); err != nil {
			t.Fatal(err)
		}
	}
	nodes := make([]*Node, n)
	logs := make([]*eventLog, n)
	for i := 0; i < n; i++ {
		log := &eventLog{}
		cfg := Accelerated(evs.ProcID(i+1), uds[i], 10, 100, 7)
		cfg.Timeouts = fastTimeouts()
		cfg.OnEvent = log.add
		node, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		nodes[i] = node
		logs[i] = log
	}
	waitFullRing(t, nodes, n, 10*time.Second)
	const perNode = 10
	for i, node := range nodes {
		for k := 0; k < perNode; k++ {
			if err := node.Submit([]byte(fmt.Sprintf("udp-%d-%d", i, k)), evs.Agreed); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitMessages(t, logs, perNode*n, 10*time.Second)
	ref := logs[0].messages()
	for i, l := range logs {
		ms := l.messages()
		for k := range ref {
			if ms[k].Seq != ref[k].Seq || string(ms[k].Payload) != string(ref[k].Payload) {
				t.Fatalf("UDP total order violated at %d on node %d", k, i)
			}
		}
	}
}
