package accelring

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"accelring/internal/group"
	"accelring/internal/membership"
	"accelring/internal/obs"
)

// fastTimeouts keeps membership rounds short for tests.
func fastTimeouts() Timeouts {
	return Timeouts{
		JoinInterval:    10 * time.Millisecond,
		Gather:          50 * time.Millisecond,
		Commit:          100 * time.Millisecond,
		TokenLoss:       250 * time.Millisecond,
		TokenRetransmit: 60 * time.Millisecond,
	}
}

// openCluster starts n facade nodes on one Hub and waits for the ring.
func openCluster(t *testing.T, nn int, opts ...Option) []*Node {
	t.Helper()
	hub := NewHub()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	nodes := make([]*Node, nn)
	for i := 0; i < nn; i++ {
		ep, err := hub.Endpoint(ProcID(i+1), 4096, 64)
		if err != nil {
			t.Fatal(err)
		}
		all := append([]Option{
			WithSelf(ProcID(i + 1)),
			WithWire(WireConfig{Transport: ep}),
			WithWindows(10, 100, 7),
			WithTimeouts(fastTimeouts()),
		}, opts...)
		n, err := Open(ctx, all...)
		if err != nil {
			t.Fatalf("Open node %d: %v", i+1, err)
		}
		nodes[i] = n
		t.Cleanup(func() { n.Close() })
	}
	for _, n := range nodes {
		if err := n.WaitReady(ctx); err != nil {
			t.Fatalf("node %v WaitReady: %v", n.ID(), err)
		}
	}
	return nodes
}

// nextEvent pulls events until one matches the wanted type.
func nextEvent[T Event](t *testing.T, n *Node) T {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		ev, err := n.Receive(ctx)
		if err != nil {
			var zero T
			t.Fatalf("node %v: waiting for %T: %v", n.ID(), zero, err)
		}
		if want, ok := ev.(T); ok {
			return want
		}
	}
}

func TestClusterOrderedDelivery(t *testing.T) {
	nodes := openCluster(t, 3)

	// Everyone joins; each node sees the view grow to all three members.
	for _, n := range nodes {
		if err := n.Join("chat"); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	for _, n := range nodes {
		for {
			v := nextEvent[*GroupView](t, n)
			if v.Group == "chat" && len(v.Members) == 3 {
				break
			}
		}
	}

	// Concurrent sends from all nodes, including one Safe message.
	const per = 5
	for i, n := range nodes {
		for j := 0; j < per; j++ {
			svc := Agreed
			if j == per-1 {
				svc = Safe
			}
			msg := []byte(fmt.Sprintf("n%d-%d", i+1, j))
			if err := n.Send(svc, msg, "chat"); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
	}

	// All nodes deliver the same messages in the same total order.
	var sequences [3][]string
	for i, n := range nodes {
		for len(sequences[i]) < 3*per {
			m := nextEvent[*Message](t, n)
			sequences[i] = append(sequences[i], fmt.Sprintf("%v:%s", m.Sender, m.Payload))
		}
	}
	for i := 1; i < 3; i++ {
		for j := range sequences[0] {
			if sequences[i][j] != sequences[0][j] {
				t.Fatalf("node %d delivered %q at %d, node 1 delivered %q",
					i+1, sequences[i][j], j, sequences[0][j])
			}
		}
	}
}

func TestTypedErrors(t *testing.T) {
	nodes := openCluster(t, 2)
	n := nodes[0]

	// Leave of a never-joined group: ErrNotMember, locally, typed.
	if err := n.Leave("ghost"); !errors.Is(err, ErrNotMember) {
		t.Fatalf("Leave(ghost) = %v, want ErrNotMember", err)
	}
	// Bad group names and service levels are rejected before submission.
	if err := n.Join(""); !errors.Is(err, ErrBadGroup) {
		t.Fatalf("Join(empty) = %v, want ErrBadGroup", err)
	}
	if err := n.Send(Service(99), []byte("x"), "g"); !errors.Is(err, ErrInvalidService) {
		t.Fatalf("Send bad service = %v, want ErrInvalidService", err)
	}
	if err := n.Send(Agreed, []byte("x")); !errors.Is(err, ErrBadGroupCount) {
		t.Fatalf("Send no groups = %v, want ErrBadGroupCount", err)
	}

	// After Close, everything is ErrClosed.
	n.Close()
	if err := n.Join("chat"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Join after close = %v, want ErrClosed", err)
	}
	// Receive drains any buffered events, then reports ErrClosed.
	for {
		_, err := n.Receive(context.Background())
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Receive after close = %v, want ErrClosed", err)
		}
		break
	}
	if err := n.Err(); err != nil {
		t.Fatalf("Err after clean close = %v, want nil", err)
	}
}

func TestNotReadyBeforeRing(t *testing.T) {
	// A lone node with a long gather timeout has no ring yet.
	hub := NewHub()
	ep, err := hub.Endpoint(1, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	to := fastTimeouts()
	to.JoinInterval = 2 * time.Second
	to.Gather = 10 * time.Second
	n, err := Open(context.Background(), WithSelf(1), WithWire(WireConfig{Transport: ep}), WithTimeouts(to))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Send(Agreed, []byte("x"), "g"); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Send before ring = %v, want ErrNotReady", err)
	}
}

// TestSendDuringReformReachesSurvivor: a Send made while the ring
// re-forms returns nil, and the survivor delivers the message once its
// singleton ring has formed.
func TestSendDuringReformReachesSurvivor(t *testing.T) {
	nodes := openCluster(t, 2)
	n := nodes[0]
	if err := n.Join("g"); err != nil {
		t.Fatal(err)
	}
	nextEvent[*GroupView](t, n)
	oldView := n.View()

	// Kill node 2; node 1 loses the ring and re-forms a singleton one.
	nodes[1].Close()
	deadline := time.Now().Add(5 * time.Second)
	for n.host.RingNode(0).Status().State == membership.StateOperational {
		if time.Now().After(deadline) {
			t.Fatal("survivor never noticed the lost ring")
		}
		time.Sleep(time.Millisecond)
	}
	if err := n.Send(Agreed, []byte("during"), "g"); err != nil {
		t.Fatalf("Send while re-forming = %v, want nil", err)
	}

	var reformed bool
	for {
		switch ev := nextEvent[Event](t, n).(type) {
		case *ViewChange:
			reformed = reformed || (!ev.Transitional && len(ev.Members) == 1)
		case *Message:
			if string(ev.Payload) != "during" {
				continue
			}
			if !reformed {
				t.Fatal("message delivered before the singleton ring formed")
			}
			if v := n.View(); v == oldView || v.IsZero() {
				t.Fatalf("view after re-formation = %v, want a new view", v)
			}
			return
		}
	}
}

func TestObserverWiring(t *testing.T) {
	reg := NewRegistry()
	nodes := openCluster(t, 2, WithObserver(reg))
	if nodes[0].Recorder() == nil {
		t.Fatal("Recorder() = nil with WithObserver")
	}
	if err := nodes[0].Join("g"); err != nil {
		t.Fatal(err)
	}
	nextEvent[*GroupView](t, nodes[0])

	// Both nodes share the registry; the ring counters must be live.
	deadline := time.Now().Add(3 * time.Second)
	for reg.Counter("ring.rounds").Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if reg.Counter("ring.rounds").Value() == 0 {
		t.Fatal("ring.rounds never incremented")
	}
	if len(obs.Rounds(nodes[0].Recorder().Snapshot(0))[""]) == 0 {
		t.Fatal("recorder holds no token rounds")
	}
}

// TestSinkDeliveryAllocs: the facade carves each delivered Message, its
// group list and its payload out of the node's slabs, so handing a
// delivery to the application costs a small fraction of an allocation.
func TestSinkDeliveryAllocs(t *testing.T) {
	n := openCluster(t, 3)[0]
	for len(n.events) > 0 {
		<-n.events // the ring's formation
	}
	env := &group.Envelope{Sender: n.self, Groups: []string{"g"}, Payload: make([]byte, 1350)}
	to := []ClientID{n.self}
	sink := nodeSink{n}
	var got *Message
	// No traffic runs on the ring, so nothing else calls the sink and the
	// test may stand in for the merger's lock. AllocsPerRun truncates its
	// average to a whole number, so each run makes 100 deliveries.
	allocs := testing.AllocsPerRun(50, func() {
		for range 100 {
			sink.Message(0, env, Agreed, 1, to)
			got = (<-n.events).(*Message)
		}
	}) / 100
	t.Logf("allocations per delivery: %.3f", allocs)
	if allocs > 0.2 {
		t.Fatalf("%.3f allocations per delivery, want at most 0.2", allocs)
	}
	if got.Sender != n.self || len(got.Groups) != 1 || got.Groups[0] != "g" ||
		len(got.Payload) != 1350 || &got.Payload[0] == &env.Payload[0] {
		t.Fatalf("delivered %+v", got)
	}
}
