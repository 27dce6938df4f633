package daemon

import (
	"fmt"
	"net"
	"testing"
	"time"

	"accelring/internal/client"
	"accelring/internal/evs"
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

// startDaemons launches n daemons on an in-process hub with TCP client
// listeners, and waits for the ring to form.
func startDaemons(t *testing.T, n int) []*Daemon {
	t.Helper()
	return startDaemonsOnHub(t, n, transport.NewHub())
}

// startDaemonsOnHub is startDaemons on a caller-provided hub, so tests
// can attach a fault injector before the daemons come up.
func startDaemonsOnHub(t *testing.T, n int, hub *transport.Hub) []*Daemon {
	t.Helper()
	daemons := make([]*Daemon, n)
	for i := 0; i < n; i++ {
		id := evs.ProcID(i + 1)
		ep, err := hub.Endpoint(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ringCfg := ringnode.Accelerated(id, ep, 10, 100, 7)
		ringCfg.Timeouts = fastTimeouts()
		d, err := Start(Config{Ring: ringCfg, Listener: ln})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Stop)
		daemons[i] = d
	}
	for i, d := range daemons {
		if !d.WaitOperational(10 * time.Second) {
			t.Fatalf("daemon %d did not become operational", i)
		}
	}
	// Wait for all daemons to share one full ring.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(daemons[0].RingNode(0).Status().Ring.Members) == n {
			ok := true
			for _, d := range daemons[1:] {
				if !d.RingNode(0).Status().Ring.Equal(daemons[0].RingNode(0).Status().Ring) {
					ok = false
				}
			}
			if ok {
				return daemons
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemons did not converge on one ring")
	return nil
}

func dial(t testing.TB, d *Daemon, name string) *client.Client {
	t.Helper()
	c, err := client.Dial("tcp", d.Addr().String(), name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// nextEvent waits for the next event of type T, skipping others.
func nextMessage(t testing.TB, c *client.Client, within time.Duration) *client.Message {
	t.Helper()
	deadline := time.After(within)
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatalf("event stream closed: %v", c.Err())
			}
			if m, isMsg := ev.(*client.Message); isMsg {
				return m
			}
		case <-deadline:
			t.Fatal("timed out waiting for message")
		}
	}
}

func nextView(t testing.TB, c *client.Client, groupName string, within time.Duration) *client.View {
	t.Helper()
	deadline := time.After(within)
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatalf("event stream closed: %v", c.Err())
			}
			if v, isView := ev.(*client.View); isView && v.Group == groupName {
				return v
			}
		case <-deadline:
			t.Fatalf("timed out waiting for view of %q", groupName)
		}
	}
}

func TestClientJoinSendReceive(t *testing.T) {
	daemons := startDaemons(t, 3)
	alice := dial(t, daemons[0], "alice")
	bob := dial(t, daemons[1], "bob")

	if err := alice.Join("chat"); err != nil {
		t.Fatal(err)
	}
	if err := bob.Join("chat"); err != nil {
		t.Fatal(err)
	}
	// Both must eventually see the 2-member view.
	for _, c := range []*client.Client{alice, bob} {
		for {
			v := nextView(t, c, "chat", 5*time.Second)
			if len(v.Members) == 2 {
				break
			}
		}
	}
	if err := alice.Multicast(evs.Agreed, []byte("hello bob"), "chat"); err != nil {
		t.Fatal(err)
	}
	// Self-delivery: alice receives her own message too.
	for _, c := range []*client.Client{alice, bob} {
		m := nextMessage(t, c, 5*time.Second)
		if string(m.Payload) != "hello bob" || m.Sender != alice.ID() {
			t.Fatalf("got %+v", m)
		}
	}
}

func TestOpenGroupSemantics(t *testing.T) {
	daemons := startDaemons(t, 2)
	member := dial(t, daemons[0], "member")
	outsider := dial(t, daemons[1], "outsider")
	if err := member.Join("g"); err != nil {
		t.Fatal(err)
	}
	nextView(t, member, "g", 5*time.Second)
	// The outsider sends without joining.
	if err := outsider.Multicast(evs.Agreed, []byte("from outside"), "g"); err != nil {
		t.Fatal(err)
	}
	m := nextMessage(t, member, 5*time.Second)
	if string(m.Payload) != "from outside" || m.Sender != outsider.ID() {
		t.Fatalf("got %+v", m)
	}
}

func TestMultiGroupMulticastDeliversOnce(t *testing.T) {
	daemons := startDaemons(t, 2)
	both := dial(t, daemons[0], "both")     // member of g1 AND g2
	sender := dial(t, daemons[1], "sender") // member of neither
	if err := both.Join("g1"); err != nil {
		t.Fatal(err)
	}
	if err := both.Join("g2"); err != nil {
		t.Fatal(err)
	}
	nextView(t, both, "g1", 5*time.Second)
	nextView(t, both, "g2", 5*time.Second)
	if err := sender.Multicast(evs.Agreed, []byte("multi"), "g1", "g2"); err != nil {
		t.Fatal(err)
	}
	if err := sender.Multicast(evs.Agreed, []byte("after"), "g1"); err != nil {
		t.Fatal(err)
	}
	// "multi" must arrive exactly once despite double membership, then
	// "after" — nothing in between.
	m1 := nextMessage(t, both, 5*time.Second)
	if string(m1.Payload) != "multi" || len(m1.Groups) != 2 {
		t.Fatalf("got %+v", m1)
	}
	m2 := nextMessage(t, both, 5*time.Second)
	if string(m2.Payload) != "after" {
		t.Fatalf("multi-group message delivered twice: got %q", m2.Payload)
	}
}

func TestTotalOrderAcrossClients(t *testing.T) {
	daemons := startDaemons(t, 3)
	var clients []*client.Client
	for i, d := range daemons {
		c := dial(t, d, fmt.Sprintf("c%d", i))
		if err := c.Join("room"); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	// Let the views settle.
	for _, c := range clients {
		for {
			v := nextView(t, c, "room", 5*time.Second)
			if len(v.Members) == 3 {
				break
			}
		}
	}
	const perClient = 10
	for i, c := range clients {
		for k := 0; k < perClient; k++ {
			if err := c.Multicast(evs.Agreed, []byte(fmt.Sprintf("%d-%d", i, k)), "room"); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := perClient * len(clients)
	var ref []string
	for i, c := range clients {
		var got []string
		for len(got) < total {
			m := nextMessage(t, c, 10*time.Second)
			got = append(got, string(m.Payload))
		}
		if i == 0 {
			ref = got
			continue
		}
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("client %d order differs at %d: %q vs %q", i, k, got[k], ref[k])
			}
		}
	}
}

func TestDisconnectUpdatesViews(t *testing.T) {
	daemons := startDaemons(t, 2)
	a := dial(t, daemons[0], "a")
	b := dial(t, daemons[1], "b")
	if err := a.Join("g"); err != nil {
		t.Fatal(err)
	}
	if err := b.Join("g"); err != nil {
		t.Fatal(err)
	}
	for {
		v := nextView(t, a, "g", 5*time.Second)
		if len(v.Members) == 2 {
			break
		}
	}
	b.Close()
	for {
		v := nextView(t, a, "g", 5*time.Second)
		if len(v.Members) == 1 && v.Members[0] == a.ID() {
			break
		}
	}
}

func TestSafeServiceThroughDaemon(t *testing.T) {
	daemons := startDaemons(t, 3)
	c0 := dial(t, daemons[0], "c0")
	c1 := dial(t, daemons[1], "c1")
	for _, c := range []*client.Client{c0, c1} {
		if err := c.Join("safe-room"); err != nil {
			t.Fatal(err)
		}
	}
	for {
		v := nextView(t, c0, "safe-room", 5*time.Second)
		if len(v.Members) == 2 {
			break
		}
	}
	if err := c0.Multicast(evs.Safe, []byte("stable"), "safe-room"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*client.Client{c0, c1} {
		m := nextMessage(t, c, 5*time.Second)
		if m.Service != evs.Safe || string(m.Payload) != "stable" {
			t.Fatalf("got %+v", m)
		}
	}
}

func TestClientValidation(t *testing.T) {
	daemons := startDaemons(t, 1)
	c := dial(t, daemons[0], "v")
	if err := c.Join(""); err != group.ErrBadGroup {
		t.Fatalf("Join(\"\") = %v", err)
	}
	if err := c.Multicast(evs.Agreed, nil); err == nil {
		t.Fatal("multicast with no groups accepted")
	}
	if err := c.Multicast(evs.Service(0), nil, "g"); err == nil {
		t.Fatal("invalid service accepted")
	}
}
