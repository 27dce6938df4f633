package groupcore

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// hostLog is a Sink recording one node's globally ordered messages as
// "r<ring> <payload>".
type hostLog struct {
	mu   sync.Mutex
	msgs []string
}

func (l *hostLog) Message(ring int, env *group.Envelope, _ evs.Service, _ uint64, _ []group.ClientID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.msgs = append(l.msgs, fmt.Sprintf("r%d %s", ring, env.Payload))
}
func (*hostLog) View(string, []group.ClientID, group.ClientID) {}
func (*hostLog) Config(int, evs.ConfigChange)                  {}
func (*hostLog) Rejected(group.ClientID, group.OpKind, error)  {}
func (*hostLog) Migrated(string, int, int)                     {}

func (l *hostLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.msgs...)
}

// waitLen polls until the log holds n messages, returning them.
func (l *hostLog) waitLen(t *testing.T, n int) []string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := l.snapshot()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d messages, want %d: %q", len(got), n, got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func hostRing(self evs.ProcID) ringnode.Config {
	rc := ringnode.Accelerated(self, nil, 10, 100, 7)
	rc.Timeouts = fastTimeouts()
	return rc
}

// startHosts starts one host per node, each running `shards` rings over
// per-ring hubs, and waits for every ring to become operational.
func startHosts(t *testing.T, nodes, shards int) ([]*Host, []*hostLog, []*transport.Hub) {
	t.Helper()
	hubs := make([]*transport.Hub, shards)
	for r := range hubs {
		hubs[r] = transport.NewHub()
	}
	hosts := make([]*Host, nodes)
	logs := make([]*hostLog, nodes)
	for i := range hosts {
		self := evs.ProcID(i + 1)
		logs[i] = &hostLog{}
		h, err := Start(HostConfig{
			Shards: shards,
			Ring:   hostRing(self),
			NewTransport: func(ring int) (transport.Transport, error) {
				return hubs[ring].Endpoint(self, 0, 0)
			},
			Sink: logs[i],
		})
		if err != nil {
			t.Fatalf("node %d: %v", self, err)
		}
		t.Cleanup(h.Stop)
		hosts[i] = h
	}
	for i, h := range hosts {
		for r := 0; r < shards; r++ {
			if !h.RingNode(r).WaitState(membership.StateOperational, 5*time.Second) {
				t.Fatalf("node %d: ring %d did not become operational", i+1, r)
			}
		}
	}
	return hosts, logs, hubs
}

// TestShardedPerGroupTotalOrder runs a 3-node, 2-ring cluster, routes two
// groups to their owning rings, and checks what the host promises: each
// group's traffic appears only on its owning ring, and every node delivers
// the rings' merged stream in one identical global order.
func TestShardedPerGroupTotalOrder(t *testing.T) {
	hosts, logs, _ := startHosts(t, 3, 2)

	// Two groups that land on different rings (pinned by group.RingOf).
	gA, gB := "g-0", "g-1"
	if group.RingOf(gA, 2) == group.RingOf(gB, 2) {
		t.Fatalf("test groups map to the same ring; pick different names")
	}

	const perSender = 20
	var wg sync.WaitGroup
	for i, h := range hosts {
		wg.Add(1)
		go func(sender int, c *Core) {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				for _, name := range []string{gA, gB} {
					env := group.Envelope{
						Kind: group.OpMessage, Sender: cid(evs.ProcID(sender+1), 1), Groups: []string{name},
						Payload: []byte(fmt.Sprintf("%s/n%d/m%d", name, sender, k)),
					}
					for c.Submit(c.RingOfGroup(name), &env, evs.Agreed) != nil {
						time.Sleep(time.Millisecond)
					}
				}
			}
		}(i, h.Core())
	}
	wg.Wait()

	want := 2 * len(hosts) * perSender
	ref := logs[0].waitLen(t, want)
	for _, m := range ref {
		ring, payload, _ := strings.Cut(m, " ")
		name, _, _ := strings.Cut(payload, "/")
		if ring != fmt.Sprintf("r%d", group.RingOf(name, 2)) {
			t.Fatalf("ring leakage: %q delivered on %s", payload, ring)
		}
	}
	for i, l := range logs[1:] {
		got := l.waitLen(t, want)
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("delivery %d differs: node %d got %q, node 1 got %q", k, i+2, got[k], ref[k])
			}
		}
	}
}

// TestShardIsolation cuts one ring's connectivity and checks the other
// ring keeps ordering traffic: ring instances fail independently.
func TestShardIsolation(t *testing.T) {
	hosts, _, hubs := startHosts(t, 2, 2)

	// Cut ring 1's hub completely; ring 0 must keep working.
	var cut faults.Plan
	cut.Add(faults.Rule{Name: "cut", Model: faults.Loss{P: 1}})
	hubs[1].SetInjector(faults.New(1, cut))

	deadline := time.Now().Add(5 * time.Second)
	sent := 0
	for time.Now().Before(deadline) && sent < 10 {
		if err := hosts[0].Submit(0, []byte(fmt.Sprintf("alive-%d", sent)), evs.Agreed); err == nil {
			sent++
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if sent < 10 {
		t.Fatalf("ring 0 stopped accepting traffic while ring 1 was cut (sent %d)", sent)
	}
	for time.Now().Before(deadline) {
		if hosts[1].RingNode(0).Status().Engine.Delivered >= 10 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node 2 delivered %d ring-0 messages while ring 1 was cut, want 10",
		hosts[1].RingNode(0).Status().Engine.Delivered)
}

// TestStartValidation covers constructor failure paths.
func TestStartValidation(t *testing.T) {
	rc := hostRing(1)
	if _, err := Start(HostConfig{Shards: 0, Ring: rc}); err == nil {
		t.Fatal("Shards=0 accepted")
	}
	if _, err := Start(HostConfig{Shards: MaxShards + 1, Ring: rc}); err == nil {
		t.Fatal("Shards beyond MaxShards accepted")
	}
	if _, err := Start(HostConfig{Shards: 2, Ring: rc}); err == nil {
		t.Fatal("nil NewTransport accepted")
	}
	boom := errors.New("boom")
	hub := transport.NewHub()
	_, err := Start(HostConfig{
		Shards: 2,
		Ring:   rc,
		NewTransport: func(ring int) (transport.Transport, error) {
			if ring == 1 {
				return nil, boom
			}
			return hub.Endpoint(1, 0, 0)
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Start = %v, want the transport error", err)
	}
}

// closeTracker records whether its transport was closed.
type closeTracker struct {
	transport.Transport
	closed atomic.Bool
}

func (c *closeTracker) Close() error {
	c.closed.Store(true)
	return c.Transport.Close()
}

// hostGoroutines counts the live goroutines this package's host code
// started, as opposed to its rings' (started by ringnode) and the tests'.
func hostGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "created by accelring/internal/groupcore.Start") +
		strings.Count(stacks, "created by accelring/internal/groupcore.(*")
}

// TestStartFailureStopsStartedRings: when ring 1 cannot start, ring 0,
// already running, is stopped with its transport closed, and no goroutine
// of the host's is left behind.
func TestStartFailureStopsStartedRings(t *testing.T) {
	hub := transport.NewHub()
	ep, err := hub.Endpoint(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ring0 := &closeTracker{Transport: ep}
	_, err = Start(HostConfig{
		Shards: 2,
		Ring:   hostRing(1),
		NewTransport: func(ring int) (transport.Transport, error) {
			if ring == 1 {
				return nil, errors.New("boom")
			}
			return ring0, nil
		},
	})
	if err == nil {
		t.Fatal("Start succeeded without ring 1")
	}
	if !ring0.closed.Load() {
		t.Fatal("ring 0's transport left open after the failed start")
	}
	if n := hostGoroutines(); n != 0 {
		t.Fatalf("%d host goroutines outlived the failed start", n)
	}
}

// TestHostStopIdempotent: a host starts no goroutine beyond its rings',
// for one ring or several (the merge claims skips from the ring
// goroutines), a second Stop returns at once, and the stopped host refuses
// submissions.
func TestHostStopIdempotent(t *testing.T) {
	for _, shards := range []int{1, 2} {
		hosts, _, _ := startHosts(t, 1, shards)
		h := hosts[0]
		if n := hostGoroutines(); n != 0 {
			t.Fatalf("a %d-ring host runs %d goroutines of its own", shards, n)
		}
		h.Stop()
		stopped := make(chan struct{})
		go func() {
			h.Stop()
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d rings: second Stop blocked", shards)
		}
		if err := h.Submit(0, []byte("late"), evs.Agreed); !errors.Is(err, ringnode.ErrStopped) {
			t.Fatalf("%d rings: Submit after Stop = %v, want ErrStopped", shards, err)
		}
	}
}
