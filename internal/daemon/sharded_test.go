package daemon

import (
	"fmt"
	"net"
	"testing"
	"time"

	"accelring/internal/client"
	"accelring/internal/evs"
	"accelring/internal/faults"
	"accelring/internal/group"
	"accelring/internal/membership"
	"accelring/internal/ringnode"
	"accelring/internal/transport"
)

// startShardedDaemons launches n daemons, each running `shards` ring
// instances over per-ring hubs, and waits for every ring to converge.
func startShardedDaemons(t testing.TB, n, shards int) []*Daemon {
	t.Helper()
	return startShardedDaemonsCfg(t, n, shards, nil)
}

// startShardedDaemonsCfg is startShardedDaemons with a config hook, so
// tests can observe the daemons.
func startShardedDaemonsCfg(t testing.TB, n, shards int, tune func(*Config)) []*Daemon {
	t.Helper()
	hubs := make([]*transport.Hub, shards)
	for r := range hubs {
		hubs[r] = transport.NewHub()
	}
	daemons := make([]*Daemon, n)
	for i := 0; i < n; i++ {
		id := evs.ProcID(i + 1)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ringCfg := ringnode.Accelerated(id, nil, 10, 100, 7)
		ringCfg.Timeouts = fastTimeouts()
		cfg := Config{
			Ring:   ringCfg,
			Shards: shards,
			NewTransport: func(ring int) (transport.Transport, error) {
				return hubs[ring].Endpoint(id, 0, 0)
			},
			Listener: ln,
		}
		if shards == 1 {
			// Single-ring mode takes its transport from the ring config
			// directly (NewTransport is ignored), so benchmarks can use
			// this helper as the unsharded baseline too.
			ep, err := hubs[0].Endpoint(id, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Ring.Transport = ep
		}
		if tune != nil {
			tune(&cfg)
		}
		d, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Stop)
		daemons[i] = d
	}
	for i, d := range daemons {
		if !d.WaitOperational(10 * time.Second) {
			t.Fatalf("daemon %d rings did not become operational", i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for r := 0; r < shards; r++ {
			ref := daemons[0].RingNode(r).Status().Ring
			if len(ref.Members) != n {
				ok = false
				break
			}
			for _, d := range daemons[1:] {
				if !d.RingNode(r).Status().Ring.Equal(ref) {
					ok = false
					break
				}
			}
		}
		if ok {
			return daemons
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("sharded daemons did not converge on full rings")
	return nil
}

// TestShardedDaemonRouting drives the whole client path through a 2-shard
// daemon pair: groups on different rings, per-group total order across
// clients, multi-ring multicasts, and a disconnect reaching every ring.
func TestShardedDaemonRouting(t *testing.T) {
	daemons := startShardedDaemons(t, 2, 2)

	// "g-0" is owned by ring 1, "g-1" by ring 0 (pinned by group.RingOf).
	gA, gB := "g-0", "g-1"
	if group.RingOf(gA, 2) == group.RingOf(gB, 2) {
		t.Fatal("test groups collapsed onto one ring")
	}

	alice := dial(t, daemons[0], "alice")
	bob := dial(t, daemons[1], "bob")
	for _, g := range []string{gA, gB} {
		if err := alice.Join(g); err != nil {
			t.Fatal(err)
		}
		nextView(t, alice, g, 5*time.Second)
		if err := bob.Join(g); err != nil {
			t.Fatal(err)
		}
		nextView(t, bob, g, 5*time.Second)
		// Alice also sees bob's join view, in order.
		nextView(t, alice, g, 5*time.Second)
	}

	// Both clients send into both groups; every member must deliver each
	// group's stream in one identical order.
	const perSender = 10
	for k := 0; k < perSender; k++ {
		for _, g := range []string{gA, gB} {
			if err := alice.Multicast(evs.Agreed, []byte(fmt.Sprintf("%s/alice/%d", g, k)), g); err != nil {
				t.Fatal(err)
			}
			if err := bob.Multicast(evs.Agreed, []byte(fmt.Sprintf("%s/bob/%d", g, k)), g); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := 2 * 2 * perSender                       // 2 senders x 2 groups
	streams := make(map[string]map[string][]string) // client -> group -> payloads
	for name, c := range map[string]*client.Client{"alice": alice, "bob": bob} {
		streams[name] = map[string][]string{}
		for i := 0; i < want; i++ {
			m := nextMessage(t, c, 10*time.Second)
			if len(m.Groups) != 1 {
				t.Fatalf("single-group send delivered with groups %v", m.Groups)
			}
			g := m.Groups[0]
			streams[name][g] = append(streams[name][g], string(m.Payload))
		}
	}
	for _, g := range []string{gA, gB} {
		a, b := streams["alice"][g], streams["bob"][g]
		if len(a) != 2*perSender || len(b) != 2*perSender {
			t.Fatalf("group %s: alice got %d, bob got %d, want %d", g, len(a), len(b), 2*perSender)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("group %s delivery %d diverged: alice %q, bob %q", g, i, a[i], b[i])
			}
		}
	}

	// A multicast spanning both rings splits into one ordered message per
	// ring: a member of both groups receives one copy per owning ring.
	if err := alice.Multicast(evs.Agreed, []byte("both"), gA, gB); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		m := nextMessage(t, bob, 10*time.Second)
		if string(m.Payload) != "both" || len(m.Groups) != 1 {
			t.Fatalf("split send copy %d: payload %q groups %v", i, m.Payload, m.Groups)
		}
		got[m.Groups[0]] = true
	}
	if !got[gA] || !got[gB] {
		t.Fatalf("split send did not cover both rings: %v", got)
	}
	// Drain alice's own two copies.
	for i := 0; i < 2; i++ {
		nextMessage(t, alice, 10*time.Second)
	}

	// Closing alice must evict her from groups on BOTH rings. The two
	// rings announce independently, so the views arrive in any order.
	aliceID := alice.ID()
	alice.Close()
	pending := map[string]bool{gA: true, gB: true}
	deadline := time.After(10 * time.Second)
	for len(pending) > 0 {
		select {
		case ev, ok := <-bob.Events():
			if !ok {
				t.Fatalf("bob's event stream closed: %v", bob.Err())
			}
			v, isView := ev.(*client.View)
			if !isView || !pending[v.Group] {
				continue
			}
			for _, m := range v.Members {
				if m == aliceID {
					t.Fatalf("group %s view still lists disconnected alice", v.Group)
				}
			}
			delete(pending, v.Group)
		case <-deadline:
			t.Fatalf("timed out waiting for disconnect views; still pending %v", pending)
		}
	}
}

// TestShardedStartValidation checks sharded-mode constructor errors.
func TestShardedStartValidation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ringCfg := ringnode.Accelerated(1, nil, 10, 100, 7)
	if _, err := Start(Config{Ring: ringCfg, Shards: 2, Listener: ln}); err == nil {
		t.Fatal("sharded start without NewTransport accepted")
	}
}

// TestDisconnectWhileRingZeroForms: a client whose daemon has not formed
// ring 0 — here it never will, cut off on that ring's hub — still leaves
// its groups on the other rings when it disconnects, because the ordered
// disconnect rides the first ring that takes it.
func TestDisconnectWhileRingZeroForms(t *testing.T) {
	hubs := []*transport.Hub{transport.NewHub(), transport.NewHub()}
	var cut faults.Plan
	cut.Add(faults.Rule{Name: "cut", Model: faults.Loss{P: 1},
		Match: func(p faults.Packet) bool { return p.From == 2 || p.To == 2 }})
	hubs[0].SetInjector(faults.New(1, cut))
	daemons := make([]*Daemon, 2)
	for i := range daemons {
		id := evs.ProcID(i + 1)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ringCfg := ringnode.Accelerated(id, nil, 10, 100, 7)
		ringCfg.Timeouts = fastTimeouts()
		d, err := Start(Config{Ring: ringCfg, Shards: 2, Listener: ln,
			NewTransport: func(ring int) (transport.Transport, error) { return hubs[ring].Endpoint(id, 0, 0) }})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Stop)
		daemons[i] = d
	}
	observer, cutOff := daemons[0], daemons[1]
	g := "g-0" // ring 1 by the pinned hash
	if group.RingOf(g, 2) != 1 {
		t.Fatal("test group does not live on ring 1")
	}
	waitMembers := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for len(observer.core.Members(g)) != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: members of %s = %v", what, g, observer.core.Members(g))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for !observer.WaitOperational(0) || len(observer.RingNode(1).Status().Ring.Members) != 2 ||
		!cutOff.RingNode(1).Status().Ring.Equal(observer.RingNode(1).Status().Ring) {
		if time.Now().After(deadline) {
			t.Fatal("ring 1 did not form across both daemons")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c := dial(t, cutOff, "leaver")
	if err := c.Join(g); err != nil {
		t.Fatal(err)
	}
	waitMembers(1, "join never ordered")
	if cutOff.RingNode(0).Status().State == membership.StateOperational {
		t.Fatal("ring 0 formed on the cut-off daemon")
	}
	c.Close()
	waitMembers(0, "disconnected client still a member")
}
