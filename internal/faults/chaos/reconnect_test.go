package chaos

// Kill-and-reconnect chaos sweep over real daemons and TCP clients: each
// seed derives per-receiver connection-kill points; the client library's
// reconnect-with-resume must deliver every message exactly once, in the
// same total order, at every receiver. A second test injects forged
// (bad-HMAC) wire and session frames into a keyed cluster and checks
// they are counted and dropped without perturbing ordering.

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"accelring/internal/client"
	"accelring/internal/daemon"
	"accelring/internal/evs"
	"accelring/internal/faults"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/session"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

func reconnectTimeouts() membership.Timeouts {
	return membership.Timeouts{
		JoinInterval:    5 * time.Millisecond,
		Gather:          25 * time.Millisecond,
		Commit:          50 * time.Millisecond,
		TokenLoss:       100 * time.Millisecond,
		TokenRetransmit: 30 * time.Millisecond,
	}
}

// startCluster boots n daemons on one in-process hub. With key set, both
// the ring wire frames and the client session frames are authenticated.
func startCluster(t *testing.T, n int, key []byte) ([]*daemon.Daemon, []*obs.Registry, *transport.Hub) {
	t.Helper()
	hub := transport.NewHub()
	daemons := make([]*daemon.Daemon, n)
	regs := make([]*obs.Registry, n)
	for i := 0; i < n; i++ {
		id := evs.ProcID(i + 1)
		ep, err := hub.Endpoint(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = obs.NewRegistry()
		var tr transport.Transport = ep
		if len(key) != 0 {
			tr = transport.WithAuth(ep, wire.DeriveKey(key, "ring0"), regs[i], nil)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ringCfg := ringnode.Accelerated(id, tr, 10, 100, 7)
		ringCfg.Timeouts = reconnectTimeouts()
		d, err := daemon.Start(daemon.Config{
			Ring:     ringCfg,
			Listener: ln,
			Obs:      regs[i],
			Key:      key,
		})
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
				return daemons, regs, hub
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemons did not converge on one ring")
	return nil, nil, nil
}

// killableConn tracks a client's live connection so the sweep can sever
// it at seeded points.
type killableConn struct {
	mu  sync.Mutex
	cur net.Conn
}

func (k *killableConn) dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err == nil {
		k.mu.Lock()
		k.cur = c
		k.mu.Unlock()
	}
	return c, err
}

func (k *killableConn) kill() {
	k.mu.Lock()
	if k.cur != nil {
		k.cur.Close()
	}
	k.mu.Unlock()
}

// receiverRun is one receiver's transcript from a sweep run.
type receiverRun struct {
	payloads  []string
	resumes   int
	fresh     int // reconnects that lost the session (must stay 0)
	killsLeft []int
}

// TestReconnectResumeSweep: 24 seeds; each derives kill points for three
// receivers whose TCP connections are severed mid-stream while a fourth
// client multicasts. Reconnect-with-resume must leave every receiver
// with all messages, exactly once, in one total order.
func TestReconnectResumeSweep(t *testing.T) {
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
			runReconnectSeed(t, faults.ReplaySeed(t, seed))
		})
	}
}

func runReconnectSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const (
		nDaemons  = 2
		nReceiver = 3
		total     = 60
	)
	daemons, regs, _ := startCluster(t, nDaemons, nil)

	sender, err := client.Dial("tcp", daemons[0].Addr().String(), "sender")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sender.Close() })

	recvs := make([]*client.Client, nReceiver)
	runs := make([]*receiverRun, nReceiver)
	killers := make([]*killableConn, nReceiver)
	for i := range recvs {
		killers[i] = &killableConn{}
		recvs[i], err = client.DialWith(client.Config{
			Network:   "tcp",
			Addr:      daemons[(i+1)%nDaemons].Addr().String(),
			Name:      fmt.Sprintf("recv%d", i),
			Reconnect: true,
			AckEvery:  1 + rng.Intn(8),
			Dialer:    killers[i].dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := recvs[i]
		t.Cleanup(func() { c.Close() })
		// One or two seeded kill points, as delivered-count thresholds.
		kills := []int{5 + rng.Intn(total-10)}
		if rng.Intn(2) == 1 {
			kills = append(kills, 5+rng.Intn(total-10))
		}
		sort.Ints(kills)
		runs[i] = &receiverRun{killsLeft: kills}
	}

	// All receivers join and agree on the three-member view before any
	// message is sent, so every message is owed to every receiver.
	for _, c := range recvs {
		if err := c.Join("sweep"); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range recvs {
		waitMembers(t, c, "sweep", nReceiver)
	}

	for j := 0; j < total; j++ {
		if err := sender.Multicast(evs.Agreed, []byte(fmt.Sprintf("m%03d", j)), "sweep"); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, nReceiver)
	for i := range recvs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, run, killer := recvs[i], runs[i], killers[i]
			deadline := time.After(30 * time.Second)
			for len(run.payloads) < total {
				select {
				case ev, ok := <-c.Events():
					if !ok {
						errs <- fmt.Errorf("recv%d: stream closed after %d deliveries: %v",
							i, len(run.payloads), c.Err())
						return
					}
					switch v := ev.(type) {
					case *client.Message:
						run.payloads = append(run.payloads, string(v.Payload))
						if len(run.killsLeft) > 0 && len(run.payloads) >= run.killsLeft[0] {
							run.killsLeft = run.killsLeft[1:]
							killer.kill()
						}
					case *client.Reconnected:
						if v.Resumed {
							run.resumes++
						} else {
							run.fresh++
						}
					}
				case <-deadline:
					errs <- fmt.Errorf("recv%d: timed out with %d/%d deliveries (resumes=%d)",
						i, len(run.payloads), total, run.resumes)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.Fatalf("seed %d failed; replay with %s=%d", seed, faults.SeedEnv, seed)
	}

	for i, run := range runs {
		seen := make(map[string]bool, total)
		for _, p := range run.payloads {
			if seen[p] {
				t.Fatalf("seed %d recv%d: duplicate delivery %q", seed, i, p)
			}
			seen[p] = true
		}
		if len(run.payloads) != total {
			t.Fatalf("seed %d recv%d: %d/%d deliveries", seed, i, len(run.payloads), total)
		}
		if run.fresh != 0 {
			t.Fatalf("seed %d recv%d: %d reconnects lost the session", seed, i, run.fresh)
		}
		for j, p := range run.payloads {
			if p != runs[0].payloads[j] {
				t.Fatalf("seed %d: recv%d delivered %q at %d, recv0 delivered %q (reorder)",
					seed, i, p, j, runs[0].payloads[j])
			}
		}
	}
	// Every kill must be answered by a resume, daemon-side too. The
	// reconnect can still be in flight when delivery completes (a kill
	// that lands after the remaining frames were already buffered
	// client-side resumes in the background), so poll.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var resumes uint64
		for _, reg := range regs {
			resumes += reg.Counter("daemon.resumes").Value()
		}
		if resumes > 0 {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("seed %d: connections were killed but no daemon recorded a resume", seed)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitMembers(t *testing.T, c *client.Client, groupName string, want int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatalf("stream closed: %v", c.Err())
			}
			if v, isView := ev.(*client.View); isView && v.Group == groupName && len(v.Members) == want {
				return
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %d members of %q", want, groupName)
		}
	}
}

// TestForgedFramesRejected: a keyed cluster under attack from a rogue
// hub endpoint (forged ring wire frames) and a rogue TCP client (forged
// session frames). Every forgery is counted and dropped, and the
// survivors' total order is unperturbed.
func TestForgedFramesRejected(t *testing.T) {
	key := []byte("sweep master key")
	daemons, regs, hub := startCluster(t, 2, key)

	mkClient := func(i int, name string) *client.Client {
		t.Helper()
		c, err := client.DialWith(client.Config{
			Network: "tcp", Addr: daemons[i].Addr().String(), Name: name, Key: key,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	a := mkClient(0, "a")
	b := mkClient(1, "b")
	for _, c := range []*client.Client{a, b} {
		if err := c.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []*client.Client{a, b} {
		waitMembers(t, c, "g", 2)
	}

	if err := a.Multicast(evs.Agreed, []byte("before"), "g"); err != nil {
		t.Fatal(err)
	}

	// Rogue ring endpoint: unkeyed data and token frames multicast into
	// the keyed ring.
	rogue, err := hub.Endpoint(evs.ProcID(99), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		frame := make([]byte, 16+rng.Intn(64))
		rng.Read(frame)
		rogue.Multicast(frame)
		rogue.Unicast(evs.ProcID(1+i%2), frame)
	}

	// Rogue session client: unsigned frames on a fresh TCP connection.
	raw, err := net.Dial("tcp", daemons[0].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	session.WriteFrame(raw, session.Connect{Name: "forger"})

	if err := a.Multicast(evs.Agreed, []byte("after"), "g"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*client.Client{a, b} {
		for _, want := range []string{"before", "after"} {
			deadline := time.After(10 * time.Second)
			for {
				var got string
				select {
				case ev, ok := <-c.Events():
					if !ok {
						t.Fatalf("stream closed: %v", c.Err())
					}
					if m, isMsg := ev.(*client.Message); isMsg {
						got = string(m.Payload)
					}
				case <-deadline:
					t.Fatalf("timed out waiting for %q", want)
				}
				if got == want {
					break
				}
				if got != "" {
					t.Fatalf("delivered %q while waiting for %q (forgery perturbed order)", got, want)
				}
			}
		}
	}

	waitForgeryCounters(t, regs, "transport.auth_drops", 1)
	waitForgeryCounters(t, regs, "daemon.auth_drops", 1)
}

func waitForgeryCounters(t *testing.T, regs []*obs.Registry, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var total uint64
		for _, reg := range regs {
			total += reg.Counter(name).Value()
		}
		if total >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s stayed below %d across the cluster", name, want)
}
