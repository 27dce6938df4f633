package daemon

// Tests for the daemon-hardening features: tiered backpressure with
// throttle notifications, reconnect-with-resume, graceful drain, and
// authenticated session frames.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"accelring/internal/client"
	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/session"
	"accelring/internal/transport"
)

// startDaemonsObs is startDaemons with per-daemon metric registries and
// flight recorders, plus a config hook for the hardening knobs.
func startDaemonsObs(t *testing.T, n int, mut func(*Config)) ([]*Daemon, []*obs.Registry) {
	t.Helper()
	hub := transport.NewHub()
	daemons := make([]*Daemon, n)
	regs := make([]*obs.Registry, n)
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
		regs[i] = obs.NewRegistry()
		cfg := Config{
			Ring:     ringCfg,
			Listener: ln,
			Obs:      regs[i],
			Flight:   obs.NewRecorder(256),
		}
		if mut != nil {
			mut(&cfg)
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
				return daemons, regs
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemons did not converge on one ring")
	return nil, nil
}

// connKiller is a client.Config.Dialer that remembers the live
// connection so the test can sever it mid-stream.
type connKiller struct {
	mu  sync.Mutex
	cur net.Conn
}

func (k *connKiller) dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err == nil {
		k.mu.Lock()
		k.cur = c
		k.mu.Unlock()
	}
	return c, err
}

func (k *connKiller) kill() {
	k.mu.Lock()
	if k.cur != nil {
		k.cur.Close()
	}
	k.mu.Unlock()
}

// waitCounter polls a metric until it reaches want or the deadline hits.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter(name).Value() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s = %d, want >= %d", name, reg.Counter(name).Value(), want)
}

// TestResumeAcrossReconnect severs a client's TCP connection mid-stream
// and checks that the transparent reconnect resumes the session with no
// delivery lost, duplicated, or reordered.
func TestResumeAcrossReconnect(t *testing.T) {
	daemons, regs := startDaemonsObs(t, 1, nil)
	sender := dial(t, daemons[0], "sender")

	killer := &connKiller{}
	recv, err := client.DialWith(client.Config{
		Network:   "tcp",
		Addr:      daemons[0].Addr().String(),
		Name:      "recv",
		Reconnect: true,
		AckEvery:  8,
		Dialer:    killer.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	if err := recv.Join("g"); err != nil {
		t.Fatal(err)
	}
	nextView(t, recv, "g", 5*time.Second)

	const total = 50
	for i := 0; i < total/2; i++ {
		if err := sender.Multicast(evs.Agreed, []byte(fmt.Sprintf("m%02d", i)), "g"); err != nil {
			t.Fatal(err)
		}
	}

	var got []string
	resumed := 0
	deadline := time.After(15 * time.Second)
	killed := false
	for len(got) < total {
		select {
		case ev, ok := <-recv.Events():
			if !ok {
				t.Fatalf("event stream closed: %v", recv.Err())
			}
			switch v := ev.(type) {
			case *client.Message:
				got = append(got, string(v.Payload))
			case *client.Reconnected:
				if !v.Resumed {
					t.Fatal("reconnect fell back to a fresh session")
				}
				resumed++
			}
		case <-deadline:
			t.Fatalf("timed out with %d/%d messages (resumed %d times)", len(got), total, resumed)
		}
		if !killed && len(got) >= 5 {
			killed = true
			killer.kill()
			for i := total / 2; i < total; i++ {
				if err := sender.Multicast(evs.Agreed, []byte(fmt.Sprintf("m%02d", i)), "g"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i, p := range got {
		if want := fmt.Sprintf("m%02d", i); p != want {
			t.Fatalf("delivery %d = %q, want %q (loss, duplication, or reorder)", i, p, want)
		}
	}
	if resumed == 0 {
		t.Fatal("connection was killed but no Reconnected event arrived")
	}
	waitCounter(t, regs[0], "daemon.resumes", 1)
}

// TestDrainDetachesClients drains a daemon and checks that clients got
// everything, received a resumable Detach notice, and that new connects
// are refused.
func TestDrainDetachesClients(t *testing.T) {
	daemons, regs := startDaemonsObs(t, 1, nil)
	d := daemons[0]
	sender := dial(t, d, "sender")
	recv := dial(t, d, "recv")
	if err := recv.Join("g"); err != nil {
		t.Fatal(err)
	}
	nextView(t, recv, "g", 5*time.Second)
	for i := 0; i < 5; i++ {
		if err := sender.Multicast(evs.Agreed, []byte{byte(i)}, "g"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		nextMessage(t, recv, 5*time.Second)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := regs[0].Counter("daemon.drains").Value(); got != 1 {
		t.Fatalf("daemon.drains = %d, want 1", got)
	}

	sawDetach := false
	deadline := time.After(5 * time.Second)
	for !sawDetach {
		select {
		case ev, ok := <-recv.Events():
			if !ok {
				t.Fatal("stream closed before the Detach notice")
			}
			if det, isDet := ev.(*client.Detached); isDet {
				if det.Reason != "drain" || !det.CanResume {
					t.Fatalf("detach = %+v, want resumable drain", det)
				}
				sawDetach = true
			}
		case <-deadline:
			t.Fatal("no Detached event after drain")
		}
	}

	if _, err := client.Dial("tcp", d.Addr().String(), "late"); err == nil {
		t.Fatal("connect succeeded on a draining daemon")
	}
}

// TestResumeRejectsBadCredentials: unknown sessions and wrong resume
// tokens are refused with CodeSessionUnknown and counted.
func TestResumeRejectsBadCredentials(t *testing.T) {
	daemons, regs := startDaemonsObs(t, 1, nil)
	d := daemons[0]
	c := dial(t, d, "victim")

	expectReject := func(r session.Resume) {
		t.Helper()
		conn, err := net.Dial("tcp", d.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := session.WriteFrame(conn, r); err != nil {
			t.Fatal(err)
		}
		f, err := session.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		e, isErr := f.(session.Error)
		if !isErr || !errors.Is(e.Err(), session.ErrSessionUnknown) {
			t.Fatalf("got %#v, want CodeSessionUnknown error", f)
		}
	}

	expectReject(session.Resume{Client: group.ClientID{Daemon: 1, Local: 9999}, Token: 42})
	expectReject(session.Resume{Client: c.ID(), Token: 42}) // wrong token
	waitCounter(t, regs[0], "daemon.resume_rejects", 2)
}

// TestThrottleTierNotifications: a slow reader pushes its session
// through the spill and throttle tiers; the daemon says so (metrics and
// Throttle frames) and recovers once the reader catches up, without
// disconnecting.
func TestThrottleTierNotifications(t *testing.T) {
	daemons, regs := startDaemonsObs(t, 1, func(cfg *Config) {
		cfg.clientBuffer = 4
		cfg.spillLimit = 512
		cfg.throttleAt = 8
	})
	d := daemons[0]

	// A raw session connection we deliberately stop reading.
	conn, err := net.Dial("tcp", d.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := session.WriteFrame(conn, session.Connect{Name: "slow"}); err != nil {
		t.Fatal(err)
	}
	if _, err := session.ReadFrame(conn); err != nil { // Welcome
		t.Fatal(err)
	}
	if err := session.WriteFrame(conn, session.Join{Group: "t"}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := session.ReadFrame(conn); err != nil { // the join's View
		t.Fatal(err)
	}

	// Park the session's writer by detaching its daemon-side connection,
	// so the flood piles up in the outbox tiers instead of the kernel's
	// elastic socket buffers.
	var slow *clientConn
	d.mu.Lock()
	for _, cc := range d.clients {
		if cc.name == "slow" {
			slow = cc
		}
	}
	d.mu.Unlock()
	if slow == nil {
		t.Fatal("slow session not registered")
	}
	slow.out.mu.Lock()
	daemonConn := slow.out.conn
	slow.out.mu.Unlock()
	slow.out.detach(daemonConn)

	sender := dial(t, d, "flood")
	payload := make([]byte, 512)
	for i := 0; i < 64; i++ {
		if err := sender.Multicast(evs.Agreed, payload, "t"); err != nil {
			t.Fatal(err)
		}
	}
	waitCounter(t, regs[0], "daemon.tier_spill", 1)
	waitCounter(t, regs[0], "daemon.tier_throttle", 1)

	// Reattach and catch up: drain the stream until the throttle is
	// withdrawn.
	if !slow.out.attach(daemonConn, 0, nil) {
		t.Fatal("reattach refused")
	}
	sawOn, sawOff := false, false
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for !sawOn || !sawOff {
		f, err := session.ReadFrame(conn)
		if err != nil {
			t.Fatalf("stream ended before recovery (on=%v off=%v): %v", sawOn, sawOff, err)
		}
		if th, isTh := f.(session.Throttle); isTh {
			if th.On {
				sawOn = true
			} else {
				sawOff = true
			}
		}
	}
	if got := regs[0].Counter("daemon.slow_disconnects").Value(); got != 0 {
		t.Fatalf("throttled client was disconnected (%d slow disconnects)", got)
	}
}

// TestPrivateDropCounted: a private message to a locally dead client
// bumps daemon.private_drops and bounces a Rejection to the sender.
func TestPrivateDropCounted(t *testing.T) {
	daemons, regs := startDaemonsObs(t, 1, nil)
	a := dial(t, daemons[0], "a")
	b := dial(t, daemons[0], "b")
	deadID := b.ID()
	b.Close()
	time.Sleep(100 * time.Millisecond)
	if err := a.SendPrivate(deadID, evs.Agreed, []byte("gone")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-a.Events():
			if !ok {
				t.Fatalf("stream closed: %v", a.Err())
			}
			if rej, isRej := ev.(*client.Rejection); isRej {
				if !errors.Is(rej.Err, session.ErrNoRecipient) {
					t.Fatalf("rejection = %v, want ErrNoRecipient", rej.Err)
				}
				waitCounter(t, regs[0], "daemon.private_drops", 1)
				return
			}
		case <-deadline:
			t.Fatal("no rejection for a dead private target")
		}
	}
}

// TestBackpressureBounded: on an idle ring the submit-path backpressure
// check is a cheap gauge update that never spins.
func TestBackpressureBounded(t *testing.T) {
	daemons, regs := startDaemonsObs(t, 1, nil)
	start := time.Now()
	daemons[0].backpressure()
	if elapsed := time.Since(start); elapsed > backpressureMaxWait {
		t.Fatalf("idle backpressure took %v, bound is %v", elapsed, backpressureMaxWait)
	}
	if got := regs[0].Counter("daemon.backpressure_waits").Value(); got != 0 {
		t.Fatalf("idle ring accrued %d backpressure waits", got)
	}
	if got := regs[0].Gauge("daemon.backpressure_queue").Value(); got != 0 {
		t.Fatalf("idle ring reports queue depth %d", got)
	}
}

// TestAuthenticatedSessions: with a daemon key, keyed clients work,
// unkeyed and wrong-keyed frames are dropped and counted.
func TestAuthenticatedSessions(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	daemons, regs := startDaemonsObs(t, 1, func(cfg *Config) { cfg.Key = key })
	d := daemons[0]

	c, err := client.DialWith(client.Config{
		Network: "tcp", Addr: d.Addr().String(), Name: "keyed", Key: key,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Join("g"); err != nil {
		t.Fatal(err)
	}
	nextView(t, c, "g", 5*time.Second)
	if err := c.Multicast(evs.Agreed, []byte("signed"), "g"); err != nil {
		t.Fatal(err)
	}
	if m := nextMessage(t, c, 5*time.Second); string(m.Payload) != "signed" {
		t.Fatalf("got %q", m.Payload)
	}

	// An unsigned Connect is a forged frame: dropped, counted, session
	// refused.
	raw, err := net.Dial("tcp", d.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := session.WriteFrame(raw, session.Connect{Name: "forger"}); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := session.ReadFrame(raw); err == nil {
		t.Fatal("daemon answered a forged handshake")
	}
	waitCounter(t, regs[0], "daemon.auth_drops", 1)

	// A wrong key fails the handshake on both sides.
	if _, err := client.DialWith(client.Config{
		Network: "tcp", Addr: d.Addr().String(), Name: "wrong", Key: []byte("not the right key"),
	}); err == nil {
		t.Fatal("wrong-key handshake succeeded")
	}
}
