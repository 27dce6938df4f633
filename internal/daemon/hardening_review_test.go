package daemon

// Regression tests for the hardening-review fixes: the keyed resume
// challenge (replay protection), drain in the presence of detached
// sessions, and backpressure gauge settlement on slow disconnects.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"accelring/internal/client"
	"accelring/internal/evs"
	"accelring/internal/session"
)

// recordingDialer snoops the bytes each client connection writes, so a
// test can replay a captured handshake like an on-path observer would.
type recordingDialer struct {
	mu    sync.Mutex
	conns []*recordedConn
}

type recordedConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (r *recordedConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.buf.Write(p)
	r.mu.Unlock()
	return r.Conn.Write(p)
}

func (d *recordingDialer) dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	rc := &recordedConn{Conn: c}
	d.mu.Lock()
	d.conns = append(d.conns, rc)
	d.mu.Unlock()
	return rc, nil
}

// firstFrame extracts the first length-prefixed frame from a recorded
// byte stream, verbatim (header included).
func firstFrame(t *testing.T, raw []byte) []byte {
	t.Helper()
	if len(raw) < 4 {
		t.Fatalf("recorded stream too short: %d bytes", len(raw))
	}
	n := binary.BigEndian.Uint32(raw[:4])
	if len(raw) < int(4+n) {
		t.Fatalf("recorded stream truncated: header says %d, have %d", n, len(raw)-4)
	}
	return raw[:4+n]
}

// TestKeyedResumeChallenge: with frame authentication on, a genuine
// client rides out a severed connection — the resume handshake now
// includes the daemon's nonce challenge, which the keyed client answers
// transparently.
func TestKeyedResumeChallenge(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	daemons, regs := startDaemonsObs(t, 1, func(cfg *Config) { cfg.Key = key })
	d := daemons[0]

	killer := &connKiller{}
	c, err := client.DialWith(client.Config{
		Network: "tcp", Addr: d.Addr().String(), Name: "keyed",
		Key: key, Reconnect: true, Dialer: killer.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Join("g"); err != nil {
		t.Fatal(err)
	}
	nextView(t, c, "g", 5*time.Second)

	killer.kill()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatalf("stream closed: %v", c.Err())
			}
			if rec, isRec := ev.(*client.Reconnected); isRec {
				if !rec.Resumed {
					t.Fatal("keyed reconnect fell back to a fresh session")
				}
				waitCounter(t, regs[0], "daemon.resumes", 1)
				// The session must still work end to end.
				if err := c.Multicast(evs.Agreed, []byte("alive"), "g"); err != nil {
					t.Fatal(err)
				}
				if m := nextMessage(t, c, 5*time.Second); string(m.Payload) != "alive" {
					t.Fatalf("post-resume delivery = %q", m.Payload)
				}
				return
			}
		case <-deadline:
			t.Fatal("no Reconnected event after the kill")
		}
	}
}

// TestReplayedResumeRejected: an observer who records a victim's valid
// Resume frame and replays it verbatim (correct MAC, no key) must fail
// the nonce challenge, be counted on daemon.auth_drops, and leave the
// victim's session untouched.
func TestReplayedResumeRejected(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	daemons, regs := startDaemonsObs(t, 1, func(cfg *Config) { cfg.Key = key })
	d := daemons[0]

	rec := &recordingDialer{}
	victim, err := client.DialWith(client.Config{
		Network: "tcp", Addr: d.Addr().String(), Name: "victim",
		Key: key, Reconnect: true, Dialer: rec.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { victim.Close() })
	if err := victim.Join("g"); err != nil {
		t.Fatal(err)
	}
	nextView(t, victim, "g", 5*time.Second)

	// Sever the connection so the victim performs a real resume we can
	// record.
	rec.mu.Lock()
	rec.conns[0].Conn.Close()
	rec.mu.Unlock()
	deadline := time.After(10 * time.Second)
	for resumed := false; !resumed; {
		select {
		case ev, ok := <-victim.Events():
			if !ok {
				t.Fatalf("stream closed: %v", victim.Err())
			}
			if r, isRec := ev.(*client.Reconnected); isRec && r.Resumed {
				resumed = true
			}
		case <-deadline:
			t.Fatal("victim never resumed")
		}
	}

	// The last recorded connection starts with the victim's Resume frame:
	// a valid MAC over bytes the attacker merely copied.
	rec.mu.Lock()
	last := rec.conns[len(rec.conns)-1]
	rec.mu.Unlock()
	last.mu.Lock()
	replay := firstFrame(t, append([]byte(nil), last.buf.Bytes()...))
	last.mu.Unlock()

	attacker, err := net.Dial("tcp", d.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	if _, err := attacker.Write(replay); err != nil {
		t.Fatal(err)
	}
	keyed := session.NewCodec(key) // reader only: the test can decode, the attacker could not
	attacker.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := keyed.ReadFrame(attacker)
	if err != nil {
		t.Fatalf("no challenge after replayed Resume: %v", err)
	}
	ch, isCh := f.(session.Challenge)
	if !isCh {
		t.Fatalf("got %#v, want a Challenge", f)
	}
	// Without the key the best the attacker can do is echo the nonce
	// unauthenticated; the daemon must refuse it.
	if err := session.WriteFrame(attacker, session.ChallengeAck{Nonce: ch.Nonce}); err != nil {
		t.Fatal(err)
	}
	f, err = keyed.ReadFrame(attacker)
	if err != nil {
		t.Fatalf("no rejection after failed challenge: %v", err)
	}
	e, isErr := f.(session.Error)
	if !isErr || !errors.Is(e.Err(), session.ErrSessionUnknown) {
		t.Fatalf("got %#v, want CodeSessionUnknown", f)
	}
	waitCounter(t, regs[0], "daemon.auth_drops", 1)
	waitCounter(t, regs[0], "daemon.resume_rejects", 1)

	// The victim's live session was not hijacked or detached.
	if err := victim.Multicast(evs.Agreed, []byte("safe"), "g"); err != nil {
		t.Fatal(err)
	}
	if m := nextMessage(t, victim, 5*time.Second); string(m.Payload) != "safe" {
		t.Fatalf("victim delivery = %q", m.Payload)
	}
}

// TestDrainSkipsDetachedSession: a detached session with a backlog must
// not stall Drain — it counts as flushed (its frames are retained for
// resume) and the attached clients still get their Detach notices
// promptly.
func TestDrainSkipsDetachedSession(t *testing.T) {
	daemons, _ := startDaemonsObs(t, 1, nil)
	d := daemons[0]
	healthy := dial(t, d, "healthy")
	sender := dial(t, d, "sender")
	if err := healthy.Join("g"); err != nil {
		t.Fatal(err)
	}
	nextView(t, healthy, "g", 5*time.Second)

	// A second session that joins the group and then loses its connection
	// with traffic still queued.
	raw, err := net.Dial("tcp", d.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := session.WriteFrame(raw, session.Connect{Name: "ghost"}); err != nil {
		t.Fatal(err)
	}
	if _, err := session.ReadFrame(raw); err != nil { // Welcome
		t.Fatal(err)
	}
	if err := session.WriteFrame(raw, session.Join{Group: "g"}); err != nil {
		t.Fatal(err)
	}
	var ghost *clientConn
	waitDeadline := time.Now().Add(5 * time.Second)
	for ghost == nil && time.Now().Before(waitDeadline) {
		d.mu.Lock()
		for _, cc := range d.clients {
			if cc.name == "ghost" {
				ghost = cc
			}
		}
		d.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	if ghost == nil {
		t.Fatal("ghost session not registered")
	}
	ghost.out.mu.Lock()
	ghostConn := ghost.out.conn
	ghost.out.mu.Unlock()
	ghost.out.detach(ghostConn)
	for i := 0; i < 8; i++ {
		if err := sender.Multicast(evs.Agreed, []byte{byte(i)}, "g"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		nextMessage(t, healthy, 5*time.Second)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %v waiting on a detached session", elapsed)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-healthy.Events():
			if !ok {
				t.Fatal("stream closed before the Detach notice")
			}
			if det, isDet := ev.(*client.Detached); isDet {
				if det.Reason != "drain" || !det.CanResume {
					t.Fatalf("detach = %+v, want resumable drain", det)
				}
				return
			}
		case <-deadline:
			t.Fatal("attached client lost its Detach notice to the detached session")
		}
	}
}

// TestSlowDisconnectSettlesGauges: when a spilling, throttled session is
// finally disconnected, the clients_spilling and clients_throttled
// gauges must return to zero instead of leaking forever.
func TestSlowDisconnectSettlesGauges(t *testing.T) {
	daemons, regs := startDaemonsObs(t, 1, func(cfg *Config) {
		cfg.clientBuffer = 4
		cfg.spillLimit = 24
		cfg.throttleAt = 8
	})
	d := daemons[0]

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
	slowConn := slow.out.conn
	slow.out.mu.Unlock()
	slow.out.detach(slowConn)

	sender := dial(t, d, "flood")
	for i := 0; i < 64; i++ {
		if err := sender.Multicast(evs.Agreed, make([]byte, 256), "t"); err != nil {
			t.Fatal(err)
		}
	}
	waitCounter(t, regs[0], "daemon.slow_disconnects", 1)

	deadline := time.Now().Add(5 * time.Second)
	for {
		spilling := regs[0].Gauge("daemon.clients_spilling").Value()
		throttled := regs[0].Gauge("daemon.clients_throttled").Value()
		if spilling == 0 && throttled == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges leaked after slow disconnect: spilling=%d throttled=%d", spilling, throttled)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
