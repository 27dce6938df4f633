package daemon

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"accelring/internal/client"
	"accelring/internal/evs"
	"accelring/internal/ringnode"
	"accelring/internal/session"
	"accelring/internal/transport"
)

// TestSlowClientIsDisconnected: a client that stops reading must be cut
// off rather than stalling the ordering daemon.
func TestSlowClientIsDisconnected(t *testing.T) {
	hub := transport.NewHub()
	ep, err := hub.Endpoint(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ringCfg := ringnode.Accelerated(1, ep, 10, 100, 7)
	ringCfg.Timeouts = fastTimeouts()
	d, err := Start(Config{Ring: ringCfg, Listener: ln, clientBuffer: 4, spillLimit: 64, throttleAt: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	if !d.WaitOperational(10 * time.Second) {
		t.Fatal("daemon not operational")
	}

	// The slow client: joins but never reads events.
	conn, err := net.Dial("tcp", d.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := session.WriteFrame(conn, session.Connect{Name: "slow"}); err != nil {
		t.Fatal(err)
	}
	if _, err := session.ReadFrame(conn); err != nil { // welcome
		t.Fatal(err)
	}
	if err := session.WriteFrame(conn, session.Join{Group: "g"}); err != nil {
		t.Fatal(err)
	}

	// A healthy sender floods the group; the slow client's 4-frame buffer
	// overflows and the daemon cuts it loose.
	sender := dial(t, d, "sender")
	for i := 0; i < 200; i++ {
		if err := sender.Multicast(evs.Agreed, make([]byte, 512), "g"); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 4096)
	for {
		if _, err := conn.Read(buf); err != nil {
			return // disconnected: success
		}
	}
}

// TestClientReconnectGetsFreshID: reconnecting yields a new client
// identity and a clean group state.
func TestClientReconnectGetsFreshID(t *testing.T) {
	daemons := startDaemons(t, 1)
	c1 := dial(t, daemons[0], "reborn")
	if err := c1.Join("g"); err != nil {
		t.Fatal(err)
	}
	nextView(t, c1, "g", 5*time.Second)
	id1 := c1.ID()
	c1.Close()

	// Wait for the disconnect to be ordered (the group must empty).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		probe := dial(t, daemons[0], "probe")
		if err := probe.Join("g"); err != nil {
			t.Fatal(err)
		}
		v := nextView(t, probe, "g", 5*time.Second)
		probe.Close()
		if len(v.Members) == 1 && v.Members[0] != id1 {
			break // only the probe remains: the old identity is gone
		}
		time.Sleep(20 * time.Millisecond)
	}

	c2 := dial(t, daemons[0], "reborn")
	if c2.ID() == id1 {
		t.Fatalf("reconnect reused client ID %v", id1)
	}
	if err := c2.Join("g"); err != nil {
		t.Fatal(err)
	}
	// The fresh client's view must not contain the dead identity.
	deadline = time.Now().Add(5 * time.Second)
	for {
		v := nextView(t, c2, "g", 5*time.Second)
		stale := false
		for _, m := range v.Members {
			if m == id1 {
				stale = true
			}
		}
		if !stale {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("view still contains dead identity: %+v", v)
		}
	}
}

// TestUnixSocketListener: the daemon serves clients over Unix sockets too
// (the paper's recommended local IPC).
func TestUnixSocketListener(t *testing.T) {
	hub := transport.NewHub()
	ep, err := hub.Endpoint(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "ring.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	ringCfg := ringnode.Accelerated(1, ep, 10, 100, 7)
	ringCfg.Timeouts = fastTimeouts()
	d, err := Start(Config{Ring: ringCfg, Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	if !d.WaitOperational(10 * time.Second) {
		t.Fatal("daemon not operational")
	}
	c, err := client.Dial("unix", sock, "ipc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Join("local"); err != nil {
		t.Fatal(err)
	}
	if err := c.Multicast(evs.Safe, []byte("over unix"), "local"); err != nil {
		t.Fatal(err)
	}
	m := nextMessage(t, c, 5*time.Second)
	if string(m.Payload) != "over unix" {
		t.Fatalf("got %+v", m)
	}
	if _, err := os.Stat(sock); err != nil {
		t.Fatalf("socket file missing: %v", err)
	}
}

// TestBadFirstFrameRejected: a connection that does not start with
// Connect is refused.
func TestBadFirstFrameRejected(t *testing.T) {
	daemons := startDaemons(t, 1)
	conn, err := net.Dial("tcp", daemons[0].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := session.WriteFrame(conn, session.Join{Group: "g"}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := session.ReadFrame(conn)
	if err == nil {
		if _, isErr := f.(session.Error); !isErr {
			t.Fatalf("expected error frame, got %#v", f)
		}
	}
	// The connection must be closed shortly after.
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}
