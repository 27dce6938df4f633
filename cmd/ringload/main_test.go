package main

import (
	"errors"
	"net"
	"testing"
	"time"

	"accelring/internal/client"
	"accelring/internal/daemon"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/transport"
)

// TestRunFailsWhenDaemonStops: a daemon that stops under load breaks its
// sender's session, and run returns that sender's error instead of
// reporting a lower rate and succeeding.
func TestRunFailsWhenDaemonStops(t *testing.T) {
	ep, err := transport.NewHub().Endpoint(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ring := ringnode.Accelerated(1, ep, 10, 100, 7)
	ring.Timeouts = membership.Timeouts{
		JoinInterval:    5 * time.Millisecond,
		Gather:          25 * time.Millisecond,
		Commit:          50 * time.Millisecond,
		TokenLoss:       100 * time.Millisecond,
		TokenRetransmit: 30 * time.Millisecond,
	}
	reg := obs.NewRegistry()
	d, err := daemon.Start(daemon.Config{Ring: ring, Listener: ln, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if !d.WaitOperational(10 * time.Second) {
		t.Fatal("daemon did not become operational")
	}

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-daemons", ln.Addr().String(),
			"-rate", "500", "-payload", "64", "-warmup", "0s", "-duration", "30s"})
	}()
	// Stop the daemon once both of run's clients (receiver and sender)
	// hold a session.
	for deadline := time.Now().Add(10 * time.Second); reg.Gauge("daemon.clients").Value() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("run's clients never connected")
		}
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	select {
	case err := <-done:
		if !errors.Is(err, client.ErrClosed) {
			t.Fatalf("run returned %v, want the sender's %v", err, client.ErrClosed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run kept going after its daemon stopped")
	}
}
