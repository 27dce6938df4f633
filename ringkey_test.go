package accelring

import (
	"context"
	"testing"
	"time"
)

// TestRingKeyedCluster: nodes sharing a ring key form a ring and order
// messages as usual — authentication is transparent when everyone is
// keyed.
func TestRingKeyedCluster(t *testing.T) {
	key := []byte("cluster master key")
	nodes := openCluster(t, 3, WithRingKey(key))
	for _, n := range nodes {
		if err := n.Join("sealed"); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		for {
			v := nextEvent[*GroupView](t, n)
			if v.Group == "sealed" && len(v.Members) == 3 {
				break
			}
		}
	}
	if err := nodes[0].Send(Agreed, []byte("signed payload"), "sealed"); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if m := nextEvent[*Message](t, n); string(m.Payload) != "signed payload" {
			t.Fatalf("node %v delivered %q", n.ID(), m.Payload)
		}
	}
}

// TestRingKeyMismatchIsolated: a node with the wrong key cannot join the
// keyed ring — every frame it sends is dropped at the receivers, so the
// keyed pair converges without it and keeps ordering traffic.
func TestRingKeyMismatchIsolated(t *testing.T) {
	hub := NewHub()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	open := func(id ProcID, key []byte) *Node {
		t.Helper()
		ep, err := hub.Endpoint(id, 4096, 64)
		if err != nil {
			t.Fatal(err)
		}
		n, err := Open(ctx,
			WithSelf(id),
			WithWire(WireConfig{Transport: ep}),
			WithWindows(10, 100, 7),
			WithTimeouts(fastTimeouts()),
			WithRingKey(key),
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	a := open(1, []byte("right key"))
	b := open(2, []byte("right key"))
	open(3, []byte("wrong key"))

	if err := a.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	// The keyed pair agrees on a two-member group view — the impostor
	// never makes it into the ring — and still orders traffic.
	for _, n := range []*Node{a, b} {
		if err := n.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []*Node{a, b} {
		for {
			v := nextEvent[*GroupView](t, n)
			if v.Group == "g" && len(v.Members) == 2 {
				break
			}
		}
	}
	if err := a.Send(Agreed, []byte("secret"), "g"); err != nil {
		t.Fatal(err)
	}
	if m := nextEvent[*Message](t, b); string(m.Payload) != "secret" {
		t.Fatalf("keyed peer delivered %q", m.Payload)
	}
}
