package accelring

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestViewOfOutOfRange: ViewOf on a ring the node does not run reports the
// zero view, as for a ring that has not formed yet, instead of panicking.
func TestViewOfOutOfRange(t *testing.T) {
	n := openShardedCluster(t, 1, 2)[0]
	for _, ring := range []int{-1, n.Shards(), n.Shards() + 7} {
		if v := n.ViewOf(ring); !v.IsZero() {
			t.Fatalf("ViewOf(%d) = %v, want the zero view", ring, v)
		}
	}
	for ring := 0; ring < n.Shards(); ring++ {
		if n.ViewOf(ring).IsZero() {
			t.Fatalf("ViewOf(%d) is zero on a ready node", ring)
		}
	}
}

// TestWaitReadyOutcomes pins WaitReady's three answers: the context's
// error while a ring is still forming, nil once every ring is ready, and
// ErrClosed after Close, even for a node that was ready.
func TestWaitReadyOutcomes(t *testing.T) {
	hub := NewHub()
	ep, err := hub.Endpoint(1, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Open(context.Background(), WithSelf(1), WithWire(WireConfig{Transport: ep}),
		WithTimeouts(fastTimeouts()))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := n.WaitReady(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitReady before the ring formed = %v, want context.Canceled", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady = %v, want nil", err)
	}
	if err := n.WaitReady(cancelled); err != nil {
		t.Fatalf("WaitReady on a ready node with a done context = %v, want nil", err)
	}
	n.Close()
	if err := n.WaitReady(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitReady after Close = %v, want ErrClosed", err)
	}
}
