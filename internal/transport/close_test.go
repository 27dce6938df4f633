package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/faults"
)

// poolBalanced polls until every buffer rented since the before snapshot
// has been recycled (gets delta == puts delta), failing the test after a
// timeout. Callers must not run in parallel with other tests: the bufpool
// counters are global.
func poolBalanced(t *testing.T, before bufpool.Stats) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var got, want uint64
	for time.Now().Before(deadline) {
		now := bufpool.Snapshot()
		got = now.Puts - before.Puts
		want = now.Gets - before.Gets
		if got == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("pooled frames leaked: %d rented since snapshot, only %d recycled", want, got)
}

// TestHubCloseRecyclesQueuedFrames pins satellite fix: frames sitting
// unread in an endpoint's receive channels — and delayed copies parked in
// the hub's delay queue — are recycled when the endpoint and hub close,
// leaving the pool's rent/recycle accounting balanced.
func TestHubCloseRecyclesQueuedFrames(t *testing.T) {
	before := bufpool.Snapshot()

	hub := NewHub()
	a, err := hub.Endpoint(1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hub.Endpoint(2, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Park some deliveries in the delay queue and queue others directly.
	var park faults.Plan
	park.Add(faults.Rule{Name: "park-tokens", Classes: faults.ClassToken,
		Model: faults.Delay{Min: time.Minute}}) // will still be pending at Close
	hub.SetInjector(faults.New(1, park))
	for i := 0; i < 5; i++ {
		if err := a.Multicast([]byte(fmt.Sprintf("data-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := a.Unicast(2, []byte(fmt.Sprintf("tok-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overflow b's data channel too: frames 8.. are dropped-and-recycled at
	// send time, frames 0..7 stay queued until Close.
	for i := 0; i < 10; i++ {
		if err := a.Multicast([]byte("overflow")); err != nil {
			t.Fatal(err)
		}
	}

	// Nothing is ever read from b. Closing must recycle the queued frames;
	// closing the hub must flush the minute-delayed token copies (each sees
	// the closed endpoint and recycles).
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	poolBalanced(t, before)
}

// TestUDPCloseRecyclesQueuedFrames: frames the readLoop already rented
// and queued are recycled by Close.
func TestUDPCloseRecyclesQueuedFrames(t *testing.T) {
	before := bufpool.Snapshot()

	u1, err := NewUDP(UDPConfig{Self: 1, Listen: UDPPeer{Data: "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	u2, err := NewUDP(UDPConfig{Self: 2, Listen: UDPPeer{Data: "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := u1.AddPeer(2, u2.LocalAddrs()); err != nil {
		t.Fatal(err)
	}
	// The frames reach u2's socket and get rented into its channels;
	// nothing ever reads them.
	for i := 0; i < 5; i++ {
		if err := u1.Multicast([]byte(fmt.Sprintf("queued-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Give u2's readLoop a moment to rent and queue the datagrams.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && len(u2.dataCh) < 5 {
		time.Sleep(2 * time.Millisecond)
	}

	if err := u2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := u1.Close(); err != nil {
		t.Fatal(err)
	}
	poolBalanced(t, before)
}

// TestHubCloseUnderLoad tears the hub and endpoints down while senders are
// hammering delayed multicasts. Run under -race (the Makefile race target
// covers this package): it must neither race, nor double-recycle, nor
// strand the delay-queue drainer.
func TestHubCloseUnderLoad(t *testing.T) {
	hub := NewHub()
	eps := make([]*Endpoint, 4)
	for i := range eps {
		ep, err := hub.Endpoint(evs.ProcID(i+1), 16, 16)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	var skew faults.Plan
	for i := range eps {
		skew.Add(faults.Rule{From: evs.ProcID(i + 1),
			Model: faults.Delay{Min: time.Duration(i+1) * 100 * time.Microsecond}})
	}
	hub.SetInjector(faults.New(1, skew))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(ep *Endpoint) {
			defer wg.Done()
			payload := []byte("under-load")
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = ep.Multicast(payload)
				_ = ep.Unicast(1, payload)
			}
		}(ep)
	}
	time.Sleep(20 * time.Millisecond)
	for _, ep := range eps {
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	// A send after Close must keep failing fast, and a second Close is a
	// no-op.
	if err := eps[0].Multicast([]byte("late")); err != ErrClosed {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUDPCloseUnderLoadWithDelays closes a UDP transport while concurrent
// senders keep multicasting and unicasting through it. Close must race
// with none of them and strand no rented frame (the race detector and
// the pool balance pin this), and later sends fail fast.
func TestUDPCloseUnderLoadWithDelays(t *testing.T) {
	before := bufpool.Snapshot()
	u1, err := NewUDP(UDPConfig{Self: 1, Listen: UDPPeer{Data: "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	u2, err := NewUDP(UDPConfig{Self: 2, Listen: UDPPeer{Data: "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := u1.AddPeer(2, u2.LocalAddrs()); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := []byte("sent-under-close")
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = u1.Multicast(payload)
				_ = u1.Unicast(2, payload)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := u1.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if err := u1.Multicast([]byte("late")); err != ErrClosed {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
	if err := u1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := u2.Close(); err != nil {
		t.Fatal(err)
	}
	poolBalanced(t, before)
}
