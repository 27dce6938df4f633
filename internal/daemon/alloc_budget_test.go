package daemon

import (
	"runtime"
	"testing"
	"time"

	"accelring/internal/client"
	"accelring/internal/evs"
)

// deliveredMsgAllocBudget is the ceiling on heap allocations per
// delivered message across the whole process of
// TestDeliveredMessageAllocBudget: three daemons, their rings, both
// clients and the publisher. Runs measure 1.46 to 1.63, so the ceiling is
// about 10% above their middle. They count 8000 messages: over 2000, the
// sync.Pool refills after a garbage collection swung a run up to 2.0.
// Before each ring handed its messages to
// the group core unboxed (one evs.Event per receiving daemon per message)
// runs measured 4.4 to 4.6; before the clients carved deliveries out of
// slabs (one event and one pool buffer per delivery) 8.3 to 8.4; before
// the ring recycled the data frames it retained (one per receiving daemon
// per message) 10.5; before the delivery path stopped allocating per
// message (cached delivery sets, interned names, unboxed decodes and
// status) the same test measured 50 to 55.
const deliveredMsgAllocBudget = 1.7

// TestDeliveredMessageAllocBudget: on a three-daemon hub stack with two
// subscribed clients and a publisher keeping 64 messages in flight, a
// delivered 1350-byte message costs the whole process no more than
// deliveredMsgAllocBudget allocations.
func TestDeliveredMessageAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock load test")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	const (
		warmup      = 500
		msgs        = 8000
		outstanding = 64
	)
	daemons := startDaemons(t, 3)
	clients := []*client.Client{dial(t, daemons[0], "pub"), dial(t, daemons[1], "sub")}
	for _, c := range clients {
		if err := c.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range clients {
		for v := nextView(t, c, "g", 5*time.Second); len(v.Members) < len(clients); v = nextView(t, c, "g", 5*time.Second) {
		}
	}
	// Each client counts its deliveries, signalling the end of the warm-up
	// and of the measured pass; the publisher's own deliveries are its
	// credits.
	credits := make(chan struct{}, outstanding)
	delivered := make(chan struct{}, len(clients))
	for i, c := range clients {
		go func() {
			n := 0
			for ev := range c.Events() {
				if _, ok := ev.(*client.Message); !ok {
					continue
				}
				if n++; i == 0 {
					credits <- struct{}{}
				}
				if n == warmup || n == warmup+msgs {
					delivered <- struct{}{}
				}
			}
		}()
	}
	payload := make([]byte, 1350)
	publish := func(n int) {
		deadline := time.After(30 * time.Second)
		for i := 0; i < n; i++ {
			if i >= outstanding {
				select {
				case <-credits:
				case <-deadline:
					t.Fatalf("publisher stalled after %d sends", i)
				}
			}
			if err := clients[0].Multicast(evs.Agreed, payload, "g"); err != nil {
				t.Fatal(err)
			}
		}
		for range clients {
			select {
			case <-delivered:
			case <-deadline:
				t.Fatal("not every client saw every message")
			}
		}
		for range min(n, outstanding) {
			<-credits
		}
	}
	// A warm-up pass fills the buffer pools and grows every queue first.
	publish(warmup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	publish(msgs)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / msgs
	t.Logf("allocations per delivered message: %.2f", per)
	if per > deliveredMsgAllocBudget {
		t.Fatalf("a delivered message costs %.2f allocations, budget %.2f", per, deliveredMsgAllocBudget)
	}
}
