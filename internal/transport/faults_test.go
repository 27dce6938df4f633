package transport

import (
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/faults"
)

// drainFrames collects frames from ch until it stays quiet for the grace
// period.
func drainFrames(ch <-chan []byte, grace time.Duration) [][]byte {
	var out [][]byte
	for {
		select {
		case f := <-ch:
			out = append(out, f)
		case <-time.After(grace):
			return out
		}
	}
}

// TestHubInjectorDropDupDelay: the hub must honor all three verdicts of a
// shared faults.Injector — total loss on one link, duplication on
// another, and delay-based reordering on a third.
func TestHubInjectorDropDupDelay(t *testing.T) {
	hub := NewHub()
	var plan faults.Plan
	plan.Add(faults.Rule{Name: "drop-to-2", To: 2, Model: faults.Loss{P: 1}})
	plan.Add(faults.Rule{Name: "dup-to-3", To: 3, Model: faults.Duplicate{P: 1}})
	hub.SetInjector(faults.New(1, plan))

	sender, err := hub.Endpoint(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := hub.Endpoint(2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	doubled, err := hub.Endpoint(3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Multicast([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if got := drainFrames(blocked.Data(), 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("dropped link delivered %d frames", len(got))
	}
	if got := drainFrames(doubled.Data(), 50*time.Millisecond); len(got) != 2 {
		t.Fatalf("duplicating link delivered %d frames, want 2", len(got))
	}
}

// TestHubInjectorReorders: a rule delaying only the first frame must let
// the second overtake it.
func TestHubInjectorReorders(t *testing.T) {
	hub := NewHub()
	first := true
	var plan faults.Plan
	plan.Add(faults.Rule{
		Name: "delay-first",
		Match: func(p faults.Packet) bool {
			if first {
				first = false
				return true
			}
			return false
		},
		Model: faults.Delay{Min: 60 * time.Millisecond, Max: 60 * time.Millisecond},
	})
	hub.SetInjector(faults.New(1, plan))

	sender, err := hub.Endpoint(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := hub.Endpoint(2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Unicast(2, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if err := sender.Unicast(2, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	got := drainFrames(recv.Token(), 150*time.Millisecond)
	if len(got) != 2 || string(got[0]) != "fast" || string(got[1]) != "slow" {
		t.Fatalf("expected [fast slow], got %q", got)
	}
}

// TestInjectorConcurrentSenders hammers one hub injector from many
// goroutines; run under -race this guards the locking on every path.
func TestInjectorConcurrentSenders(t *testing.T) {
	hub := NewHub()
	part := faults.NewPartition()
	var plan faults.Plan
	plan.Add(faults.Rule{Name: "loss", Model: faults.Loss{P: 0.2}})
	plan.Add(faults.Rule{Name: "dup", Model: faults.Duplicate{P: 0.2, Spread: time.Millisecond}})
	plan.Add(faults.Rule{Name: "part", Model: part})
	inj := faults.New(42, plan)
	hub.SetInjector(inj)

	const n = 4
	eps := make([]*Endpoint, n)
	for i := range eps {
		ep, err := hub.Endpoint(evs.ProcID(i+1), 4096, 4096)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	done := make(chan struct{})
	for _, ep := range eps {
		go func(ep *Endpoint) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				_ = ep.Multicast([]byte("m"))
				_ = ep.Unicast(evs.ProcID(i%n+1), []byte("t"))
				if i%50 == 0 {
					part.Split(map[evs.ProcID]int{1: 0, 2: 0, 3: 1, 4: 1})
					part.Heal()
				}
			}
		}(ep)
	}
	for range eps {
		<-done
	}
	var matched uint64
	for _, c := range inj.Counters() {
		matched += c.Matched
	}
	if matched == 0 {
		t.Fatal("injector saw no packets")
	}
}
