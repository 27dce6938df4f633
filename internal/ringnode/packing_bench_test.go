package ringnode

import (
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/membership"
	"accelring/internal/transport"
)

// benchRing measures ordered-delivery throughput of a 3-node simulated
// ring (in-process hub): b.N small messages submitted with backlog, timed
// until the submitting node has delivered them all. kmsg/s is reported as
// a metric so packed-vs-bare shows up directly in the output.
func benchRing(b *testing.B, packing bool) {
	hub := transport.NewHub()
	const members = 3
	var delivered atomic.Int64
	nodes := make([]*Node, members)
	for i := 0; i < members; i++ {
		id := evs.ProcID(i + 1)
		ep, err := hub.Endpoint(id, 8192, 64)
		if err != nil {
			b.Fatal(err)
		}
		cfg := Accelerated(id, ep, 50, 400, 35)
		cfg.Timeouts = fastTimeouts()
		if i == 0 {
			cfg.OnEvent = func(ev evs.Event) {
				if _, ok := ev.(evs.Message); ok {
					delivered.Add(1)
				}
			}
		} else {
			cfg.OnEvent = func(evs.Event) {}
		}
		cfg.Packing = packing
		node, err := Start(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(node.Stop)
		nodes[i] = node
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := nodes[0].Status()
		if st.State == membership.StateOperational && len(st.Ring.Members) == members {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("ring did not form")
		}
		time.Sleep(time.Millisecond)
	}

	payload := make([]byte, 64)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for nodes[0].Submit(payload, evs.Agreed) != nil {
			time.Sleep(100 * time.Microsecond) // mid-view-change; retry
		}
	}
	for delivered.Load() < int64(b.N) {
		time.Sleep(100 * time.Microsecond)
		if time.Now().After(deadline.Add(time.Minute)) {
			b.Fatalf("delivered only %d/%d", delivered.Load(), b.N)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1000, "kmsg/s")
}

func BenchmarkWireRingBare(b *testing.B) {
	benchRing(b, false)
}

func BenchmarkWireRingPacked(b *testing.B) {
	benchRing(b, true)
}
