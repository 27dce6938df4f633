package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
)

// BenchmarkWireUnicast measures the loopback wire path sender-side:
// ns/op and syscalls-per-frame for b.N data frames, plus the receiver's
// measured syscalls-per-datagram (recvmmsg drains many frames per call).
// UDP may drop under blast load, so receive-side figures are over the
// frames that actually arrived; the "delivered" metric reports that
// fraction.
func BenchmarkWireUnicast(b *testing.B) {
	mk := func(self evs.ProcID) *UDP {
		u, err := NewUDP(UDPConfig{
			Self:   self,
			Listen: UDPPeer{Data: "127.0.0.1:0"},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { u.Close() })
		return u
	}
	snd, rcv := mk(1), mk(2)
	if err := snd.AddPeer(2, rcv.LocalAddrs()); err != nil {
		b.Fatal(err)
	}
	if err := rcv.AddPeer(1, snd.LocalAddrs()); err != nil {
		b.Fatal(err)
	}

	var got atomic.Int64
	go func() {
		for f := range rcv.Data() {
			got.Add(1)
			bufpool.Put(f)
		}
	}()

	payload := make([]byte, 1350)
	txBefore, _ := snd.Syscalls()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := snd.Multicast(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	// Let the receiver settle: stop once the count is quiet for a bit.
	last, quiet := int64(-1), 0
	for quiet < 5 {
		time.Sleep(20 * time.Millisecond)
		if n := got.Load(); n == last {
			quiet++
		} else {
			last, quiet = n, 0
		}
	}
	txAfter, _ := snd.Syscalls()
	_, rx := rcv.Syscalls()
	b.ReportMetric(float64(txAfter-txBefore)/float64(b.N), "txsys/frame")
	if n := got.Load(); n > 0 {
		b.ReportMetric(float64(rx)/float64(n), "rxsys/frame")
		b.ReportMetric(float64(n)/float64(b.N), "delivered")
	}
}
