package transport

import (
	"bytes"
	"testing"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
)

// newBatchedUDPPair is newUDPPair with syscall batching enabled on both
// ends.
func newBatchedUDPPair(t *testing.T, send, recv int) (*UDP, *UDP) {
	t.Helper()
	mk := func(self evs.ProcID) *UDP {
		u, err := NewUDP(UDPConfig{
			Self:   self,
			Listen: UDPPeer{Data: "127.0.0.1:0", Token: "127.0.0.1:0"},
			Batch:  BatchConfig{Send: send, Recv: recv},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { u.Close() })
		return u
	}
	a, b := mk(1), mk(2)
	if err := a.AddPeer(2, b.LocalAddrs()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(1, a.LocalAddrs()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// collectFrames drains n data frames, returning them keyed by their
// first byte (the tests tag frames with an index so UDP reordering
// cannot confuse the comparison).
func collectFrames(t *testing.T, ch <-chan []byte, n int) map[byte][]byte {
	t.Helper()
	got := make(map[byte][]byte, n)
	deadline := time.After(5 * time.Second)
	for len(got) < n {
		select {
		case f := <-ch:
			if len(f) == 0 {
				t.Fatal("empty frame")
			}
			got[f[0]] = append([]byte(nil), f...)
		case <-deadline:
			t.Fatalf("received %d/%d distinct frames", len(got), n)
		}
	}
	return got
}

func TestUDPBatchedRoundTrip(t *testing.T) {
	a, b := newBatchedUDPPair(t, 8, 8)
	const n = 5
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = append([]byte{byte(i)}, bytes.Repeat([]byte{0xC4}, 100+i)...)
	}
	txBefore, _ := a.Syscalls()
	for _, f := range frames {
		if err := a.Multicast(f); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing on the wire yet (staged below the batch threshold), so the
	// explicit flush must release the whole burst.
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	got := collectFrames(t, b.Data(), n)
	for i, want := range frames {
		if !bytes.Equal(got[byte(i)], want) {
			t.Fatalf("frame %d corrupted: got %d bytes, want %d", i, len(got[byte(i)]), len(want))
		}
	}
	if mmsgAvailable {
		txAfter, _ := a.Syscalls()
		if sys := txAfter - txBefore; sys != 1 {
			t.Fatalf("flushing a %d-frame burst took %d send syscalls, want 1", n, sys)
		}
	}
}

func TestUDPBatchAutoFlushOnFull(t *testing.T) {
	a, b := newBatchedUDPPair(t, 4, 0)
	// Exactly batchSend frames: the last Multicast must flush without any
	// explicit Flush call.
	for i := 0; i < 4; i++ {
		if err := a.Multicast([]byte{byte(i), 0xEE}); err != nil {
			t.Fatal(err)
		}
	}
	collectFrames(t, b.Data(), 4)
}

func TestUDPBatchFlushesBeforeUnicast(t *testing.T) {
	a, b := newBatchedUDPPair(t, 64, 0)
	// Stage data well below the batch threshold, then send a token: the
	// token send must push the staged data out first.
	for i := 0; i < 3; i++ {
		if err := a.Multicast([]byte{byte(i), 0xDD}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Unicast(2, []byte("token")); err != nil {
		t.Fatal(err)
	}
	collectFrames(t, b.Data(), 3)
	if got := recvFrame(t, b.Token()); string(got) != "token" {
		t.Fatalf("token corrupted: %q", got)
	}
}

func TestUDPBatchedSyscallReduction(t *testing.T) {
	if !mmsgAvailable {
		t.Skip("sendmmsg/recvmmsg not available on this platform")
	}
	a, b := newBatchedUDPPair(t, 16, 16)
	const bursts, burst = 20, 16
	payload := bytes.Repeat([]byte{0xAA}, 400)
	total := 0
	for r := 0; r < bursts; r++ {
		for i := 0; i < burst; i++ {
			payload[0] = byte(total % 251)
			total++
			if err := a.Multicast(payload); err != nil {
				t.Fatal(err)
			}
		}
		a.Flush()
	}
	// Batch-full auto-flushes plus the explicit flushes: at most one
	// syscall per burst, i.e. a 16x reduction over one-write-per-frame.
	tx, _ := a.Syscalls()
	if tx > bursts+1 {
		t.Fatalf("%d frames took %d send syscalls, want <= %d", total, tx, bursts)
	}
	// Drain at least half (UDP may drop under load) and check the
	// receiver needed far fewer syscalls than datagrams.
	seen := 0
	deadline := time.After(5 * time.Second)
	for seen < total/2 {
		select {
		case f := <-b.Data():
			bufpool.Put(f)
			seen++
		case <-deadline:
			t.Fatalf("received only %d/%d frames", seen, total)
		}
	}
	_, rx := b.Syscalls()
	if rx >= uint64(seen) {
		t.Fatalf("recvmmsg used %d syscalls for >= %d datagrams, want fewer", rx, seen)
	}
}

// TestUDPRefusedDatagramSkipped: one peer the socket cannot reach (an IPv6
// address beside an IPv4-bound socket, so the kernel refuses every
// datagram to it) must cost only its own datagrams. The healthy peer gets
// every frame, batched or not; a batched flush that stopped at the first
// refused datagram silenced it for the whole batch.
func TestUDPRefusedDatagramSkipped(t *testing.T) {
	for _, send := range []int{0, 8} {
		sender, healthy := newBatchedUDPPair(t, send, 0)
		if err := sender.AddPeer(3, UDPPeer{Data: "[::1]:9", Token: "[::1]:9"}); err != nil {
			t.Fatal(err)
		}
		const n = 4
		for i := 0; i < n; i++ {
			if err := sender.Multicast([]byte{byte(i), 0x6A}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sender.Flush(); err != nil {
			t.Fatal(err)
		}
		collectFrames(t, healthy.Data(), n)
	}
}

// TestUDPBatchedAllocs is the zero-allocation gate for the batched wire
// path: staging a burst, flushing it with sendmmsg, receiving it with
// recvmmsg, and recycling the frames must not allocate in steady state.
func TestUDPBatchedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the channel hand-off")
	}
	const burst = 8
	a, b := newBatchedUDPPair(t, burst, burst)
	payload := bytes.Repeat([]byte{0x5A}, 1200)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	step := func() {
		for i := 0; i < burst; i++ {
			if err := a.Multicast(payload); err != nil {
				t.Fatal(err)
			}
		}
		// burst == batch size, so this flush happens on the last
		// Multicast; the explicit call is a no-op safety net.
		a.Flush()
		for i := 0; i < burst; i++ {
			timer.Reset(5 * time.Second)
			select {
			case f := <-b.Data():
				bufpool.Put(f)
			case <-timer.C:
				t.Fatal("timed out waiting for batched frame")
			}
		}
	}
	// Warm-up: size-classed pools, pend slices, writer vectors, reader
	// slots all reach steady-state capacity.
	for i := 0; i < 5; i++ {
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("batched send+receive allocates %.2f times per burst, want 0", n)
	}
}

// FuzzBatchRecvEquivalence sends the same tagged datagrams to one
// receiver draining with recvmmsg batches and one draining with single
// reads, and requires both to decode the identical set of frames —
// batching must only change how datagrams are split across syscalls,
// never their boundaries or bytes.
func FuzzBatchRecvEquivalence(f *testing.F) {
	f.Add([]byte("hello"))
	f.Add(bytes.Repeat([]byte{0xFF}, 300))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(bytes.Repeat([]byte("totem"), 400))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Derive up to 16 payloads of 1..~1500 bytes from the fuzz input.
		var payloads [][]byte
		for off := 0; off < len(data) && len(payloads) < 16; {
			size := 1 + int(data[off])*6
			if off+1+size > len(data) {
				size = len(data) - off - 1
			}
			if size < 1 {
				break
			}
			p := make([]byte, 1+size)
			p[0] = byte(len(payloads)) // tag for dedup/matching
			copy(p[1:], data[off+1:off+1+size])
			payloads = append(payloads, p)
			off += 1 + size
		}
		if len(payloads) == 0 {
			t.Skip("no payloads derivable")
		}

		sender, err := NewUDP(UDPConfig{
			Self:   1,
			Listen: UDPPeer{Data: "127.0.0.1:0", Token: "127.0.0.1:0"},
			Batch:  BatchConfig{Send: len(payloads) + 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sender.Close()
		mkRecv := func(self evs.ProcID, recvBatch int) *UDP {
			u, err := NewUDP(UDPConfig{
				Self:   self,
				Listen: UDPPeer{Data: "127.0.0.1:0", Token: "127.0.0.1:0"},
				Batch:  BatchConfig{Recv: recvBatch},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sender.AddPeer(self, u.LocalAddrs()); err != nil {
				t.Fatal(err)
			}
			return u
		}
		batched := mkRecv(2, 8)
		defer batched.Close()
		single := mkRecv(3, 0)
		defer single.Close()

		// Resend until both receivers saw every tag (UDP may drop);
		// duplicates collapse on the tag.
		gotB := make(map[byte][]byte)
		gotS := make(map[byte][]byte)
		deadline := time.Now().Add(5 * time.Second)
		for len(gotB) < len(payloads) || len(gotS) < len(payloads) {
			if time.Now().After(deadline) {
				t.Fatalf("timeout: batched %d/%d, single %d/%d",
					len(gotB), len(payloads), len(gotS), len(payloads))
			}
			for _, p := range payloads {
				if err := sender.Multicast(p); err != nil {
					t.Fatal(err)
				}
			}
			sender.Flush()
			drain := func(ch <-chan []byte, into map[byte][]byte) {
				for {
					select {
					case fr := <-ch:
						if len(fr) > 0 {
							into[fr[0]] = append([]byte(nil), fr...)
						}
						bufpool.Put(fr)
					case <-time.After(100 * time.Millisecond):
						return
					}
				}
			}
			drain(batched.Data(), gotB)
			drain(single.Data(), gotS)
		}
		for _, want := range payloads {
			tag := want[0]
			if !bytes.Equal(gotB[tag], want) {
				t.Fatalf("batched receiver frame %d: got %x want %x", tag, gotB[tag], want)
			}
			if !bytes.Equal(gotS[tag], want) {
				t.Fatalf("single receiver frame %d: got %x want %x", tag, gotS[tag], want)
			}
		}
	})
}

func TestUDPSmallBatchRoundTrip(t *testing.T) {
	// A tiny batch size still delivers correctly — and on platforms
	// without sendmmsg/recvmmsg this exercises the portable
	// one-syscall-per-datagram fallback behind the same API.
	a, b := newBatchedUDPPair(t, 3, 3)
	for i := 0; i < 3; i++ {
		if err := a.Multicast([]byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	got := collectFrames(t, b.Data(), 3)
	for i := 0; i < 3; i++ {
		if want := []byte{byte(i), 1, 2, 3}; !bytes.Equal(got[byte(i)], want) {
			t.Fatalf("frame %d: got %x want %x", i, got[byte(i)], want)
		}
	}
}
