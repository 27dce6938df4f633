package transport

import (
	"bytes"
	"testing"
	"time"

	"accelring/internal/bufpool"
)

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

// TestUDPBatchedRoundTrip: a burst of distinct frames crosses the burst
// reader with every boundary and byte intact.
func TestUDPBatchedRoundTrip(t *testing.T) {
	a, b := newUDPPair(t)
	const n = 5
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = append([]byte{byte(i)}, bytes.Repeat([]byte{0xC4}, 100+i)...)
	}
	for _, f := range frames {
		if err := a.Multicast(f); err != nil {
			t.Fatal(err)
		}
	}
	got := collectFrames(t, b.Data(), n)
	for i, want := range frames {
		if !bytes.Equal(got[byte(i)], want) {
			t.Fatalf("frame %d corrupted: got %d bytes, want %d", i, len(got[byte(i)]), len(want))
		}
	}
}

// TestUDPMulticastOnWireAtReturn: Multicast puts its frame on the wire
// before it returns, one datagram per peer; only Stage holds frames back.
func TestUDPMulticastOnWireAtReturn(t *testing.T) {
	a, b := newUDPPair(t)
	txBefore, _ := a.Syscalls()
	for i := 0; i < 4; i++ {
		if err := a.Multicast([]byte{byte(i), 0xEE}); err != nil {
			t.Fatal(err)
		}
	}
	if tx, _ := a.Syscalls(); tx-txBefore != 4 {
		t.Fatalf("4 frames to one peer took %d send syscalls, want 4", tx-txBefore)
	}
	collectFrames(t, b.Data(), 4)
}

// TestUDPDataBeforeUnicast: data multicast before a token reaches the
// peer along with the token.
func TestUDPDataBeforeUnicast(t *testing.T) {
	a, b := newUDPPair(t)
	for i := 0; i < 3; i++ {
		if err := a.Multicast([]byte{byte(i), 0xDD}); err != nil {
			t.Fatal(err)
		}
	}
	token := tokenFrame(1)
	if err := a.Unicast(2, token); err != nil {
		t.Fatal(err)
	}
	collectFrames(t, b.Data(), 3)
	if got := recvFrame(t, b.Token()); !bytes.Equal(got, token) {
		t.Fatalf("token corrupted: %x", got)
	}
}

// TestUDPRefusedDatagramSkipped: one peer the socket cannot reach (an IPv6
// address beside an IPv4-bound socket, so the kernel refuses every
// datagram to it) must cost only its own datagrams; the healthy peer
// gets every frame, multicast or staged, with segmentation offload and
// without.
func TestUDPRefusedDatagramSkipped(t *testing.T) {
	forOffload(t, func(t *testing.T, pair func(*testing.T) (*UDP, *UDP)) {
		sender, healthy := pair(t)
		if err := sender.AddPeer(3, UDPPeer{Data: "[::1]:9"}); err != nil {
			t.Fatal(err)
		}
		const n = 4
		for i := 0; i < n; i++ {
			if err := sender.Multicast([]byte{byte(i), 0x6A}); err != nil {
				t.Fatal(err)
			}
		}
		for i := n; i < 2*n; i++ {
			if err := sender.Stage([]byte{byte(i), 0x6A}); err != nil {
				t.Fatal(err)
			}
		}
		sender.Flush()
		collectFrames(t, healthy.Data(), 2*n)
	})
}

// TestUDPBatchedAllocs is the zero-allocation gate for the wire path:
// sending a burst of data and the token after it, receiving them through
// the burst reader, which queues each frame by its type, and recycling
// the frames must not allocate in steady state — multicast frame by
// frame, or staged as one run that the token flushes and the receiver
// reads back coalesced and splits.
func TestUDPBatchedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the channel hand-off")
	}
	const burst = 8
	a, b := newUDPPair(t)
	payload := bytes.Repeat([]byte{0x5A}, 1200)
	token := tokenFrame(1)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	recv := func(ch <-chan []byte) {
		timer.Reset(5 * time.Second)
		select {
		case f := <-ch:
			bufpool.Put(f)
		case <-timer.C:
			t.Fatal("timed out waiting for a frame")
		}
	}
	send := a.Multicast
	step := func() {
		for i := 0; i < burst; i++ {
			if err := send(payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Unicast(2, token); err != nil {
			t.Fatal(err)
		}
		recv(b.Token())
		for i := 0; i < burst; i++ {
			recv(b.Data())
		}
	}
	// Warm-up: size-classed pools reach steady-state capacity.
	for i := 0; i < 5; i++ {
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("send+receive allocates %.2f times per burst, want 0", n)
	}
	send = a.Stage
	for i := 0; i < 5; i++ {
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("staged send+receive allocates %.2f times per burst, want 0", n)
	}
}

// FuzzBatchRecvEquivalence sends tagged datagrams of fuzzed sizes through
// the burst reader and requires every one to arrive byte for byte: a
// burst read changes only how datagrams split across syscalls, never
// their boundaries or bytes.
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
		sender, recv := newUDPPair(t)

		// Resend until the receiver saw every tag (UDP may drop);
		// duplicates collapse on the tag.
		got := make(map[byte][]byte)
		deadline := time.Now().Add(5 * time.Second)
		for len(got) < len(payloads) {
			if time.Now().After(deadline) {
				t.Fatalf("timeout: received %d/%d", len(got), len(payloads))
			}
			for _, p := range payloads {
				if err := sender.Multicast(p); err != nil {
					t.Fatal(err)
				}
			}
			for drained := false; !drained; {
				select {
				case fr := <-recv.Data():
					if len(fr) > 0 {
						got[fr[0]] = append([]byte(nil), fr...)
					}
					bufpool.Put(fr)
				case <-time.After(100 * time.Millisecond):
					drained = true
				}
			}
		}
		for _, want := range payloads {
			if tag := want[0]; !bytes.Equal(got[tag], want) {
				t.Fatalf("frame %d: got %x want %x", tag, got[tag], want)
			}
		}
	})
}
