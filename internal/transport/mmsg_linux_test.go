//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"net"
	"os"
	"syscall"
	"testing"
)

// newQueuedReader returns an mmsgReader with slots slots over one end of
// a datagram socket pair, and a send function that writes one datagram
// into the other end. A send on a socket pair is queued on the reader's
// socket before the syscall returns, so a test knows exactly what one
// readBatch finds waiting.
func newQueuedReader(t *testing.T, slots int) (*mmsgReader, func([]byte)) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_DGRAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := os.NewFile(uintptr(fds[0]), "reader")
	conn, err := net.FileConn(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	r, err := newMMsgReader(conn.(*net.UnixConn), slots, slotSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		syscall.Close(fds[1])
		r.release()
	})
	send := func(b []byte) {
		if _, err := syscall.Write(fds[1], b); err != nil {
			t.Fatal(err)
		}
	}
	return r, send
}

// TestUDPBatchedSyscallReduction: k datagrams queued before the first
// read come back from one readBatch, in one syscall, in order and intact,
// with no allocation.
func TestUDPBatchedSyscallReduction(t *testing.T) {
	const k = 16
	r, send := newQueuedReader(t, dataSlots)
	payload := bytes.Repeat([]byte{0xAA}, 1350)
	seen := 0
	visit := func(i, n int) {
		if got := r.slot(i)[:n]; n != len(payload) || got[0] != byte(seen) || !bytes.Equal(got[1:], payload[1:]) {
			t.Fatalf("slot %d: datagram %d corrupted (%d bytes)", i, seen, n)
		}
		seen++
	}
	burst := func() {
		for i := 0; i < k; i++ {
			payload[0] = byte(i)
			send(payload)
		}
		seen = 0
		got, sys, ok := r.readBatch(visit)
		if !ok || got != k || sys != 1 || seen != k {
			t.Fatalf("readBatch over %d queued datagrams: got %d (visited %d) in %d syscalls, ok %v; want all in 1",
				k, got, seen, sys, ok)
		}
	}
	burst()
	if n := testing.AllocsPerRun(50, burst); n != 0 {
		t.Fatalf("a burst read allocates %.1f times, want 0", n)
	}
}

// TestUDPSmallBatchRoundTrip: more datagrams queued than the reader has
// slots take one readBatch per slot-full, in order, and none is lost.
func TestUDPSmallBatchRoundTrip(t *testing.T) {
	r, send := newQueuedReader(t, 3)
	for i := 0; i < 5; i++ {
		send([]byte{byte(i), 1, 2, 3})
	}
	var got []byte
	visit := func(i, n int) {
		if !bytes.Equal(r.slot(i)[1:n], []byte{1, 2, 3}) {
			t.Fatalf("slot %d corrupted: %x", i, r.slot(i)[:n])
		}
		got = append(got, r.slot(i)[0])
	}
	for _, want := range []int{3, 2} {
		if n, sys, ok := r.readBatch(visit); !ok || n != want || sys != 1 {
			t.Fatalf("readBatch = %d datagrams in %d syscalls (ok %v), want %d in 1", n, sys, ok, want)
		}
	}
	if !bytes.Equal(got, []byte{0, 1, 2, 3, 4}) {
		t.Fatalf("datagrams arrived as %v, want 0..4 in order", got)
	}
}
