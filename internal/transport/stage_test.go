package transport

import (
	"bytes"
	"net"
	"net/netip"
	"testing"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/wire"
)

// forOffload runs f as two subtests: over UDP pairs that use segmentation
// offload where the kernel has it, and over pairs whose open-time probe
// was forced to fail, so every frame is its own datagram.
func forOffload(t *testing.T, f func(t *testing.T, pair func(*testing.T) (*UDP, *UDP))) {
	t.Run("offload", func(t *testing.T) { f(t, newUDPPair) })
	t.Run("no_offload", func(t *testing.T) { f(t, newUDPPairNoOffload) })
}

// newUDPPairNoOffload is newUDPPair on a kernel without UDP_SEGMENT and
// UDP_GRO.
func newUDPPairNoOffload(t *testing.T) (*UDP, *UDP) {
	offloadOff = true
	defer func() { offloadOff = false }()
	return newUDPPair(t)
}

// TestUDPStagedRuns: staged frames reach the peer in order and intact,
// and leave as one send per run of equal-size frames: a change of size
// starts a new run, and so do a run's 64th frame and its 64 KB. Without
// offload each frame is a send of its own.
func TestUDPStagedRuns(t *testing.T) {
	sizes := func(runs ...[2]int) []int { // (count, size) pairs
		var out []int
		for _, r := range runs {
			for i := 0; i < r[0]; i++ {
				out = append(out, r[1])
			}
		}
		return out
	}
	cases := []struct {
		name  string
		sizes []int
		runs  int
	}{
		{"one_run", sizes([2]int{11, 1350}), 1},
		{"unequal_sizes", sizes([2]int{3, 100}, [2]int{2, 200}, [2]int{1, 100}), 3},
		{"64_frames", sizes([2]int{70, 100}), 2},
		{"64_KB", sizes([2]int{50, 1400}), 2},
	}
	forOffload(t, func(t *testing.T, pair func(*testing.T) (*UDP, *UDP)) {
		a, b := pair(t)
		for _, tc := range cases {
			tx0, _ := a.Syscalls()
			for i, n := range tc.sizes {
				f := bytes.Repeat([]byte{byte(n)}, n)
				f[0] = byte(i)
				if err := a.Stage(f); err != nil {
					t.Fatal(err)
				}
			}
			a.Flush()
			tx, _ := a.Syscalls()
			want := len(tc.sizes)
			if a.gso != nil {
				want = tc.runs
			}
			if tx-tx0 != uint64(want) {
				t.Errorf("%s: %d frames to one peer took %d sends, want %d", tc.name, len(tc.sizes), tx-tx0, want)
			}
			for i, n := range tc.sizes {
				f := recvFrame(t, b.Data())
				if len(f) != n || f[0] != byte(i) || !bytes.Equal(f[1:], bytes.Repeat([]byte{byte(n)}, n-1)) {
					t.Fatalf("%s: frame %d arrived as %d bytes tagged %d, want %d bytes", tc.name, i, len(f), f[0], n)
				}
			}
		}
	})
}

// TestUDPGROSplitsRun: a run sent as one segmented datagram, its last
// segment short, reaches a receiver reading with UDP_GRO as one datagram,
// and comes off Data as its frames, in order and intact.
func TestUDPGROSplitsRun(t *testing.T) {
	_, b := newUDPPair(t)
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	gso, _ := openOffload(conn)
	if gso == nil {
		t.Skip("no UDP segmentation offload here")
	}
	to, err := netip.ParseAddrPort(b.LocalAddrs().Data)
	if err != nil {
		t.Fatal(err)
	}
	const k, seg, last = 11, 1350, 200
	run := make([]byte, 0, k*seg+last)
	for i := 0; i <= k; i++ {
		n := seg
		if i == k {
			n = last
		}
		f := bytes.Repeat([]byte{0x3C}, n)
		f[0] = byte(i)
		run = append(run, f...)
	}
	_, rx0 := b.Syscalls()
	setSegment(gso, seg)
	if _, _, err := conn.WriteMsgUDPAddrPort(run, gso, to); err != nil {
		t.Fatalf("the segmented send failed: %v", err)
	}
	for i := 0; i <= k; i++ {
		want := run[i*seg : min((i+1)*seg, len(run))]
		if f := recvFrame(t, b.Data()); !bytes.Equal(f, want) {
			t.Fatalf("frame %d arrived as %d bytes tagged %d, want %d tagged %d", i, len(f), f[0], len(want), i)
		}
	}
	if _, rx := b.Syscalls(); b.gso != nil && rx-rx0 > 2 {
		t.Errorf("one coalesced run took %d receive calls, want the burst and at most one empty poll", rx-rx0)
	}
}

// TestUDPRunRoutedPerFrame: a coalesced datagram of k data segments whose
// last, shorter segment is a token — UDP_GRO on a real NIC may append a
// sender's token to its run; loopback never does — is queued as k frames
// on Data ahead of one on Token. Single datagrams route by type too:
// a commit token to Token, a join and bytes that are no frame to Data.
func TestUDPRunRoutedPerFrame(t *testing.T) {
	u := &UDP{dataCh: make(chan []byte, dataChanCap), tokenCh: make(chan []byte, tokenChanCap)}
	const k, seg = 11, 1350
	d := wire.Data{RingID: evs.ViewID{Rep: 1, Seq: 1}, Sender: 1, Service: evs.Agreed}
	d.Payload = make([]byte, seg-len(d.AppendTo(nil)))
	var run []byte
	for i := 1; i <= k; i++ {
		d.Seq = uint64(i)
		run = d.AppendTo(run)
	}
	token := tokenFrame(9)
	run = append(run, token...)
	u.deliverRun(run, seg)
	if len(u.dataCh) != k || len(u.tokenCh) != 1 {
		t.Fatalf("a run of %d data segments and a token queued %d on Data and %d on Token, want %d and 1",
			k, len(u.dataCh), len(u.tokenCh), k)
	}
	for i := 0; i < k; i++ {
		f := <-u.dataCh
		if !bytes.Equal(f, run[i*seg:(i+1)*seg]) {
			t.Fatalf("data frame %d arrived as %d bytes, not segment %d", i, len(f), i)
		}
		bufpool.Put(f)
	}
	if f := <-u.tokenCh; !bytes.Equal(f, token) {
		t.Fatalf("token arrived as %x, want %x", f, token)
	} else {
		bufpool.Put(f)
	}

	commit := wire.Commit{NewRing: evs.Configuration{ID: evs.ViewID{Rep: 1, Seq: 2}, Members: []evs.ProcID{1, 2}}, Seq: 1, Rotation: 1}
	join := wire.Join{Sender: 1, Alive: []evs.ProcID{1, 2}}
	for _, tc := range []struct {
		name  string
		frame []byte
		token bool
	}{
		{"commit", commit.AppendTo(nil), true},
		{"join", join.AppendTo(nil), false},
		{"no frame", []byte("token"), false},
	} {
		u.deliverRun(tc.frame, 0)
		want, other := u.dataCh, u.tokenCh
		if tc.token {
			want, other = u.tokenCh, u.dataCh
		}
		if len(want) != 1 || len(other) != 0 {
			t.Fatalf("%s: queued on the wrong channel (token %v)", tc.name, tc.token)
		}
		bufpool.Put(<-want)
	}
}
