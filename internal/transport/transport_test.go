package transport

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/faults"
	"accelring/internal/obs"
	"accelring/internal/wire"
)

// tokenFrame returns an encoded token: UDP queues a frame on Token by its
// wire type, not by the call that sent it.
func tokenFrame(seq uint32) []byte {
	t := wire.Token{RingID: evs.ViewID{Rep: 1, Seq: 1}, TokenSeq: seq}
	return t.AppendTo(nil)
}

func recvFrame(t *testing.T, ch <-chan []byte) []byte {
	t.Helper()
	select {
	case f := <-ch:
		return f
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for frame")
		return nil
	}
}

func expectNone(t *testing.T, ch <-chan []byte) {
	t.Helper()
	select {
	case f := <-ch:
		t.Fatalf("unexpected frame %q", f)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestHubMulticast(t *testing.T) {
	hub := NewHub()
	var eps []*Endpoint
	for i := evs.ProcID(1); i <= 3; i++ {
		ep, err := hub.Endpoint(i, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
	}
	if err := eps[0].Multicast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps[1:] {
		if got := recvFrame(t, ep.Data()); string(got) != "hello" {
			t.Fatalf("got %q", got)
		}
	}
	expectNone(t, eps[0].Data()) // no loopback
}

func TestHubUnicastTokenChannel(t *testing.T) {
	hub := NewHub()
	a, _ := hub.Endpoint(1, 0, 0)
	b, _ := hub.Endpoint(2, 0, 0)
	if err := a.Unicast(2, []byte("tok")); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, b.Token()); string(got) != "tok" {
		t.Fatalf("got %q", got)
	}
	expectNone(t, b.Data())
	// Unicast to an unknown peer is not an error (peer may have died).
	if err := a.Unicast(99, []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestHubFrameIsolation(t *testing.T) {
	hub := NewHub()
	a, _ := hub.Endpoint(1, 0, 0)
	b, _ := hub.Endpoint(2, 0, 0)
	frame := []byte("mutable")
	if err := a.Multicast(frame); err != nil {
		t.Fatal(err)
	}
	frame[0] = 'X'
	if got := recvFrame(t, b.Data()); string(got) != "mutable" {
		t.Fatalf("receiver saw sender's mutation: %q", got)
	}
}

func TestHubDropInjection(t *testing.T) {
	hub := NewHub()
	a, _ := hub.Endpoint(1, 0, 0)
	b, _ := hub.Endpoint(2, 0, 0)
	c, _ := hub.Endpoint(3, 0, 0)
	var plan faults.Plan
	plan.Add(faults.Rule{Name: "to-2", To: 2, Model: faults.Loss{P: 1}})
	hub.SetInjector(faults.New(1, plan))
	a.Multicast([]byte("m"))
	expectNone(t, b.Data())
	if got := recvFrame(t, c.Data()); string(got) != "m" {
		t.Fatalf("got %q", got)
	}
}

func TestHubOverflowDrops(t *testing.T) {
	hub := NewHub()
	reg := obs.NewRegistry()
	hub.SetObserver(reg)
	a, _ := hub.Endpoint(1, 0, 0)
	hub.Endpoint(2, 2, 0) // data capacity 2
	for i := 0; i < 5; i++ {
		a.Multicast([]byte{byte(i)})
	}
	if got := reg.Counter("transport.inmem.rx_dropped").Value(); got != 3 {
		t.Fatalf("rx_dropped = %d, want 3 data drops", got)
	}
}

func TestHubClose(t *testing.T) {
	hub := NewHub()
	a, _ := hub.Endpoint(1, 0, 0)
	b, _ := hub.Endpoint(2, 0, 0)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Multicast([]byte("x")); err != nil {
		t.Fatal(err) // sending into a hub with a closed peer is fine
	}
	if err := b.Multicast([]byte("x")); err != ErrClosed {
		t.Fatalf("send on closed endpoint = %v, want ErrClosed", err)
	}
	// Re-attach under the same ID works after Close.
	if _, err := hub.Endpoint(2, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Duplicate attach fails.
	if _, err := hub.Endpoint(1, 0, 0); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
}

func newUDPPair(t *testing.T) (*UDP, *UDP) {
	t.Helper()
	a, err := NewUDP(UDPConfig{Self: 1, Listen: UDPPeer{Data: "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewUDP(UDPConfig{Self: 2, Listen: UDPPeer{Data: "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.AddPeer(2, b.LocalAddrs()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(1, a.LocalAddrs()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestUDPRoundTrip(t *testing.T) {
	a, b := newUDPPair(t)
	payload := bytes.Repeat([]byte{0xAB}, 1350)
	if err := a.Multicast(payload); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, b.Data()); !bytes.Equal(got, payload) {
		t.Fatalf("data frame corrupted: %d bytes", len(got))
	}
	token := tokenFrame(7)
	if err := b.Unicast(1, token); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, a.Token()); !bytes.Equal(got, token) {
		t.Fatalf("got %x, want %x", got, token)
	}
}

func TestUDPCloseUnblocksReaders(t *testing.T) {
	a, b := newUDPPair(t)
	done := make(chan struct{})
	go func() {
		// Drain until channel closes.
		for range b.Data() {
		}
		close(done)
	}()
	a.Multicast([]byte("x"))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("reader did not stop after Close")
	}
	if err := b.Multicast([]byte("x")); err != ErrClosed {
		t.Fatalf("send after close = %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

func TestUDPUnknownPeer(t *testing.T) {
	a, _ := newUDPPair(t)
	if err := a.Unicast(77, []byte("t")); err != nil {
		t.Fatalf("unicast to unknown peer = %v, want nil (UDP semantics)", err)
	}
}

func TestUDPConfigValidation(t *testing.T) {
	if _, err := NewUDP(UDPConfig{Listen: UDPPeer{Data: "127.0.0.1:0"}}); err == nil {
		t.Fatal("zero Self accepted")
	}
	if _, err := NewUDP(UDPConfig{Self: 1, Listen: UDPPeer{Data: "bogus::addr::"}}); err == nil {
		t.Fatal("bad listen address accepted")
	}
	// A peer that does not resolve fails NewUDP instead of hanging its
	// cleanup on a reader goroutine that never started.
	if _, err := NewUDP(UDPConfig{Self: 1, Listen: UDPPeer{Data: "127.0.0.1:0"},
		Peers: map[evs.ProcID]UDPPeer{2: {Data: "bogus::addr::"}}}); err == nil {
		t.Fatal("bad peer address accepted")
	}
}

func TestUDPManyFrames(t *testing.T) {
	a, b := newUDPPair(t)
	const count = 200
	go func() {
		for i := 0; i < count; i++ {
			frame := []byte(fmt.Sprintf("frame-%03d", i))
			a.Multicast(frame)
		}
	}()
	seen := 0
	deadline := time.After(5 * time.Second)
	for seen < count/2 { // UDP may drop; require at least half on loopback
		select {
		case <-b.Data():
			seen++
		case <-deadline:
			t.Fatalf("received only %d/%d frames", seen, count)
		}
	}
}

// TestShiftPort covers the one port-offset rule the facade and ringdaemon
// share for deriving ring r's addresses: numeric nonzero ports only, and
// the shifted port must still fit in 16 bits — for a single address and
// for a UDPPeer, whose ignored Token the shift drops.
func TestShiftPort(t *testing.T) {
	const good = "127.0.0.1:7000"
	for _, tc := range []struct {
		addr string
		by   int
		want string // "" = error
	}{
		{"127.0.0.1:7400", 2, "127.0.0.1:7402"},
		{"127.0.0.1:7400", 0, "127.0.0.1:7400"},
		{"[::1]:9000", 4, "[::1]:9004"},
		{"127.0.0.1:65533", 2, "127.0.0.1:65535"},
		{"127.0.0.1:0", 2, ""},      // ephemeral: peers cannot derive it
		{"127.0.0.1:domain", 2, ""}, // service name
		{"127.0.0.1:65535", 2, ""},  // overflow past 65535
		{"no-port", 2, ""},
	} {
		got, err := ShiftPort(tc.addr, tc.by)
		if (tc.want == "") != (err != nil) || got != tc.want {
			t.Errorf("ShiftPort(%q, %d) = %q, %v; want %q", tc.addr, tc.by, got, err, tc.want)
		}
		p := UDPPeer{Data: tc.addr, Token: good}
		shifted, err := p.Shift(tc.by)
		if want := (UDPPeer{Data: tc.want}); (tc.want == "") != (err != nil) || shifted != want {
			t.Errorf("%+v.Shift(%d) = %+v, %v; want %+v", p, tc.by, shifted, err, want)
		}
	}
}
