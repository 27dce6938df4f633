package transport

import (
	"testing"
	"time"

	"accelring/internal/obs"
	"accelring/internal/wire"
)

func authPair(t *testing.T, keyA, keyB []byte, reg *obs.Registry) (Transport, Transport) {
	t.Helper()
	hub := NewHub()
	e1, err := hub.Endpoint(1, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := hub.Endpoint(2, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	t1 := WithAuth(e1, keyA, reg, nil)
	t2 := WithAuth(e2, keyB, reg, nil)
	t.Cleanup(func() { t1.Close(); t2.Close() })
	return t1, t2
}

func TestAuthTransportRoundTrip(t *testing.T) {
	key := []byte("ring-key")
	t1, t2 := authPair(t, key, key, nil)

	if err := t1.Multicast([]byte("data-frame")); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, t2.Data()); string(got) != "data-frame" {
		t.Fatalf("data = %q", got)
	}
	if err := t1.Unicast(2, []byte("token-frame")); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, t2.Token()); string(got) != "token-frame" {
		t.Fatalf("token = %q", got)
	}
}

func TestAuthTransportDropsForged(t *testing.T) {
	reg := obs.NewRegistry()
	// t1 signs with a different key: everything it sends must be dropped
	// by t2's verifier, both channels.
	t1, t2 := authPair(t, []byte("wrong"), []byte("right"), reg)

	if err := t1.Multicast([]byte("forged-data")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Unicast(2, []byte("forged-token")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("transport.auth_drops").Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("auth_drops = %d, want 2", reg.Counter("transport.auth_drops").Value())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case f := <-t2.Data():
		t.Fatalf("forged data frame delivered: %q", f)
	case f := <-t2.Token():
		t.Fatalf("forged token frame delivered: %q", f)
	case <-time.After(20 * time.Millisecond):
	}
	if got := reg.Counter("transport.auth_drops").Value(); got != 2 {
		t.Fatalf("auth_drops = %d, want 2", got)
	}
}

func TestAuthTransportEmptyKeyPassthrough(t *testing.T) {
	hub := NewHub()
	ep, err := hub.Endpoint(1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if tr := WithAuth(ep, nil, nil, nil); tr != Transport(ep) {
		t.Fatal("empty key must return the inner transport unchanged")
	}
}

func TestAuthTransportOverheadOnWire(t *testing.T) {
	// An unauthenticated receiver sees the raw signed bytes: frame + tag.
	hub := NewHub()
	e1, _ := hub.Endpoint(1, 4, 4)
	e2, _ := hub.Endpoint(2, 4, 4)
	defer e2.Close()
	t1 := WithAuth(e1, []byte("k"), nil, nil)
	defer t1.Close()

	if err := t1.Multicast([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	raw := recvFrame(t, e2.Data())
	if len(raw) != 3+wire.MacLen {
		t.Fatalf("wire frame length = %d, want %d", len(raw), 3+wire.MacLen)
	}
}

// TestAuthTokenNeverWaitsOnConsumer fills a keyed receiver's Data and
// leaves it unread: a token sent after more data still reaches Token, and
// the data queued ahead of it that found Data full is dropped and counted.
func TestAuthTokenNeverWaitsOnConsumer(t *testing.T) {
	reg := obs.NewRegistry()
	t1, t2 := authPair(t, []byte("k"), []byte("k"), reg)
	full := cap(t2.Data())
	for i := 0; i < full; i++ {
		if err := t1.Multicast([]byte("fill")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(t2.Data()) < full {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d data frames queued", len(t2.Data()), full)
		}
		time.Sleep(time.Millisecond)
	}
	const ahead = 3
	for i := 0; i < ahead; i++ {
		if err := t1.Multicast([]byte("ahead")); err != nil {
			t.Fatal(err)
		}
	}
	if err := t1.Unicast(2, []byte("token")); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, t2.Token()); string(got) != "token" {
		t.Fatalf("token = %q", got)
	}
	if got := reg.Counter("transport.auth_rx_dropped").Value(); got != ahead {
		t.Fatalf("auth_rx_dropped = %d, want %d", got, ahead)
	}
	if got := reg.Counter("transport.auth_drops").Value(); got != 0 {
		t.Fatalf("auth_drops = %d, want 0: an overflow is not a forgery", got)
	}
}
