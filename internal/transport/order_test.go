package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/bufpool"
)

// TestDataQueuedBeforeToken pins the Transport ordering contract on every
// implementation that keeps it: k data frames sent before a token are all
// queued on Data by the time the token is read from Token — multicast one
// by one, or staged as one run that the token flushes and the receiver
// reads back coalesced, with segmentation offload and without. UDP keeps
// it on every platform: one reader queues the frames of its one socket in
// the order they arrived.
func TestDataQueuedBeforeToken(t *testing.T) {
	key := []byte("ring-key")
	keyed := func(pair func(*testing.T) (*UDP, *UDP)) func(t *testing.T) (Transport, Transport) {
		return func(t *testing.T) (Transport, Transport) {
			a, b := pair(t)
			ka, kb := WithAuth(a, key, nil, nil), WithAuth(b, key, nil, nil)
			t.Cleanup(func() { ka.Close(); kb.Close() })
			return ka, kb
		}
	}
	cases := []struct {
		name  string
		stage bool
		pair  func(t *testing.T) (Transport, Transport)
	}{
		{"Hub", false, func(t *testing.T) (Transport, Transport) {
			hub := NewHub()
			a, err := hub.Endpoint(1, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := hub.Endpoint(2, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { a.Close(); b.Close(); hub.Close() })
			return a, b
		}},
		{"UDP", false, func(t *testing.T) (Transport, Transport) {
			return newUDPPair(t)
		}},
		{"WithAuth(UDP)", false, keyed(newUDPPair)},
		{"UDP_staged", true, func(t *testing.T) (Transport, Transport) {
			return newUDPPair(t)
		}},
		{"WithAuth(UDP)_staged", true, keyed(newUDPPair)},
		{"UDP_staged_no_offload", true, func(t *testing.T) (Transport, Transport) {
			return newUDPPairNoOffload(t)
		}},
		{"WithAuth(UDP)_staged_no_offload", true, keyed(newUDPPairNoOffload)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.pair(t)
			send := a.Multicast
			if tc.stage {
				send = a.(Stager).Stage
			}
			const k, iterations = 50, 200
			frame, token := make([]byte, 200), tokenFrame(1)
			for it := 0; it < iterations; it++ {
				frame[0] = byte(it)
				for j := 0; j < k; j++ {
					frame[1] = byte(j)
					if err := send(frame); err != nil {
						t.Fatal(err)
					}
				}
				if err := a.Unicast(2, token); err != nil {
					t.Fatal(err)
				}
				bufpool.Put(recvFrame(t, b.Token()))
				if queued := len(b.Data()); queued != k {
					t.Fatalf("iteration %d: %d of %d data frames queued when the token was read", it, queued, k)
				}
				for j := 0; j < k; j++ {
					f := recvFrame(t, b.Data())
					if f[0] != byte(it) || f[1] != byte(j) {
						t.Fatalf("iteration %d: frame %d arrived as (%d, %d)", it, j, f[0], f[1])
					}
					bufpool.Put(f)
				}
			}
		})
	}
}

// TestUDPCloseUnderFlood closes a receiver while a peer floods it with
// data and tokens and a consumer reads its tokens, so that the reader is
// queueing frames on both channels when the socket dies. Under -race
// (make race) this pins that the reader's exit races with no delivery,
// and that Close strands no rented frame.
func TestUDPCloseUnderFlood(t *testing.T) {
	before := bufpool.Snapshot()
	for round := 0; round < 10; round++ {
		send, err := NewUDP(UDPConfig{Self: 1, Listen: UDPPeer{Data: "127.0.0.1:0"}})
		if err != nil {
			t.Fatal(err)
		}
		recv, err := NewUDP(UDPConfig{Self: 2, Listen: UDPPeer{Data: "127.0.0.1:0"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := send.AddPeer(2, recv.LocalAddrs()); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload, token := make([]byte, 300), tokenFrame(1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 16; i++ {
					_ = send.Multicast(payload)
				}
				_ = send.Unicast(2, token)
			}
		}()
		// Consume tokens until Close closes the channel; leave the data
		// queued.
		var tokens atomic.Int64
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range recv.Token() {
				tokens.Add(1)
				bufpool.Put(f)
			}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for tokens.Load() < 10 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d tokens read under a flood, want 10", round, tokens.Load())
			}
			time.Sleep(time.Millisecond)
		}
		if err := recv.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		if err := send.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
	poolBalanced(t, before)
}

// TestAuthCloseWhileForwarding closes a keyed Hub endpoint while a peer
// floods it with data and tokens and a consumer reads both classes, so
// that the forwarder is queueing the data ahead of a token when Close
// empties the inner channels. Close must return every time.
func TestAuthCloseWhileForwarding(t *testing.T) {
	key := []byte("ring-key")
	for round := 0; round < 50; round++ {
		hub := NewHub()
		e1, err := hub.Endpoint(1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := hub.Endpoint(2, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		send, recv := WithAuth(e1, key, nil, nil), WithAuth(e2, key, nil, nil)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			payload := make([]byte, 100)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 16; i++ {
					_ = send.Multicast(payload)
				}
				_ = send.Unicast(2, payload)
			}
		}()
		tokens := make(chan struct{}, 1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case f := <-recv.Data():
					bufpool.Put(f)
				case f := <-recv.Token():
					bufpool.Put(f)
					select {
					case tokens <- struct{}{}:
					default:
					}
				}
			}
		}()
		select {
		case <-tokens:
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: no token forwarded", round)
		}
		closed := make(chan struct{})
		go func() {
			recv.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Close did not return while the forwarder was busy", round)
		}
		close(stop)
		wg.Wait()
		send.Close()
		hub.Close()
	}
}
