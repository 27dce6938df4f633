package transport

import (
	"sync"
	"testing"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/faults"
)

// TestUDPConcurrentSendAddPeerClose hammers Multicast from several
// goroutines while AddPeer rewrites the peer table and Close finally
// tears the transport down. Under -race this pins the lock-free
// copy-on-write peer snapshot: no sender may observe a torn table, and no
// received frame may show bytes from two different sends (which would
// mean a send wrote into a buffer the receiver already owned).
func TestUDPConcurrentSendAddPeerClose(t *testing.T) {
	send, recv := newUDPPair(t)
	defer recv.Close()

	// Every frame is 64 bytes, all set to one value: any mix of values in
	// a received frame is a shared-buffer corruption.
	const frameLen = 64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			frame := make([]byte, frameLen)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := byte(g*31 + i)
				for j := range frame {
					frame[j] = v
				}
				if send.Multicast(frame) != nil {
					return // closed
				}
			}
		}(g)
	}
	// Peer churn: re-register the receiver and phantom peers, forcing
	// snapshot swaps mid-fan-out.
	wg.Add(1)
	go func() {
		defer wg.Done()
		addrs := recv.LocalAddrs()
		for i := 0; i < 400; i++ {
			id := evs.ProcID(100 + i%3)
			if send.AddPeer(id, addrs) != nil {
				return
			}
			if i == 250 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	checked := 0
	deadline := time.After(250 * time.Millisecond)
drain:
	for {
		select {
		case f := <-recv.Data():
			if len(f) != frameLen {
				t.Fatalf("received %d-byte frame, want %d", len(f), frameLen)
			}
			v := f[0]
			for i, b := range f {
				if b != v {
					t.Fatalf("corrupt frame: byte %d is %#x, byte 0 is %#x", i, b, v)
				}
			}
			checked++
			bufpool.Put(f)
			if checked >= 2000 {
				break drain
			}
		case <-deadline:
			break drain
		}
	}
	close(stop)
	wg.Wait()
	send.Close()
	if checked == 0 {
		t.Fatal("no frames observed")
	}
}

// TestUDPDelayedSendCopiesFrame pins the send ownership rule: a frame
// handed to Multicast may be reused as encode scratch the moment the call
// returns, and the bytes on the wire are the ones it held during the
// call.
func TestUDPDelayedSendCopiesFrame(t *testing.T) {
	send, recv := newUDPPair(t)

	scratch := make([]byte, 32)
	for i := range scratch {
		scratch[i] = 0xAA
	}
	if err := send.Multicast(scratch); err != nil {
		t.Fatal(err)
	}
	for i := range scratch {
		scratch[i] = 0xBB // reuse the scratch once the call returned
	}
	select {
	case f := <-recv.Data():
		for i, b := range f {
			if b != 0xAA {
				t.Fatalf("frame byte %d is %#x, want 0xAA: sender scratch leaked into flight", i, b)
			}
		}
		bufpool.Put(f)
	case <-time.After(2 * time.Second):
		t.Fatal("frame never arrived")
	}
}

// TestHubDelayedDeliveryCopies is the in-memory analogue: a delayed hub
// delivery must not alias the sender's buffer, and every receiver copy is
// independently owned (recycling one must not corrupt another).
func TestHubDelayedDeliveryCopies(t *testing.T) {
	hub := NewHub()
	a, err := hub.Endpoint(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hub.Endpoint(2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := hub.Endpoint(3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var slow faults.Plan
	slow.Add(faults.Rule{Name: "slow", Model: faults.Delay{Min: 10 * time.Millisecond}})
	hub.SetInjector(faults.New(1, slow))

	scratch := []byte("original-frame-bytes")
	want := string(scratch)
	if err := a.Multicast(scratch); err != nil {
		t.Fatal(err)
	}
	for i := range scratch {
		scratch[i] = 'X'
	}
	for _, ep := range []*Endpoint{b, c} {
		select {
		case f := <-ep.Data():
			if string(f) != want {
				t.Fatalf("endpoint %d got %q, want %q", ep.ID(), f, want)
			}
			// Recycle immediately; the other endpoint's copy must be
			// unaffected (they must not share a buffer).
			for i := range f {
				f[i] = 0
			}
			bufpool.Put(f)
		case <-time.After(2 * time.Second):
			t.Fatalf("endpoint %d never received the delayed frame", ep.ID())
		}
	}
}
