package transport

import (
	"sync"
	"sync/atomic"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/obs"
	"accelring/internal/wire"
)

// WithAuth wraps inner so every outbound frame carries a truncated
// HMAC-SHA256 tag and every inbound frame is verified before the driver
// sees it. Forged or corrupted frames (bad tag, wrong key, no tag) are
// counted on the "transport.auth_drops" counter of reg, flight-recorded
// as FlightRxDrop events with note "auth:data"/"auth:token", recycled,
// and never delivered — a forged token or data frame cannot reach the
// ordering engine.
//
// An empty key returns inner unchanged, so the authentication-off path
// keeps its zero-overhead (and zero-allocation) behavior. reg and fl may
// be nil.
//
// The wrapper preserves the Transport contract: sends still borrow (the
// tag is appended into an internal scratch owned by the single sender
// goroutine) and verified receives still hand off the pooled buffer,
// trimmed in place, so bufpool recycling by capacity is unaffected.
func WithAuth(inner Transport, key []byte, reg *obs.Registry, fl *obs.Recorder) Transport {
	auth := wire.NewAuth(key)
	if auth == nil {
		return inner
	}
	a := &authTransport{
		inner:   inner,
		auth:    auth,
		dataCh:  make(chan []byte, 4096),
		tokenCh: make(chan []byte, 16),
		stop:    make(chan struct{}),
		dropCnt: reg.Counter("transport.auth_drops"),
		fl:      fl,
	}
	a.wg.Add(2)
	go a.forward(inner.Data(), a.dataCh, "auth:data")
	go a.forward(inner.Token(), a.tokenCh, "auth:token")
	return a
}

type authTransport struct {
	inner   Transport
	auth    *wire.Auth
	scratch []byte // sender-side signing buffer (one sender goroutine)

	dataCh  chan []byte
	tokenCh chan []byte
	stop    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool

	drops   atomic.Uint64
	dropCnt *obs.Counter
	fl      *obs.Recorder
}

var _ Transport = (*authTransport)(nil)

// Multicast implements Transport, signing the frame first.
func (a *authTransport) Multicast(frame []byte) error {
	a.scratch = a.auth.AppendMAC(a.scratch[:0], frame)
	return a.inner.Multicast(a.scratch)
}

// Unicast implements Transport, signing the frame first.
func (a *authTransport) Unicast(to evs.ProcID, frame []byte) error {
	a.scratch = a.auth.AppendMAC(a.scratch[:0], frame)
	return a.inner.Unicast(to, a.scratch)
}

// Data implements Transport: only frames that verified.
func (a *authTransport) Data() <-chan []byte { return a.dataCh }

// Token implements Transport: only frames that verified.
func (a *authTransport) Token() <-chan []byte { return a.tokenCh }

// AuthDrops returns how many inbound frames failed verification.
func (a *authTransport) AuthDrops() uint64 { return a.drops.Load() }

// Close stops the verifier goroutines and closes the inner transport.
// Like the inner implementations, the outbound channels are not closed;
// drivers stop via their own signal.
func (a *authTransport) Close() error {
	if a.closed.Swap(true) {
		return nil
	}
	close(a.stop)
	err := a.inner.Close()
	a.wg.Wait()
	return err
}

// forward verifies frames from in and hands the trimmed bodies to out.
// It exits on Close (the inner channels may never close — the Hub's
// don't) or when the inner channel closes (UDP does on socket close).
func (a *authTransport) forward(in <-chan []byte, out chan []byte, note string) {
	defer a.wg.Done()
	for {
		select {
		case <-a.stop:
			return
		case f, ok := <-in:
			if !ok {
				return
			}
			body, good := a.auth.Verify(f)
			if !good {
				bufpool.Put(f)
				a.drops.Add(1)
				a.dropCnt.Inc()
				a.fl.Record(obs.Event{Kind: obs.FlightRxDrop, Note: note})
				continue
			}
			select {
			case out <- body:
			case <-a.stop:
				bufpool.Put(body)
				return
			}
		}
	}
}
