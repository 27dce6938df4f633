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
// trimmed in place, so bufpool recycling by capacity is unaffected. It
// keeps the ordering contract over an inner transport that does, and is
// a Stager: over a Stager (UDP) each frame is signed into the inner run. Its
// channels have the inner ones' capacities, and a frame that finds one
// full is dropped, counted on "transport.auth_rx_dropped".
func WithAuth(inner Transport, key []byte, reg *obs.Registry, fl *obs.Recorder) Transport {
	auth := wire.NewAuth(key)
	if auth == nil {
		return inner
	}
	st, _ := inner.(Stager)
	a := &authTransport{
		inner:   inner,
		st:      st,
		auth:    auth,
		dataCh:  make(chan []byte, cap(inner.Data())),
		tokenCh: make(chan []byte, cap(inner.Token())),
		stop:    make(chan struct{}),
		dropCnt: reg.Counter("transport.auth_drops"),
		fullCnt: reg.Counter("transport.auth_rx_dropped"),
		fl:      fl,
	}
	a.wg.Add(1)
	go a.forward(inner.Data(), inner.Token())
	return a
}

type authTransport struct {
	inner   Transport
	st      Stager // inner's staged path (nil: it has none)
	auth    *wire.Auth
	scratch []byte // sender-side signing buffer (one sender goroutine)

	dataCh  chan []byte
	tokenCh chan []byte
	stop    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool

	dropCnt *obs.Counter
	fullCnt *obs.Counter
	fl      *obs.Recorder
}

var _ Stager = (*authTransport)(nil)

// Multicast implements Transport, signing the frame first.
func (a *authTransport) Multicast(frame []byte) error {
	a.scratch = a.auth.AppendMAC(a.scratch[:0], frame)
	return a.inner.Multicast(a.scratch)
}

// Stage implements Stager, signing the frame into the inner transport's
// run, or multicasting it signed over an inner transport without one.
func (a *authTransport) Stage(frame []byte) error {
	a.scratch = a.auth.AppendMAC(a.scratch[:0], frame)
	if a.st == nil {
		return a.inner.Multicast(a.scratch)
	}
	return a.st.Stage(a.scratch)
}

// Flush implements Stager.
func (a *authTransport) Flush() {
	if a.st != nil {
		a.st.Flush()
	}
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

// Close stops the verifier goroutine and closes the inner transport.
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

// forward verifies frames from the inner channels and queues the bodies,
// the data already on the inner Data channel ahead of each token. It never
// waits on the consumer and exits on Close (the Hub's channels never
// close) or when an inner channel closes (UDP's do on socket close).
func (a *authTransport) forward(data, token <-chan []byte) {
	defer a.wg.Done()
	for {
		select {
		case <-a.stop:
			return
		case f, ok := <-data:
			if !ok {
				return
			}
			a.pass(f, false)
		case f, ok := <-token:
			// Read without waiting: a Close may empty data meanwhile.
			for n := len(data); ok && n > 0; n-- {
				select {
				case d, open := <-data:
					if ok = open; ok {
						a.pass(d, false)
					}
				default:
					n = 0
				}
			}
			if !ok {
				bufpool.Put(f)
				return
			}
			a.pass(f, true)
		}
	}
}

// pass verifies f and queues its body on the channel of its class. A
// forgery is counted on auth_drops, a body that finds its channel full on
// auth_rx_dropped; both are recycled.
func (a *authTransport) pass(f []byte, token bool) {
	out, forged, full := a.dataCh, "auth:data", "data"
	if token {
		out, forged, full = a.tokenCh, "auth:token", "token"
	}
	body, good := a.auth.Verify(f)
	if !good {
		bufpool.Put(f)
		a.dropCnt.Inc()
		a.fl.Record(obs.Event{Kind: obs.FlightRxDrop, Note: forged})
		return
	}
	select {
	case out <- body:
	default:
		bufpool.Put(body)
		a.fullCnt.Inc()
		a.fl.Record(obs.Event{Kind: obs.FlightRxDrop, Note: full})
	}
}
