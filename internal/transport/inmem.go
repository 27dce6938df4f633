package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/faults"
	"accelring/internal/obs"
)

// Hub is an in-process switch connecting Endpoints. It is safe for
// concurrent use. Loss, delay, duplication, and partitions are injected
// through a faults.Injector. Each delivered copy is rented from bufpool,
// so senders and receivers never share buffers and receivers own (and may
// recycle) what they read.
type Hub struct {
	mu     sync.RWMutex
	eps    map[evs.ProcID]*Endpoint
	inj    *faults.Injector
	nm     *netMetrics
	delayQ delayQueue
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{eps: make(map[evs.ProcID]*Endpoint)}
}

// SetInjector installs a fault injector on every frame path through the
// hub (nil clears). It can drop, delay and duplicate frames; a delayed
// frame is delivered asynchronously, so frames overtake each other — UDP
// reordering. Decisions use the injector's wall clock.
func (h *Hub) SetInjector(in *faults.Injector) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.inj = in
}

// SetObserver directs transport.inmem.* frame/byte counters for every
// frame through the hub into reg (nil clears).
func (h *Hub) SetObserver(reg *obs.Registry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nm = newNetMetrics(reg, "transport.inmem.")
}

// push delivers every surviving copy of a frame to one endpoint's channel
// per the injector decision: the primary copy after d.Delay, one extra
// copy per d.Extra entry. Each delivery gets its own rented buffer — the
// receiver owns (and may recycle) what it reads, so two deliveries must
// never share one.
func (h *Hub) push(peer *Endpoint, token bool, frame []byte, d faults.Decision, nm *netMetrics) {
	if d.Drop {
		return
	}
	h.deliverAfter(peer, token, frame, d.Delay, nm)
	for _, extra := range d.Extra {
		h.deliverAfter(peer, token, frame, extra, nm)
	}
}

// deliverAfter rents a copy of the frame and delivers it, via the hub's
// single delay-queue drainer when delayed (which lets frames overtake each
// other, like UDP). The copy is made synchronously: the sender may reuse
// its encode scratch the moment its send call returns. Only a delayed
// frame needs a closure, so an immediate one allocates nothing.
func (h *Hub) deliverAfter(peer *Endpoint, token bool, frame []byte, delay time.Duration, nm *netMetrics) {
	cp := bufpool.Get(len(frame))
	copy(cp, frame)
	if delay > 0 {
		h.delayQ.after(delay, func() { deliverTo(peer, token, cp, nm) })
		return
	}
	deliverTo(peer, token, cp, nm)
}

// deliverTo hands a rented frame copy to peer's channel of its class.
// Dropped copies (closed endpoint, full channel) go straight back to the
// pool.
func deliverTo(peer *Endpoint, token bool, cp []byte, nm *netMetrics) {
	ch := peer.dataCh
	if token {
		ch = peer.tokenCh
	}
	if peer.closed.Load() {
		bufpool.Put(cp)
		return
	}
	select {
	case ch <- cp:
		nm.rx(token, len(cp))
	default:
		bufpool.Put(cp)
		nm.rxDrop()
	}
}

// Close flushes the hub's delay queue: pending delayed deliveries run
// immediately (each delivers to a still-open endpoint or recycles its
// buffer) and the drainer goroutine exits. Call it after closing the
// endpoints when tearing a test or process down; the hub itself remains
// usable for immediate deliveries. Idempotent.
func (h *Hub) Close() error {
	h.delayQ.stop()
	return nil
}

// Endpoint attaches a new participant with the given receive-channel
// capacities (frames, not bytes). It returns an error if the ID is taken.
func (h *Hub) Endpoint(id evs.ProcID, dataCap, tokenCap int) (*Endpoint, error) {
	if dataCap <= 0 {
		dataCap = 4096
	}
	if tokenCap <= 0 {
		tokenCap = 16
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, taken := h.eps[id]; taken {
		return nil, fmt.Errorf("transport: endpoint %d already attached", id)
	}
	ep := &Endpoint{
		hub:     h,
		id:      id,
		dataCh:  make(chan []byte, dataCap),
		tokenCh: make(chan []byte, tokenCap),
	}
	h.eps[id] = ep
	return ep, nil
}

// detach removes an endpoint.
func (h *Hub) detach(id evs.ProcID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.eps, id)
}

// Endpoint is one participant's view of a Hub.
type Endpoint struct {
	hub     *Hub
	id      evs.ProcID
	dataCh  chan []byte
	tokenCh chan []byte

	closed atomic.Bool
}

var _ Transport = (*Endpoint)(nil)

// ID returns the endpoint's participant ID.
func (e *Endpoint) ID() evs.ProcID { return e.id }

// Multicast implements Transport: the frame is delivered to every other
// attached endpoint's data channel, each in its own rented buffer. Full
// channels drop (like a full UDP socket buffer). The caller's frame is
// only read during the call.
func (e *Endpoint) Multicast(frame []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.hub.mu.RLock()
	inj := e.hub.inj
	nm := e.hub.nm
	for id, peer := range e.hub.eps {
		if id == e.id || peer.closed.Load() {
			continue
		}
		nm.tx(false, len(frame))
		e.hub.push(peer, false, frame, e.decide(inj, id, false, frame), nm)
	}
	e.hub.mu.RUnlock()
	return nil
}

// decide asks the fault injector (if any) what happens to one frame.
func (e *Endpoint) decide(inj *faults.Injector, to evs.ProcID, token bool, frame []byte) faults.Decision {
	if inj == nil {
		return faults.Decision{}
	}
	return inj.DecideWall(faults.Packet{
		From: e.id, To: to, Token: token, Size: len(frame), Frame: frame,
	})
}

// Unicast implements Transport: the frame is copied into a rented buffer
// and delivered to the peer's token channel. Sending to an unknown peer is
// not an error (the peer may have crashed); the frame is silently dropped,
// as UDP would.
func (e *Endpoint) Unicast(to evs.ProcID, frame []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.hub.mu.RLock()
	peer := e.hub.eps[to]
	inj := e.hub.inj
	nm := e.hub.nm
	e.hub.mu.RUnlock()
	if peer == nil || peer.closed.Load() {
		return nil
	}
	nm.tx(true, len(frame))
	e.hub.push(peer, true, frame, e.decide(inj, to, true, frame), nm)
	return nil
}

// Data implements Transport.
func (e *Endpoint) Data() <-chan []byte { return e.dataCh }

// Token implements Transport.
func (e *Endpoint) Token() <-chan []byte { return e.tokenCh }

// Close detaches the endpoint and recycles frames already queued on its
// receive channels. The channels are NOT closed (senders may hold
// references); readers should stop via their own signal. The drain is
// best-effort: a sender that raced past the closed check may enqueue one
// more frame afterwards, which is merely unpooled garbage, not a leak.
func (e *Endpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.hub.detach(e.id)
	for {
		select {
		case f := <-e.dataCh:
			bufpool.Put(f)
		case f := <-e.tokenCh:
			bufpool.Put(f)
		default:
			return nil
		}
	}
}
