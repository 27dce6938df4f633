// Package ringnode is the real-time driver for the protocol stack: it runs
// a membership.Machine (which owns the ordering engine) on a single
// goroutine over a transport.Transport, implementing the paper's
// token/data socket priority scheme, the membership timers, and a
// synchronous submission API.
//
// The single protocol goroutine mirrors the paper's single-threaded
// daemons: the ordering service deliberately consumes at most one core.
package ringnode

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/core"
	"accelring/internal/evs"
	"accelring/internal/flowcontrol"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/pack"
	"accelring/internal/transport"
)

// Config configures a node.
type Config struct {
	// Self is this participant's ID.
	Self evs.ProcID
	// Transport moves frames; the node takes ownership and closes it on
	// Stop.
	Transport transport.Transport
	// Windows are the protocol's flow-control parameters.
	Windows flowcontrol.Windows
	// Priority is the token-priority method (defaults to aggressive).
	Priority core.PriorityMethod
	// DelayedRequests selects the accelerated retransmission rule.
	DelayedRequests bool
	// Timeouts are the membership timing parameters (defaults applied).
	Timeouts membership.Timeouts
	// OnEvent receives the delivery stream (messages and configuration
	// changes) on the protocol goroutine. It must not block for long and
	// must not call back into the Node except Submit-from-another-
	// goroutine.
	OnEvent func(evs.Event)
	// Observer receives protocol metrics and events. If set and its
	// Clock is nil, the node installs time.Now so hold times and delivery
	// latencies are measured. Nil disables observation.
	Observer *obs.RingObserver
	// Packing, when non-nil, enables adaptive small-message packing:
	// submissions are bundled up to the configured byte limit and the
	// bundle is held open only while a send backlog already hides the
	// wait (and never past MaxDelay, checked at the next protocol event).
	// At low rate every message flushes immediately. All ring members
	// must agree on whether packing is enabled — with it on, every data
	// payload travels in the bundle wire format and receivers unpack on
	// delivery.
	Packing *pack.AdaptiveConfig
}

// Accelerated returns a Config for the Accelerated Ring protocol.
func Accelerated(self evs.ProcID, tr transport.Transport, personal, global, accelerated int) Config {
	return Config{
		Self:      self,
		Transport: tr,
		Windows: flowcontrol.Windows{
			Personal: personal, Global: global, Accelerated: accelerated,
		},
		Priority:        core.PriorityAggressive,
		DelayedRequests: true,
	}
}

// Original returns a Config for the original Ring protocol.
func Original(self evs.ProcID, tr transport.Transport, personal, global int) Config {
	return Config{
		Self:      self,
		Transport: tr,
		Windows:   flowcontrol.Windows{Personal: personal, Global: global},
		Priority:  core.PriorityConservative,
	}
}

// ForRing derives the configuration of one ring instance of a multi-ring
// node from a base template: protocol parameters (Self, windows, priority,
// timeouts) are inherited. When the base carries an observer, the
// instance gets its own: same registry and clock, but a "shard<ring>"
// label so every metric series and round trace stays separable per ring.
// internal/shard instantiates this N times and fills in each ring's
// transport and event sink; a single ring uses the base as it is.
func (c Config) ForRing(ring int) Config {
	rc := c
	if base := c.Observer; base != nil {
		rc.Observer = &obs.RingObserver{
			Reg:   base.Reg,
			Clock: base.Clock,
			Label: fmt.Sprintf("shard%d", ring),
			// Message tracing is per-ring (sequence numbers, the span
			// key, are) at the base's sampling rate; the flight recorder
			// is shared — events carry the shard label.
			Msg:    base.Msg.Fresh(),
			Flight: base.Flight,
		}
	}
	return rc
}

// ErrStopped is returned by Submit after Stop.
var ErrStopped = errors.New("ringnode: node stopped")

type submitReq struct {
	payload []byte
	service evs.Service
	reply   chan error
}

// Status is a snapshot of the node's protocol state.
type Status struct {
	State membership.State
	Ring  evs.Configuration
	// Engine holds the ordering engine's counters for the current ring
	// (zero before the first ring forms).
	Engine core.Counters
	// Membership holds the membership algorithm's counters.
	Membership membership.Counters
	// QueueLen is the number of submissions waiting for a token; callers
	// can use it for backpressure.
	QueueLen int
}

// Node runs the protocol for one participant.
type Node struct {
	cfg      Config
	machine  *membership.Machine
	bundle   *pack.Adaptive // nil when packing is off
	submitCh chan submitReq
	stopCh   chan struct{}
	done     chan struct{}
	status   atomic.Value // Status
}

// Start creates the node and launches its protocol goroutine. The node
// begins in the gather state and forms (or joins) a ring on its own.
func Start(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, errors.New("ringnode: nil transport")
	}
	n := &Node{
		cfg:      cfg,
		submitCh: make(chan submitReq),
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	if cfg.Packing != nil {
		if err := cfg.Packing.Validate(); err != nil {
			return nil, err
		}
		n.bundle = pack.NewAdaptive(*cfg.Packing)
	}
	if cfg.Observer != nil && cfg.Observer.Clock == nil {
		cfg.Observer.Clock = time.Now
	}
	m, err := membership.New(membership.Config{
		Self:            cfg.Self,
		Windows:         cfg.Windows,
		Priority:        cfg.Priority,
		DelayedRequests: cfg.DelayedRequests,
		Timeouts:        cfg.Timeouts,
		Observer:        cfg.Observer,
	}, machineOut{n}, time.Now())
	if err != nil {
		return nil, err
	}
	n.machine = m
	n.publishStatus()
	go n.run()
	return n, nil
}

// machineOut adapts the membership machine's effects to the transport and
// the application callback.
type machineOut struct{ n *Node }

func (o machineOut) Multicast(frame []byte) {
	// Transport errors are UDP-like losses; the protocol recovers.
	_ = o.n.cfg.Transport.Multicast(frame)
}

func (o machineOut) Unicast(to evs.ProcID, frame []byte) {
	_ = o.n.cfg.Transport.Unicast(to, frame)
}

func (o machineOut) Deliver(ev evs.Event) {
	n := o.n
	if n.cfg.OnEvent == nil {
		return
	}
	if n.bundle != nil {
		if m, ok := ev.(evs.Message); ok && pack.IsBundle(m.Payload) {
			// Fan the bundle out as one event per packed message, in
			// packing order. Sub-payloads alias the delivered buffer,
			// which is handed off and never recycled, so aliasing is
			// safe for as long as the application keeps any of them.
			if err := pack.Each(m.Payload, func(msg []byte) {
				sub := m
				sub.Payload = msg
				n.cfg.OnEvent(sub)
			}); err == nil {
				return
			}
			// A corrupt bundle means a peer without packing shares the
			// ring (a misconfiguration); deliver the raw payload rather
			// than lose it.
		}
	}
	n.cfg.OnEvent(ev)
}

func (n *Node) publishStatus() {
	st := Status{
		State:      n.machine.State(),
		Ring:       n.machine.Ring(),
		Membership: n.machine.Counters(),
	}
	if eng := n.machine.Engine(); eng != nil {
		st.Engine = eng.Counters()
		st.QueueLen = eng.QueueLen()
	}
	n.status.Store(st)
}

// Status returns a snapshot of the node's state. Safe for any goroutine.
func (n *Node) Status() Status { return n.status.Load().(Status) }

// Observer returns the observer the node was started with (nil when
// observation is disabled). Sharded drivers use it to reach each ring's
// message tracer and metric label.
func (n *Node) Observer() *obs.RingObserver { return n.cfg.Observer }

// WaitState blocks until the node reaches the given state (with any ring)
// or the timeout elapses. It returns whether the state was reached.
func (n *Node) WaitState(st membership.State, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n.Status().State == st {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return n.Status().State == st
}

// Submit multicasts a payload with the given delivery service, in total
// order. Safe for any goroutine. The payload must not be mutated after
// the call. It fails with membership.ErrNotOperational before the first
// ring forms and with ErrStopped after Stop.
func (n *Node) Submit(payload []byte, service evs.Service) error {
	req := submitReq{payload: payload, service: service, reply: make(chan error, 1)}
	select {
	case n.submitCh <- req:
	case <-n.done:
		return ErrStopped
	}
	select {
	case err := <-req.reply:
		return err
	case <-n.done:
		return ErrStopped
	}
}

// Stop terminates the protocol goroutine and closes the transport.
func (n *Node) Stop() {
	select {
	case <-n.stopCh:
		return // already stopping
	default:
	}
	close(n.stopCh)
	<-n.done
}

// tickInterval is the timer resolution, derived from the timeouts.
func (n *Node) tickInterval() time.Duration {
	t := n.machineTimeouts()
	d := t.JoinInterval
	if t.TokenRetransmit < d {
		d = t.TokenRetransmit
	}
	d /= 4
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// handleSubmit routes one submission — through the bundler when packing
// is enabled, straight to the machine otherwise.
func (n *Node) handleSubmit(req submitReq) error {
	if n.bundle == nil {
		return n.machine.Submit(req.payload, req.service)
	}
	if !n.machine.CanSubmit() {
		return membership.ErrNotOperational
	}
	if !req.service.Valid() {
		return fmt.Errorf("ringnode: invalid service %d", req.service)
	}
	if n.bundle.Oversize(len(req.payload)) {
		// Too big to ever share a frame: solo-framed, so every payload on
		// a packed ring speaks the bundle format. The fresh allocation is
		// required — the engine retains submitted payloads zero-copy.
		solo := pack.AppendSolo(make([]byte, 0, len(req.payload)+pack.SoloOverhead), req.payload)
		return n.machine.Submit(solo, req.service)
	}
	now := time.Now()
	if !n.bundle.Add(req.payload, uint8(req.service), now) {
		// Bundle full or service-class change: close it out first. An
		// empty bundle accepts any non-oversize payload, so the retry
		// cannot fail.
		n.flushPack()
		n.bundle.Add(req.payload, uint8(req.service), now)
	}
	return nil
}

// flushPack submits the open bundle to the machine. CanSubmit was
// checked when the bundle opened and can never revert, and the bundle is
// bounded well under the engine's payload cap, so the submit cannot
// fail.
func (n *Node) flushPack() {
	if n.bundle == nil || n.bundle.Empty() {
		return
	}
	svc := evs.Service(n.bundle.Service())
	held := n.bundle.Since()
	if b := n.bundle.Flush(); b != nil {
		_ = n.machine.SubmitHeld(b, svc, held)
	}
}

// maybeFlushPack flushes the open bundle unless holding it is free: with
// a backlog already waiting for the token, later submissions can join
// the bundle without adding latency. An idle queue means the bundle
// would be the next thing sent, so it goes immediately — packing engages
// under load and stays out of the way at low rate. MaxDelay bounds the
// hold regardless of backlog.
func (n *Node) maybeFlushPack(now time.Time) {
	if n.bundle == nil || n.bundle.Empty() {
		return
	}
	eng := n.machine.Engine()
	if eng == nil || eng.QueueLen() == 0 || n.bundle.Expired(now) {
		n.flushPack()
	}
}

func (n *Node) machineTimeouts() membership.Timeouts {
	var zero membership.Timeouts
	if n.cfg.Timeouts == zero {
		return membership.DefaultTimeouts()
	}
	return n.cfg.Timeouts
}

// run is the protocol loop. Frame classes are prioritized per §III-D/E:
// the preferred class's channel is polled first; the other is read only
// when the preferred one is empty.
func (n *Node) run() {
	defer close(n.done)
	defer n.cfg.Transport.Close()

	ticker := time.NewTicker(n.tickInterval())
	defer ticker.Stop()

	dataCh := n.cfg.Transport.Data()
	tokenCh := n.cfg.Transport.Token()

	// A batching transport stages sends; flush at the end of every
	// machine step that can transmit (frame handling, ticks) so the
	// staged burst hits the wire in one syscall before the loop waits.
	flusher, _ := n.cfg.Transport.(transport.Flusher)
	// Once a staged burst (if any) is on the wire, stamp the batch flush
	// on every sampled message sent since the last flush (none when
	// tracing is off) so spans separate syscall batching delay from
	// network time.
	stampFlush := func(seq uint64) { n.cfg.Observer.Stamp(obs.StageBatchFlush, seq, 0) }
	wireFlush := func() {
		if flusher != nil {
			_ = flusher.Flush()
		}
		n.machine.DrainSampledSent(stampFlush)
	}

	// Received frames are rented from bufpool by the transport and owned
	// by this goroutine. Token-class frames are never retained by the
	// machine, so they recycle immediately; data frames recycle only when
	// the engine did not keep their zero-copy payload alive.
	handleData := func(f []byte, ok bool) bool {
		if !ok {
			dataCh = nil
			return false
		}
		if !n.machine.HandleDataFrame(f, time.Now()) {
			bufpool.Put(f)
		}
		wireFlush()
		return true
	}
	handleToken := func(f []byte, ok bool) bool {
		if !ok {
			tokenCh = nil
			return false
		}
		// The token triggers this round's sends: anything staged in the
		// bundler must reach the engine's send queue first or it misses
		// the round.
		n.flushPack()
		n.machine.HandleTokenFrame(f, time.Now())
		bufpool.Put(f)
		wireFlush()
		return true
	}

	for {
		// A bundle that outlived its latency bound goes out on the next
		// pass regardless of backlog; this runs on every iteration, so
		// the bound is enforced at frame/tick granularity.
		if n.bundle != nil && !n.bundle.Empty() && n.bundle.Expired(time.Now()) {
			n.flushPack()
		}

		// Service control events without blocking: a busy ring (e.g. a
		// singleton whose token loops back instantly) may never reach the
		// blocking select below, and must still honor Stop, submissions,
		// and timers.
		select {
		case <-n.stopCh:
			return
		case req := <-n.submitCh:
			req.reply <- n.handleSubmit(req)
			n.maybeFlushPack(time.Now())
		case <-ticker.C:
			n.machine.Tick(time.Now())
			wireFlush()
		default:
		}

		// Priority pass: drain the preferred class without blocking.
		if n.machine.DataPriority() {
			select {
			case f, ok := <-dataCh:
				handleData(f, ok)
				n.publishStatus()
				continue
			default:
			}
			select {
			case f, ok := <-tokenCh:
				handleToken(f, ok)
				n.publishStatus()
				continue
			default:
			}
		} else {
			select {
			case f, ok := <-tokenCh:
				handleToken(f, ok)
				n.publishStatus()
				continue
			default:
			}
			select {
			case f, ok := <-dataCh:
				handleData(f, ok)
				n.publishStatus()
				continue
			default:
			}
		}

		// Nothing pending in the preferred order: block on everything.
		select {
		case f, ok := <-dataCh:
			handleData(f, ok)
		case f, ok := <-tokenCh:
			handleToken(f, ok)
		case req := <-n.submitCh:
			req.reply <- n.handleSubmit(req)
			n.maybeFlushPack(time.Now())
		case <-ticker.C:
			n.machine.Tick(time.Now())
			wireFlush()
		case <-n.stopCh:
			return
		}
		n.publishStatus()
	}
}
