// Package ringnode runs one participant of the protocol stack. Step is the
// protocol itself, passive: a membership.Machine (which owns the ordering
// engine), the packing bundler, the bundle fan-out, the leader's parked
// token and the recycling of the frames its ring is done with, fed
// frames, submissions and ticks with the host's time.
// Node is its real-time host: a single goroutine over a
// transport.Transport implementing the paper's token/data socket priority
// scheme, the membership timer, the park timer, and a FIFO submission
// queue that never blocks. internal/simproc hosts the same Step
// on the simulator.
//
// The priority scheme takes its ordering from the transport.Transport
// contract: a token never reaches Node ahead of the data that preceded it.
//
// The single protocol goroutine mirrors the paper's single-threaded
// daemons: the ordering service deliberately consumes at most one core.
package ringnode

import (
	"cmp"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/transport"
)

// ErrStopped is returned by Submit after Stop.
var ErrStopped = errors.New("ringnode: node stopped")

type submission struct {
	payload []byte
	service evs.Service
}

// Node runs the protocol for one participant.
type Node struct {
	cfg    Config
	step   *Step
	stopCh chan struct{}
	done   chan struct{}

	// status is the step's state as of the last handled input, published
	// under smu by copy (boxing it into an atomic.Value allocated a Status
	// per frame). installed is set once a ring is installed, which never
	// reverts, so Submit's operational check takes no lock.
	smu       sync.Mutex
	status    Status
	installed atomic.Bool

	// Submit appends to queue under qmu and nudges wake; drain swaps in
	// spare, the batch it drained last, so the steady state allocates
	// nothing.
	qmu          sync.Mutex
	queue, spare []submission
	wake         chan struct{}
}

// Start creates the node and launches its protocol goroutine. The node
// begins in the gather state and forms (or joins) a ring on its own.
func Start(cfg Config) (*Node, error) { return StartHeld(cfg, nil) }

// StartHeld is Start for a delivery consumer that keeps payloads past the
// callback: h, when not nil, is the step's Holder from the first input on.
func StartHeld(cfg Config, h Holder) (*Node, error) {
	if cfg.Transport == nil {
		return nil, errors.New("ringnode: nil transport")
	}
	if cfg.Observer != nil && cfg.Observer.Clock == nil {
		cfg.Observer.Clock = time.Now
	}
	step, err := NewStep(cfg, pooled{cfg.Transport}, time.Now())
	if err != nil {
		return nil, err
	}
	if h != nil {
		step.Hold(h)
	}
	n := &Node{cfg: cfg, step: step, stopCh: make(chan struct{}), done: make(chan struct{}), wake: make(chan struct{}, 1)}
	n.publishStatus()
	go n.run()
	return n, nil
}

func (n *Node) publishStatus() {
	st := n.step.Status()
	n.smu.Lock()
	n.status = st
	n.smu.Unlock()
	if !st.Ring.ID.IsZero() && !n.installed.Load() {
		n.installed.Store(true)
	}
}

// Status returns a snapshot of the node's state, its QueueLen counting the
// submissions not yet drained too. Safe for any goroutine.
func (n *Node) Status() Status {
	n.smu.Lock()
	st := n.status
	n.smu.Unlock()
	n.qmu.Lock()
	defer n.qmu.Unlock()
	st.QueueLen += len(n.queue)
	return st
}

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
// order. It queues and never blocks, so any goroutine may call it, the
// delivery callbacks included. The payload must not be mutated after the
// call. It fails with ErrStopped after Stop, with
// membership.ErrNotOperational before the first ring forms, and as
// Step.Check does.
func (n *Node) Submit(payload []byte, service evs.Service) error {
	select {
	case <-n.stopCh:
		return ErrStopped
	default:
	}
	if !n.installed.Load() {
		return membership.ErrNotOperational
	}
	if err := n.step.Check(len(payload), service); err != nil {
		return err
	}
	n.qmu.Lock()
	n.queue = append(n.queue, submission{payload, service})
	n.qmu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
	return nil
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

// drain feeds the queued submissions to the step in order; Submit already
// refused what the step would.
func (n *Node) drain() {
	n.qmu.Lock()
	batch := n.queue
	n.queue = n.spare
	n.qmu.Unlock()
	now := time.Now()
	for _, s := range batch {
		_ = n.step.Submit(s.payload, s.service, now)
	}
	clear(batch)
	n.spare = batch[:0]
}

// pooled is the node's transport as its step's Sender: the frames the
// step recycles go back to bufpool, where the transport rented them.
type pooled struct{ transport.Transport }

func (pooled) Recycle(frame []byte) { bufpool.Put(frame) }

// handleData feeds one received data frame to the step. Received frames
// are rented from bufpool by the transport and owned by the protocol
// goroutine; a frame the step retained comes back through pooled.Recycle
// once its message is stable and nothing reads its payload, any other
// recycles at once.
func (n *Node) handleData(f []byte) {
	if !n.step.Data(f, time.Now()) {
		bufpool.Put(f)
	}
}

// handleToken feeds one token-class frame to the step, which never
// retains one, so it recycles at once.
func (n *Node) handleToken(f []byte) {
	n.step.Token(f, time.Now())
	bufpool.Put(f)
}

// tickInterval is the timer resolution, derived from the timeouts.
func (n *Node) tickInterval() time.Duration {
	t := cmp.Or(n.cfg.Timeouts, membership.DefaultTimeouts())
	d := min(t.JoinInterval, t.TokenRetransmit) / 4
	return max(time.Millisecond, min(d, 50*time.Millisecond))
}

// run is the protocol loop. Frame classes are prioritized per §III-D/E:
// the preferred class's channel is polled first; the other is read only
// when the preferred one is empty. Every input is followed by settle:
// the status is published and the park timer follows the step's park
// deadline.
func (n *Node) run() {
	defer close(n.done)
	defer n.cfg.Transport.Close()

	ticker := time.NewTicker(n.tickInterval())
	defer ticker.Stop()
	park := time.NewTimer(time.Hour)
	park.Stop()
	defer park.Stop()
	var parkAt time.Time // the deadline park is armed for (zero: none)

	dataCh := n.cfg.Transport.Data()
	tokenCh := n.cfg.Transport.Token()

	settle := func() {
		n.publishStatus()
		d := n.step.ParkDeadline()
		if d.Equal(parkAt) {
			return
		}
		if !park.Stop() {
			// Fired but not received: drop the stale expiry.
			select {
			case <-park.C:
			default:
			}
		}
		if parkAt = d; !d.IsZero() {
			park.Reset(time.Until(d))
		}
	}
	tick := func() {
		n.step.Tick(time.Now())
		settle()
	}
	parkFired := func() {
		parkAt = time.Time{}
		tick()
	}
	handleData := func(f []byte, ok bool) {
		if !ok {
			dataCh = nil
			return
		}
		n.handleData(f)
		settle()
	}
	handleToken := func(f []byte, ok bool) {
		if !ok {
			tokenCh = nil
			return
		}
		n.handleToken(f)
		settle()
	}
	drain := func() {
		n.drain()
		settle()
	}
	// poll handles one frame of ch's class if one is waiting.
	poll := func(ch <-chan []byte, handle func([]byte, bool)) bool {
		select {
		case f, ok := <-ch:
			handle(f, ok)
			return true
		default:
			return false
		}
	}

	for {
		// Service control events without blocking: a busy ring (e.g. a
		// singleton whose token loops back instantly) may never reach the
		// blocking select below, and must still honor Stop, submissions,
		// and timers.
		select {
		case <-n.stopCh:
			return
		case <-n.wake:
			drain()
		case <-ticker.C:
			tick()
		case <-park.C:
			parkFired()
		default:
		}

		// Priority pass: drain the preferred class without blocking.
		if n.step.DataPriority() {
			if poll(dataCh, handleData) || poll(tokenCh, handleToken) {
				continue
			}
		} else if poll(tokenCh, handleToken) || poll(dataCh, handleData) {
			continue
		}

		// Nothing pending in the preferred order: block on everything.
		select {
		case f, ok := <-dataCh:
			handleData(f, ok)
		case f, ok := <-tokenCh:
			handleToken(f, ok)
		case <-n.wake:
			drain()
		case <-ticker.C:
			tick()
		case <-park.C:
			parkFired()
		case <-n.stopCh:
			return
		}
	}
}
