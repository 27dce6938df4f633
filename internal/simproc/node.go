package simproc

import (
	"encoding/binary"
	"time"

	"accelring/internal/core"
	"accelring/internal/evs"
	"accelring/internal/membership"
	"accelring/internal/ringnode"
	"accelring/internal/simnet"
	"accelring/internal/wire"
)

// TraceEvent is one entry of a node's protocol trace, used to reproduce
// the paper's Figure 1 execution schedule.
type TraceEvent struct {
	At   simnet.Time
	Node simnet.NodeID
	// Kind is one of "send-data", "send-token", "recv-data", "recv-token",
	// "deliver".
	Kind string
	// Seq is the data sequence number, or the token's seq field for token
	// events.
	Seq uint64
	// PostToken marks data sent after the token in its round.
	PostToken bool
}

// DeliverFn observes a node's delivery stream (messages and configuration
// changes). at is the instant the daemon finished delivering (before the
// client IPC hop).
type DeliverFn func(node simnet.NodeID, ev evs.Event, at simnet.Time)

type submission struct {
	payload []byte
	service evs.Service
}

type pktQueue struct {
	items []*simnet.Packet
	bytes int
	cap   int
}

func (q *pktQueue) push(p *simnet.Packet) bool {
	if q.bytes+p.Wire > q.cap {
		return false
	}
	q.items = append(q.items, p)
	q.bytes += p.Wire
	return true
}

func (q *pktQueue) pop() *simnet.Packet {
	p := q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	q.bytes -= p.Wire
	return p
}

// Node is one simulated participant: the production ringnode step on a
// single modeled core, with separate bounded token and data sockets and a
// local client queue, exactly like the paper's daemons. The core is
// charged per the cluster's Profile for every step input, send and
// delivery.
type Node struct {
	id   simnet.NodeID
	c    *Cluster
	step *ringnode.Step
	// dead marks a killed process: its pending step and tick events find
	// it dead and do nothing.
	dead bool

	tokenQ  pktQueue
	dataQ   pktQueue
	clientQ []submission
	tickDue bool

	busyUntil   simnet.Time
	wakePending bool
	// parkAt is the step's park deadline a wake-up is scheduled for.
	parkAt time.Time
	// cursor is the core's time within the current step input: sends
	// leave and deliveries complete at it.
	cursor simnet.Time

	trace     func(TraceEvent)
	submitted uint64
}

// Machine exposes the step's membership machine (read-only use).
func (n *Node) Machine() *membership.Machine { return n.step.Machine() }

// Engine exposes the current ring's protocol engine (read-only use; nil
// before the first ring forms).
func (n *Node) Engine() *core.Engine { return n.step.Machine().Engine() }

// Submitted counts the client messages the step accepted.
func (n *Node) Submitted() uint64 { return n.submitted }

// SetTrace installs a trace observer (nil clears).
func (n *Node) SetTrace(fn func(TraceEvent)) { n.trace = fn }

// Submit injects a message from this node's local sending client. The
// payload should carry a timestamp (see StampPayload) if latency is being
// measured. The client IPC hop is charged before the daemon sees it, and
// the message waits in the client queue until the step can accept it.
// The step takes it over (Step.SubmitOwned), and Recycle poisons it.
func (n *Node) Submit(payload []byte, service evs.Service) {
	n.c.Sim.After(n.c.opts.Profile.ClientHop, func() {
		n.clientQ = append(n.clientQ, submission{payload: payload, service: service})
		n.wake()
	})
}

// ingress accepts a packet from the network into the matching socket.
func (n *Node) ingress(p *simnet.Packet) {
	q := &n.dataQ
	if p.Kind == wire.FrameToken {
		q = &n.tokenQ
	}
	if !q.push(p) {
		n.c.SockDrops++
		return
	}
	n.wake()
}

// wake schedules the CPU loop when the core is (or becomes) free.
func (n *Node) wake() {
	if n.wakePending {
		return
	}
	n.wakePending = true
	n.c.Sim.At(max(n.busyUntil, n.c.Sim.Now()), n.run)
}

// canIngest reports whether a queued client message can enter the step:
// a ring has formed and the engine queue is below the session high-water
// mark (session-level flow control).
func (n *Node) canIngest() bool {
	if len(n.clientQ) == 0 || !n.step.Machine().CanSubmit() {
		return false
	}
	return n.Engine().QueueLen() < submitHighWater*n.c.opts.Ring.Windows.Personal
}

// hasWork reports whether the CPU has anything runnable.
func (n *Node) hasWork() bool {
	return n.tickDue || len(n.tokenQ.items) > 0 || len(n.dataQ.items) > 0 || n.canIngest()
}

// run feeds one input to the step on the node's core, then reschedules
// itself if more work is pending. A due tick goes first, as the real-time
// host services its timer before the frame pass. Frames follow the
// paper's priority scheme: the class (token or data) with priority is
// drained first; the other is read only when the preferred socket is
// empty. Client messages are ingested last.
func (n *Node) run() {
	n.wakePending = false
	if n.dead {
		return
	}
	prof := &n.c.opts.Profile
	n.cursor = n.c.Sim.Now()
	now := Wall(n.cursor)
	switch {
	case n.tickDue:
		n.tickDue = false
		n.step.Tick(now)
	case len(n.dataQ.items) > 0 && (n.step.DataPriority() || len(n.tokenQ.items) == 0):
		// A multicast packet is shared by every receiver: the step gets
		// this receiver's own copy, poisoned once the step is done with
		// it, at once when it was not retained.
		p := n.dataQ.pop()
		n.cursor += prof.recvDataCost(p.Wire)
		n.traceFrame(p.Frame, "recv-data", "")
		if f := append([]byte(nil), p.Frame...); !n.step.Data(f, now) {
			poison(f)
		}
	case len(n.tokenQ.items) > 0:
		p := n.tokenQ.pop()
		n.cursor += prof.RecvTokenFixed
		n.traceFrame(p.Frame, "", "recv-token")
		n.step.Token(p.Frame, now)
	case n.canIngest():
		sub := n.clientQ[0]
		n.clientQ[0] = submission{}
		n.clientQ = n.clientQ[1:]
		n.cursor += prof.submitCost(len(sub.payload))
		if n.step.SubmitOwned(sub.payload, sub.service, now) == nil {
			n.submitted++
		}
	default:
		return
	}
	n.busyUntil = n.cursor
	n.armPark()
	if n.hasWork() {
		n.wake()
	}
}

// armPark schedules a tick at the step's park deadline, as the real-time
// host arms its park timer; a park released earlier leaves it a no-op.
func (n *Node) armPark() {
	d := n.step.ParkDeadline()
	if d.IsZero() || d.Equal(n.parkAt) {
		return
	}
	n.parkAt = d
	n.c.Sim.At(simnet.Time(d.Sub(epoch)), func() {
		if !n.dead && n.step.ParkDeadline().Equal(d) {
			n.tickDue = true
			n.wake()
		}
	})
}

// sender is the step's Sender: it charges each send syscall to the core,
// then hands a copy of the frame to the NIC at the syscall's completion.
// Everything multicast rides the data channel and everything unicast the
// token channel, which is what the receiving socket and the fault
// injector's class rules go by.
type sender struct{ n *Node }

func (s sender) Multicast(frame []byte) error {
	s.n.send(wire.FrameData, frame, -1)
	return nil
}

func (s sender) Unicast(to evs.ProcID, frame []byte) error {
	s.n.send(wire.FrameToken, frame, simnet.NodeID(to-1))
	return nil
}

// Recycle takes back a data frame the step retained, or a payload, once
// the step and its holder are done with it. The simulated host overwrites
// it, so a payload read after its release — against
// ringnode.Config.OnEvent's contract — reads the poison pattern,
// deterministically, on every seed.
func (s sender) Recycle(frame []byte) { poison(frame) }

// poisonByte fills every frame the simulated host takes back.
const poisonByte = 0xDB

func poison(frame []byte) {
	for i := range frame {
		frame[i] = poisonByte
	}
}

func (n *Node) send(kind wire.FrameType, frame []byte, to simnet.NodeID) {
	prof := &n.c.opts.Profile
	p := &simnet.Packet{From: n.id, Kind: kind, Wire: prof.frameWire(frame), Frame: append([]byte(nil), frame...)}
	n.cursor += prof.sendCost(p.Wire)
	n.traceFrame(p.Frame, "send-data", "send-token")
	net := n.c.Net
	n.c.Sim.At(n.cursor, func() {
		if to < 0 {
			net.Multicast(p.From, p)
		} else {
			net.Unicast(p.From, to, p)
		}
	})
}

// deliver is the step's OnEvent: charge the client delivery cost of a
// message and report the event to the cluster's observer.
func (n *Node) deliver(ev evs.Event) {
	if m, ok := ev.(evs.Message); ok {
		n.cursor += n.c.opts.Profile.deliverCost(len(m.Payload))
		n.traceEvent("deliver", m.Seq, false)
	}
	if n.c.onDeliver != nil {
		n.c.onDeliver(n.id, ev, n.cursor)
	}
}

// traceFrame traces a data or token frame (membership frames are not
// traced) under the given kinds.
func (n *Node) traceFrame(frame []byte, dataKind, tokenKind string) {
	if n.trace == nil {
		return
	}
	if d, err := wire.DecodeData(frame); err == nil {
		n.traceEvent(dataKind, d.Seq, d.PostToken())
	} else if t, err := wire.DecodeToken(frame); err == nil {
		n.traceEvent(tokenKind, t.Seq, false)
	}
}

func (n *Node) traceEvent(kind string, seq uint64, post bool) {
	if n.trace == nil {
		return
	}
	n.trace(TraceEvent{At: n.cursor, Node: n.id, Kind: kind, Seq: seq, PostToken: post})
}

// StampPayload writes the injection timestamp into the payload's first
// eight bytes. Payloads shorter than eight bytes cannot carry a stamp.
func StampPayload(payload []byte, at simnet.Time) {
	if len(payload) >= 8 {
		binary.BigEndian.PutUint64(payload, uint64(at))
	}
}

// PayloadStamp extracts the injection timestamp, or -1 if the payload is
// too short.
func PayloadStamp(payload []byte) simnet.Time {
	if len(payload) < 8 {
		return -1
	}
	return simnet.Time(binary.BigEndian.Uint64(payload))
}
