package daemon

import (
	"errors"
	"net"
	"slices"
	"sync"

	"accelring/internal/session"
)

// writerBatch is how many pending frames one session writer drains per
// wakeup and flushes with a single vectored write. A batch never waits
// for more frames — a shallow queue flushes immediately — so the value
// only bounds the writer's scratch; it is not a latency/throughput
// trade-off worth a knob.
const writerBatch = 8

// delivery is one sequenced frame as the send window holds it: an
// encode-once shared body (session.Shared — a Message, a View or an
// Error, encoded when it was routed). The window holds one shared
// reference per entry, taken in enqueue and dropped when the entry leaves
// the window (ack, eviction, resume fast-forward, shutdown) — never merely
// on write, because a reconnecting client may need the bytes replayed.
type delivery struct {
	sh *session.Shared

	// traceSeq/traceRing carry the ring sequence of a latency-sampled
	// delivery (zero otherwise) so the session writer can stamp the
	// writer-flush stage after the vectored write. Set only when the
	// ring's tracer sampled the message: the untraced hot path pays a
	// single uint64 compare per flushed frame. A replayed frame after
	// resume re-stamps harmlessly — the latency fold keeps the earliest
	// time.
	traceSeq  uint64
	traceRing int
}

// seqFrame is one frame of a writer batch. Seq 0 marks a control frame
// (Welcome, Throttle, Detach) that rides outside the resumable delivery
// stream and is carried boxed in ctl; any other seq is the window entry
// with that delivery sequence number.
type seqFrame struct {
	seq uint64
	ctl session.Frame
	delivery
}

// tierChange reports what one enqueue or completion did to the session's
// backpressure tier, so the daemon can export metrics without holding the
// outbox lock. The client-facing Throttle notices themselves are queued
// while the lock is held, so On/Off can never be reordered by the
// reporting goroutines.
type tierChange struct {
	// overflow: the backlog reached spillLimit; disconnecting is the last
	// resort left. The frame was NOT queued.
	overflow bool
	// spillStart/spillEnd: the backlog rose past clientBuffer (tier 1) or
	// fell back to it.
	spillStart, spillEnd bool
	// throttleOn/throttleOff: the backlog reached the throttle watermark
	// (tier 2) or fell below half of it (hysteresis).
	throttleOn, throttleOff bool
	// queued is the delivery backlog after the operation.
	queued int
}

// Resume rejections.
var (
	errSessionClosed = errors.New("session closed")
	errReplayWindow  = errors.New("replay window overrun")
)

// outbox is one session's outbound path: a small queue of unsequenced
// control frames and one send window — every sequenced delivery the
// session may still have to put on a wire, contiguous by sequence number:
//
//	  released     sent on this conn   to re-send       backlog
//	────────────┬──────────────────┬──────────────┬───────────────┐
//	          head               sent          written         nextSeq
//
// sent is how far the CURRENT connection has been written; a resume moves
// it back to head, so a re-send is the same walk as a first send. written
// is the furthest any connection got (sent catches up with it and then
// carries it along): only frames past it are backlog — the tiers
// (clientBuffer, throttleAt, spillLimit) meter what the client has never
// been sent, so a resume's re-sends can neither throttle nor overflow the
// session. head trails written by at most retainLimit.
//
// The outbox owns the session's current connection: the writer goroutine
// blocks in nextBatch while the session is detached and wakes when attach
// installs a new conn.
//
// Lock ordering: outbox.mu is a leaf — nothing is called with it held.
type outbox struct {
	mu   sync.Mutex
	cond sync.Cond

	conn net.Conn // current connection; nil while detached

	control []session.Frame // unsequenced control frames, written first

	// win is the window's ring buffer: delivery seq lives at
	// win[seq%len(win)] for seq in (head, nextSeq]. It grows by doubling
	// (up to spillLimit+retainLimit, which bounds nextSeq-head) and never
	// shrinks, so a steady session stops allocating.
	win     []delivery
	head    uint64 // highest seq no longer held: acked, evicted or resumed past
	sent    uint64 // highest seq written to the current connection
	written uint64 // highest seq written to any connection
	nextSeq uint64 // last assigned delivery sequence

	spilling   bool
	throttled  bool
	overflowed bool
	closed     bool

	spillAt     int // tier-1 watermark on the delivery backlog (clientBuffer)
	throttleAt  int // tier-2 watermark on the delivery backlog
	spillLimit  int // hard cap on the delivery backlog
	retainLimit int // cap on written-but-unacked frames kept for a resume
}

func newOutbox(spillAt, throttleAt, spillLimit, retainLimit int) *outbox {
	o := &outbox{
		win:         make([]delivery, min(spillAt, spillLimit+retainLimit)),
		spillAt:     spillAt,
		throttleAt:  throttleAt,
		spillLimit:  spillLimit,
		retainLimit: retainLimit,
	}
	o.cond.L = &o.mu
	return o
}

// backlogLocked is the delivery backlog: frames no connection has been
// sent yet (control frames and replays excluded).
func (o *outbox) backlogLocked() int { return int(o.nextSeq - o.written) }

// tiersLocked moves the session between backpressure tiers to match its
// backlog and reports the moves. Each Throttle notice is queued here,
// under the same lock as the transition it announces — transition order
// is wire order: an Off can never overtake the On before it.
func (o *outbox) tiersLocked() tierChange {
	ch := tierChange{queued: o.backlogLocked()}
	if over := ch.queued > o.spillAt; over != o.spilling {
		o.spilling = over
		ch.spillStart, ch.spillEnd = over, !over
	}
	if !o.throttled && ch.queued >= o.throttleAt {
		o.throttled, ch.throttleOn = true, true
	} else if o.throttled && ch.queued <= o.throttleAt/2 {
		o.throttled, ch.throttleOff = false, true
	}
	if ch.throttleOn || ch.throttleOff {
		o.control = append(o.control, session.Throttle{On: o.throttled, Queued: uint32(ch.queued)})
	}
	return ch
}

// at returns the window slot of delivery seq.
func (o *outbox) at(seq uint64) *delivery { return &o.win[seq%uint64(len(o.win))] }

// enqueue appends one sequenced delivery to the window, reporting tier
// transitions. The window takes its own reference on d.sh (under the
// lock, so a concurrent shutdown cannot race the take); a rejected
// enqueue (closed or overflowed) takes none.
func (o *outbox) enqueue(d delivery) tierChange {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed || o.overflowed {
		return tierChange{}
	}
	if o.backlogLocked() >= o.spillLimit {
		o.overflowed = true
		return tierChange{overflow: true, queued: o.backlogLocked()}
	}
	if held := int(o.nextSeq - o.head); held == len(o.win) {
		grown := make([]delivery, min(2*held, o.spillLimit+o.retainLimit))
		for s := o.head + 1; s <= o.nextSeq; s++ {
			grown[s%uint64(len(grown))] = *o.at(s)
		}
		o.win = grown
	}
	o.nextSeq++
	d.sh.Ref()
	*o.at(o.nextSeq) = d
	o.cond.Broadcast()
	return o.tiersLocked()
}

// pushControl enqueues an unsequenced control frame ahead of deliveries.
func (o *outbox) pushControl(f session.Frame) {
	o.mu.Lock()
	if !o.closed {
		o.control = append(o.control, f)
		o.cond.Broadcast()
	}
	o.mu.Unlock()
}

// nextBatch blocks until the session has a connection and a frame to
// write (or is closed) and peeks up to max frames in write order —
// control notices first, then the window from sent onwards (replays and
// first sends alike) — so the writer can flush them with one vectored
// write. The frames are appended to dst (reset and reused by the caller)
// and stay queued until wroteBatch completes them, so a failed write
// leaves them for the resumed connection. Each peeked delivery carries a
// shared reference of its own, which the writer drops with releaseBatch
// once the write returns: a shutdown or a resume's fast-forward may
// release the window's reference while the bytes are still being written.
func (o *outbox) nextBatch(dst []seqFrame, max int) (net.Conn, []seqFrame, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		if o.closed {
			return nil, dst, false
		}
		if o.conn != nil {
			for _, f := range o.control[:min(max, len(o.control))] {
				dst = append(dst, seqFrame{ctl: f})
			}
			for s := o.sent + 1; s <= o.nextSeq && len(dst) < max; s++ {
				d := *o.at(s)
				d.sh.Ref()
				dst = append(dst, seqFrame{seq: s, delivery: d})
			}
			if len(dst) > 0 {
				return o.conn, dst, true
			}
		}
		o.cond.Wait()
	}
}

// releaseBatch drops the references nextBatch took for the writer.
func releaseBatch(frames []seqFrame) {
	for i := range frames {
		if sh := frames[i].sh; sh != nil {
			sh.Unref()
		}
	}
}

// wroteBatch completes a nextBatch worth of frames after one successful
// vectored write: control frames leave their queue, sent advances over
// the deliveries, and tier recoveries are reported.
//
// conn must be the connection nextBatch paired with the frames. If it is
// no longer the session's connection — a detach or a resume's attach
// landed between the write and this call — the write reached a superseded
// (possibly half-dead) socket, so the whole completion is void: sent was
// already reset for the live connection, which re-peeks everything, and
// the client's duplicate suppression (Seq <= lastSeq) absorbs the
// potential double send. Without this check a kernel-buffered write racing
// an attach would complete frames the resume never saw, leaving a silent
// sequence gap.
func (o *outbox) wroteBatch(conn net.Conn, frames []seqFrame) tierChange {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.conn != conn {
		return tierChange{queued: o.backlogLocked()}
	}
	controls := 0
	for i := range frames {
		if frames[i].seq == 0 {
			controls++
		} else if frames[i].seq > o.sent {
			// Not already passed by an ack or a repeated completion.
			o.sent = frames[i].seq
		}
	}
	// Shifted down in place (not re-sliced) so the queue keeps its backing
	// array across a drain-to-empty.
	o.control = slices.Delete(o.control, 0, min(controls, len(o.control)))

	if o.sent > o.written {
		o.written = o.sent
		if o.written-o.head > uint64(o.retainLimit) {
			o.releaseLocked(o.written - uint64(o.retainLimit))
		}
	}
	return o.tiersLocked()
}

// releaseLocked advances head to upTo, dropping the shared reference of
// every entry it passes. Caller holds o.mu and keeps upTo <= nextSeq.
func (o *outbox) releaseLocked(upTo uint64) {
	for o.head < upTo {
		o.head++
		e := o.at(o.head)
		e.sh.Unref()
		*e = delivery{}
	}
}

// ack releases the window up to and including seq. Only frames the
// current connection has been sent can be acknowledged on it; anything
// past sent in a (forged or confused) Ack is ignored, so an Ack can
// never make the daemon drop an unsent delivery.
func (o *outbox) ack(seq uint64) {
	o.mu.Lock()
	o.releaseLocked(min(seq, o.sent))
	o.mu.Unlock()
}

// canResume reports whether a client that processed deliveries up to
// lastSeq can be resumed without a gap: nothing past lastSeq has left the
// window. An honest client is never behind its own acks, so only an
// eviction (more than retainLimit written and unacked) can put head past
// it.
func (o *outbox) canResume(lastSeq uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.canResumeLocked(lastSeq)
}

func (o *outbox) canResumeLocked(lastSeq uint64) error {
	if o.closed || o.overflowed {
		return errSessionClosed
	}
	if lastSeq < o.head || lastSeq > o.nextSeq {
		return errReplayWindow
	}
	return nil
}

// attach installs a new connection, treating lastSeq as an implicit ack —
// everything up to it leaves the window, written or not: the client has
// it — and moving sent back to head so the rest is (re)sent in order. An
// existing connection (a half-dead predecessor) is superseded and closed.
// hello, when non-nil, is the handshake reply (Welcome): it is spliced in
// as the FIRST control frame under the same lock that installs conn, so
// the writer can neither race a Seqd delivery ahead of it nor let an
// older queued notice (Throttle, Detach) precede it on the new connection
// — the whole handshake rides the ordinary outbox write path. Returns
// false if the session closed or the window moved past lastSeq in the
// meantime; the caller should close conn.
func (o *outbox) attach(conn net.Conn, lastSeq uint64, hello session.Frame) bool {
	o.mu.Lock()
	if o.canResumeLocked(lastSeq) != nil {
		o.mu.Unlock()
		return false
	}
	o.releaseLocked(lastSeq)
	o.sent = o.head
	// A client can be ahead of written when the completion of its last
	// batch was voided; that shrinks the backlog, and the next enqueue or
	// wroteBatch (the Welcome's, at the latest) reports any tier recovery.
	o.written = max(o.written, o.head)
	if hello != nil {
		o.control = slices.Insert(o.control, 0, hello)
	}
	old := o.conn
	o.conn = conn
	o.cond.Broadcast()
	o.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return true
}

// detach drops conn if it is still the session's current connection,
// parking the writer until the next attach. Returns false for a stale
// (already superseded) connection.
func (o *outbox) detach(conn net.Conn) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if conn == nil || o.conn != conn {
		return false
	}
	o.conn = nil
	return true
}

// flushed reports whether everything queued has been written (drain's
// completion condition; acks are not required). A detached session
// counts as flushed: with no connection its queue cannot move, and its
// frames stay in the window for resume anyway — waiting on it would burn
// the whole drain deadline.
func (o *outbox) flushed() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed || o.overflowed || o.conn == nil {
		return true
	}
	return len(o.control) == 0 && o.sent == o.nextSeq
}

// shutdown closes the outbox for good: the writer exits, enqueues become
// no-ops and every shared reference the window holds is released. Returns
// the connection to close, if any, plus the backpressure tiers the
// session occupied at close so the caller can settle the matching gauges
// (reported only on the first shutdown).
func (o *outbox) shutdown() (conn net.Conn, spilling, throttled bool) {
	o.mu.Lock()
	conn, spilling, throttled = o.conn, o.spilling, o.throttled
	o.conn, o.spilling, o.throttled = nil, false, false
	o.releaseLocked(o.nextSeq)
	o.control = nil
	o.closed = true
	o.cond.Broadcast()
	o.mu.Unlock()
	return conn, spilling, throttled
}
