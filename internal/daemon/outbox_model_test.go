package daemon

// Seeded model test for the session send window: random interleavings of
// everything that touches an outbox — enqueues, writer peeks and their
// (possibly late, possibly superseded) completions, failed writes, client
// reads, acks, daemon-side detaches, client reconnects, shutdown — checked
// against a reference model small enough to be obviously right. A failure
// prints the seed; FAULTS_SEED=<seed> replays it.

import (
	"fmt"
	"math/rand"
	"net"
	"testing"

	"accelring/internal/faults"
	"accelring/internal/session"
)

// windowModel is the reference: how many deliveries were accepted, the
// furthest one the client is known to have been sent (by a completion on
// the then-live connection, or by its own word at a resume), and the tier
// flags those two imply. Everything else the outbox tracks is mechanism.
type windowModel struct {
	next, written                   uint64
	spilling, throttled, overflowed bool
	live                            net.Conn
	spillAt, throttleAt, spillLimit int
	retainLimit                     uint64
}

func (m *windowModel) backlog() int { return int(m.next - m.written) }

// tiers is the ladder: where the backlog stands against the watermarks,
// reported as moves from where the session stood before.
func (m *windowModel) tiers() (want tierChange) {
	want.queued = m.backlog()
	want.spillStart = !m.spilling && want.queued > m.spillAt
	want.spillEnd = m.spilling && want.queued <= m.spillAt
	want.throttleOn = !m.throttled && want.queued >= m.throttleAt
	want.throttleOff = m.throttled && want.queued <= m.throttleAt/2
	m.spilling = (m.spilling || want.spillStart) && !want.spillEnd
	m.throttled = (m.throttled || want.throttleOn) && !want.throttleOff
	return want
}

func (m *windowModel) enqueue() tierChange {
	if m.overflowed {
		return tierChange{}
	}
	if m.backlog() >= m.spillLimit {
		m.overflowed = true
		return tierChange{overflow: true, queued: m.backlog()}
	}
	m.next++
	return m.tiers()
}

// completed: a completion counts only on the live connection, and only
// past what was already written.
func (m *windowModel) completed(conn net.Conn, upTo uint64) tierChange {
	if conn != m.live {
		return tierChange{queued: m.backlog()}
	}
	m.written = max(m.written, upTo)
	return m.tiers()
}

// resumable: a client is refused exactly when it is more than RetainLimit
// frames behind what it has been sent.
func (m *windowModel) resumable(lastSeq uint64) bool {
	return !m.overflowed && m.written-min(lastSeq, m.written) <= m.retainLimit
}

// wireConn is one connection as the two ends see it: the daemon appends
// the frames it wrote, the client consumes a prefix and abandons the rest
// when it reconnects.
type wireConn struct {
	net.Conn
	resumedFrom uint64     // lastSeq the client presented on this conn
	wroteSeq    uint64     // last delivery written on it (resumedFrom at first)
	stream      []seqFrame // frames written, in order
	read        int        // how many the client has consumed
}

// modelClient is the de-duplicating receiver of internal/client: it drops
// Seq <= lastSeq and must never be shown a gap.
type modelClient struct {
	cur     *wireConn
	lastSeq uint64
}

func TestOutboxWindowModel(t *testing.T) {
	defaults := make([]int64, 48)
	for i := range defaults {
		defaults[i] = int64(i + 1)
	}
	ends := map[string]int{}
	for _, seed := range faults.Seeds(defaults...) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ends[runWindowModel(t, faults.ReplaySeed(t, seed))]++
		})
	}
	t.Logf("runs ended: %v", ends)
}

// runWindowModel drives one seed and reports how the session ended.
func runWindowModel(t *testing.T, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	before := session.SharedLive()
	m := &windowModel{spillAt: 2 + rng.Intn(7), retainLimit: uint64(2 + rng.Intn(30))}
	m.spillLimit = m.spillAt + 6 + rng.Intn(30)
	m.throttleAt = 1 + rng.Intn(m.spillLimit)
	o := newOutbox(m.spillAt, m.throttleAt, m.spillLimit, int(m.retainLimit))
	cl := &modelClient{}

	// inflight is the one batch the session's writer has put on a wire
	// and not completed yet (it holds the batch's shared references that
	// long); it survives detaches and reconnects, which is how a
	// completion comes to land on a superseded connection.
	var inflight *wireConn
	var inflightFrames []seqFrame

	checkPush := func(got, want tierChange) {
		t.Helper()
		if got != want {
			t.Fatalf("enqueue = %+v, model says %+v", got, want)
		}
	}
	// peek is the writer's nextBatch of up to batchOf(writerBatch) frames;
	// the first wroteOf(len) of them reach the wire.
	peek := func(batchOf, wroteOf func(n int) int) (*wireConn, []seqFrame) {
		t.Helper()
		conn, frames, ok := o.nextBatch(nil, batchOf(writerBatch))
		if !ok {
			t.Fatal("nextBatch on an open outbox reported closed")
		}
		wc := conn.(*wireConn)
		if wc != m.live {
			t.Fatalf("nextBatch paired frames with a connection that is not the live one")
		}
		if _, isWelcome := frames[0].ctl.(session.Welcome); len(wc.stream) == 0 && !isWelcome {
			t.Fatalf("first frame on a fresh connection is %+v, want the Welcome", frames[0])
		}
		for _, sf := range frames[:wroteOf(len(frames))] {
			if sf.seq != 0 {
				// Each connection carries one gap-free run that starts right
				// after the client's resume point: nothing at or below
				// lastSeq is re-sent, nothing is skipped.
				if sf.seq != wc.wroteSeq+1 {
					t.Fatalf("wrote seq %d after %d on a connection resumed from %d", sf.seq, wc.wroteSeq, wc.resumedFrom)
				}
				if sf.sh == nil || sf.ctl != nil {
					t.Fatalf("sequenced frame %d is not an encoded shared body: %+v", sf.seq, sf)
				}
				wc.wroteSeq = sf.seq
			}
			wc.stream = append(wc.stream, sf)
		}
		return wc, frames
	}
	complete := func() {
		t.Helper()
		var upTo uint64
		for _, sf := range inflightFrames {
			upTo = max(upTo, sf.seq)
		}
		releaseBatch(inflightFrames)
		if got, want := o.wroteBatch(inflight, inflightFrames), m.completed(inflight, upTo); got != want {
			t.Fatalf("wroteBatch (live=%v) = %+v, model says %+v", inflight == m.live, got, want)
		}
		inflight, inflightFrames = nil, nil
	}
	clientRead := func(n int) {
		t.Helper()
		for ; n > 0 && cl.cur != nil && cl.cur.read < len(cl.cur.stream); n-- {
			sf := cl.cur.stream[cl.cur.read]
			cl.cur.read++
			switch {
			case sf.seq == 0 || sf.seq <= cl.lastSeq: // control, or a duplicate to drop
			case sf.seq == cl.lastSeq+1:
				cl.lastSeq++
			default:
				t.Fatalf("client at seq %d was shown seq %d: a gap", cl.lastSeq, sf.seq)
			}
		}
	}
	// reconnect is the client giving up on its connection and resuming;
	// false means the daemon refused and the session is over.
	reconnect := func() bool {
		t.Helper()
		want := m.resumable(cl.lastSeq)
		if got := o.canResume(cl.lastSeq) == nil; got != want {
			t.Fatalf("canResume(%d) = %v with %d written, retain limit %d; model says %v",
				cl.lastSeq, got, m.written, m.retainLimit, want)
		}
		if !want {
			return false
		}
		wc := &wireConn{Conn: testConn(t), resumedFrom: cl.lastSeq, wroteSeq: cl.lastSeq}
		if !o.attach(wc, cl.lastSeq, session.Welcome{Resumed: cl.cur != nil}) {
			t.Fatalf("attach(%d) refused after canResume accepted", cl.lastSeq)
		}
		m.live, cl.cur = wc, wc
		m.written = max(m.written, cl.lastSeq)
		return true
	}
	all := func(n int) int { return n }

	// The offered load differs per seed, so the sweep covers sessions that
	// stay shallow, ones that ride the tiers up and down, and ones that
	// overflow or fall out of the resume window.
	load := 6 + rng.Intn(40)
	end := "drained"
	reconnect()
steps:
	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(70 + load); {
		case op >= 70:
			checkPush(pushMsg(t, o, step), m.enqueue())
			if m.overflowed {
				end = "overflowed" // production drops the session here
				break steps
			}
		case op < 40: // the session writer: complete what it flushed, else flush more
			switch {
			case inflight != nil:
				complete()
			case o.flushed():
			case rng.Intn(12) == 0: // the write fails part-way; the daemon detaches
				wc, frames := peek(all, func(n int) int { return rng.Intn(n + 1) })
				releaseBatch(frames)
				o.detach(wc)
				m.live = nil
			default:
				inflight, inflightFrames = peek(func(n int) int { return 1 + rng.Intn(n) }, all)
			}
		case op < 54:
			clientRead(1 + rng.Intn(12))
		case op < 59: // an Ack, current or stale
			o.ack(cl.lastSeq - min(cl.lastSeq, uint64(rng.Intn(3))))
		case op < 62: // the daemon's reader sees the connection die
			if m.live != nil && o.detach(m.live) {
				m.live = nil
			}
		case op < 64 || m.live == nil: // the client gives up (sooner on a dead connection)
			if !reconnect() {
				end = "resume refused"
				break steps
			}
		}
	}

	if inflight != nil {
		complete()
	}
	// Quiesce: one last resume if needed, then write, complete and read
	// until nothing is left. The client must hold 1..next exactly.
	if end == "drained" && m.live == nil && !reconnect() {
		end = "resume refused"
	}
	if end == "drained" {
		for !o.flushed() {
			inflight, inflightFrames = peek(all, all)
			complete()
		}
		clientRead(len(cl.cur.stream))
		if cl.lastSeq != m.next {
			t.Fatalf("client holds 1..%d, %d deliveries were accepted", cl.lastSeq, m.next)
		}
		o.ack(cl.lastSeq)
		if live := session.SharedLive(); live != before {
			t.Fatalf("SharedLive = %d after the final ack, want %d: the window kept references", live, before)
		}
	}
	if _, spilling, throttled := o.shutdown(); spilling != m.spilling || throttled != m.throttled {
		t.Fatalf("shutdown tiers = spilling %v throttled %v, model says %v %v", spilling, throttled, m.spilling, m.throttled)
	}
	checkPush(pushMsg(t, o, 0), tierChange{}) // closed: a no-op that takes no reference
	if live := session.SharedLive(); live != before {
		t.Fatalf("SharedLive = %d after shutdown, want %d", live, before)
	}
	return end
}
