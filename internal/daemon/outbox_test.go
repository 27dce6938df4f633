package daemon

// Unit tests for the outbox's trickier corners: write completions racing
// a resume's attach, one-shot tier reporting at shutdown, drain's view of
// detached sessions, and the ordering of throttle notices.

import (
	"bytes"
	"net"
	"testing"

	"accelring/internal/session"
)

func testConn(t testing.TB) net.Conn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a
}

// peekBatch is nextBatch for a writer whose write takes no time: the
// batch's own shared references are dropped at once.
func peekBatch(o *outbox, dst []seqFrame, max int) (net.Conn, []seqFrame, bool) {
	conn, frames, ok := o.nextBatch(dst, max)
	releaseBatch(frames)
	return conn, frames, ok
}

// pendingAndBacklog reads how many window frames the current connection
// still has to be sent and the tier-metered backlog.
func pendingAndBacklog(o *outbox) (pending, backlog int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return int(o.nextSeq - o.sent), o.backlogLocked()
}

// TestOutboxWroteSupersededConn: a write completion that raced a resume's
// attach must be a complete no-op — the frames stay queued for the new
// connection instead of being completed past a resume that never saw
// them — for a single frame as for a whole batch.
func TestOutboxWroteSupersededConn(t *testing.T) {
	o := newOutbox(4, 100, 100, 16)
	connA, connB := testConn(t), testConn(t)
	if !o.attach(connA, 0, nil) {
		t.Fatal("attach A refused")
	}
	for i := 1; i <= 3; i++ {
		pushMsg(t, o, i)
	}
	gotConn, frames, ok := peekBatch(o, nil, 8)
	if !ok || gotConn != connA || len(frames) != 3 || frames[0].seq != 1 {
		t.Fatalf("nextBatch = (%v, %+v, %v)", gotConn, frames, ok)
	}

	// The resume lands between the writer's syscall and its completion.
	if !o.attach(connB, 0, nil) {
		t.Fatal("attach B refused")
	}
	o.wroteBatch(connA, frames)     // superseded batch: must be a no-op
	o.wroteBatch(connA, frames[:1]) // and so must a single frame
	if pending, backlog := pendingAndBacklog(o); pending != 3 || backlog != 3 {
		t.Fatalf("after superseded completions: pending=%d backlog=%d, want 3/3", pending, backlog)
	}

	// The live connection re-peeks the same frames and completes them.
	gotConn, again, ok := peekBatch(o, nil, 8)
	if !ok || gotConn != connB || len(again) != 3 || again[0].seq != 1 || again[2].seq != 3 {
		t.Fatalf("re-peek = (%v, %+v, %v), want seqs 1..3 on conn B", gotConn, again, ok)
	}
	o.wroteBatch(connB, again)
	// A duplicate (stale) completion must not move anything backwards or
	// past the tail.
	o.wroteBatch(connB, again)
	if pending, backlog := pendingAndBacklog(o); pending != 0 || backlog != 0 {
		t.Fatalf("after completion: pending=%d backlog=%d, want 0/0", pending, backlog)
	}
}

// TestOutboxShutdownReportsTiersOnce: shutdown reports the occupied
// backpressure tiers exactly once, so Stop and dropClient racing each
// other cannot double-decrement the gauges.
func TestOutboxShutdownReportsTiersOnce(t *testing.T) {
	o := newOutbox(2, 3, 100, 4)
	conn := testConn(t)
	if !o.attach(conn, 0, nil) {
		t.Fatal("attach refused")
	}
	for i := 0; i < 5; i++ {
		pushMsg(t, o, i) // backlog 5: past clientBuffer 2 and the throttle watermark 3
	}
	c, spilling, throttled := o.shutdown()
	if c != conn || !spilling || !throttled {
		t.Fatalf("first shutdown = (%v, %v, %v), want conn + both tiers", c, spilling, throttled)
	}
	if _, spilling, throttled := o.shutdown(); spilling || throttled {
		t.Fatal("second shutdown re-reported the tiers")
	}
}

// TestOutboxFlushedWhileDetached: a detached session counts as flushed —
// its queue cannot move — so a drain does not burn its whole deadline on
// a client that is gone.
func TestOutboxFlushedWhileDetached(t *testing.T) {
	o := newOutbox(4, 100, 100, 16)
	conn := testConn(t)
	if !o.attach(conn, 0, nil) {
		t.Fatal("attach refused")
	}
	pushMsg(t, o, 1)
	if o.flushed() {
		t.Fatal("queued frame reported flushed")
	}
	if !o.detach(conn) {
		t.Fatal("detach refused")
	}
	if !o.flushed() {
		t.Fatal("detached session must count as flushed")
	}
	if !o.attach(testConn(t), 0, nil) {
		t.Fatal("reattach refused")
	}
	if o.flushed() {
		t.Fatal("reattached backlog reported flushed")
	}
}

// TestOutboxThrottleNoticesOrdered: the On and Off notices are enqueued
// under the outbox lock at the moment of the transition, so the client
// can never observe Off before the On that preceded it.
func TestOutboxThrottleNoticesOrdered(t *testing.T) {
	o := newOutbox(8, 4, 100, 16)
	conn := testConn(t)
	if !o.attach(conn, 0, nil) {
		t.Fatal("attach refused")
	}
	res := tierChange{}
	for i := 0; i < 4; i++ {
		res = pushMsg(t, o, i)
	}
	if !res.throttleOn {
		t.Fatalf("4 queued at watermark 4: no throttleOn (%+v)", res)
	}
	var notices []session.Throttle
	for !o.flushed() {
		c, frames, ok := peekBatch(o, nil, 1)
		if !ok {
			t.Fatal("outbox closed mid-drain")
		}
		if sf := frames[0]; sf.seq == 0 {
			th, isTh := sf.ctl.(session.Throttle)
			if !isTh {
				t.Fatalf("unexpected control frame %#v", sf.ctl)
			}
			notices = append(notices, th)
		}
		o.wroteBatch(c, frames)
	}
	if len(notices) != 2 || !notices[0].On || notices[1].On {
		t.Fatalf("throttle notices = %+v, want exactly [On, Off]", notices)
	}
	if notices[0].Queued < 4 || notices[1].Queued > 2 {
		t.Fatalf("notice queue depths = %d/%d, want >=4 then <=2", notices[0].Queued, notices[1].Queued)
	}
}

// TestOutboxBatchKeepsBodiesAlive: a peeked batch holds its own reference
// on every shared body until the writer releases it, so neither a
// shutdown nor a resume that fast-forwards past the frames can recycle
// the bytes while the vectored write is still reading them.
func TestOutboxBatchKeepsBodiesAlive(t *testing.T) {
	for name, dropWindowRefs := range map[string]func(o *outbox){
		"shutdown":    func(o *outbox) { o.shutdown() },
		"resume past": func(o *outbox) { o.attach(testConn(t), 2, nil) },
	} {
		before := session.SharedLive()
		o := newOutbox(4, 100, 100, 16)
		if !o.attach(testConn(t), 0, nil) {
			t.Fatal("attach refused")
		}
		pushMsg(t, o, 1) // creator's reference dropped: the window's is the only one
		pushMsg(t, o, 2)
		_, frames, ok := o.nextBatch(nil, 8)
		if !ok || len(frames) != 2 {
			t.Fatalf("%s: batch = %d frames, want 2", name, len(frames))
		}
		want := [][]byte{bytes.Clone(frames[0].sh.Bytes()), bytes.Clone(frames[1].sh.Bytes())}
		dropWindowRefs(o)
		for i, sf := range frames {
			if !bytes.Equal(sf.sh.Bytes(), want[i]) {
				t.Fatalf("%s: body %d changed under the in-flight batch", name, i)
			}
		}
		releaseBatch(frames)
		o.shutdown()
		if live := session.SharedLive(); live != before {
			t.Fatalf("%s: SharedLive = %d after the batch was released, want %d", name, live, before)
		}
	}
}
