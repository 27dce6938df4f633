package daemon

// Tests for the encode-once fan-out path: shared-buffer refcount hygiene
// under session churn, batch drain semantics, Welcome-first handshake
// ordering through the outbox, resume replay straight from shared
// buffers, and the zero-allocation enqueue gate.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/client"
	"accelring/internal/evs"
	"accelring/internal/session"
)

func newShared(t testing.TB, i int) *session.Shared {
	t.Helper()
	sh, err := session.NewShared(session.Message{
		Service: evs.Agreed, Groups: []string{"g"}, Payload: []byte{byte(i), byte(i >> 8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// pushMsg queues delivery i the way the daemon does: encode once, enqueue
// (the window takes its own reference), drop the creator's reference.
func pushMsg(t testing.TB, o *outbox, i int) tierChange {
	t.Helper()
	sh := newShared(t, i)
	defer sh.Unref()
	return o.enqueue(delivery{sh: sh})
}

// TestOutboxBatchDrain: nextBatch peeks control first, then deliveries,
// bounded by max; wroteBatch completes the whole batch, and the backlog
// crossing clientBuffer (4 here) is reported once in each direction.
func TestOutboxBatchDrain(t *testing.T) {
	o := newOutbox(4, 100, 100, 16)
	conn := testConn(t)
	if !o.attach(conn, 0, nil) {
		t.Fatal("attach refused")
	}
	o.pushControl(session.Throttle{On: true})
	for i := 1; i <= 6; i++ {
		if res := pushMsg(t, o, i); res.spillStart != (i == 5) || res.queued != i {
			t.Fatalf("push %d = %+v, want spillStart only when the backlog first exceeds 4", i, res)
		}
	}

	var scratch []seqFrame
	gotConn, frames, ok := peekBatch(o, scratch[:0], 4)
	if !ok || gotConn != conn {
		t.Fatalf("nextBatch = (%v, %v)", gotConn, ok)
	}
	if len(frames) != 4 {
		t.Fatalf("batch size %d, want 4 (max)", len(frames))
	}
	if frames[0].seq != 0 {
		t.Fatalf("first batched frame seq %d, want control (0)", frames[0].seq)
	}
	if _, isTh := frames[0].ctl.(session.Throttle); !isTh {
		t.Fatalf("first batched frame %#v, want the control Throttle", frames[0].ctl)
	}
	for i, sf := range frames[1:] {
		if sf.seq != uint64(i+1) {
			t.Fatalf("batched delivery %d has seq %d, want %d", i, sf.seq, i+1)
		}
	}
	if res := o.wroteBatch(conn, frames); !res.spillEnd || res.queued != 3 {
		t.Fatalf("first completion = %+v, want spillEnd at backlog 3", res)
	}

	// The rest drains in order.
	_, frames, ok = peekBatch(o, frames[:0], 8)
	if !ok || len(frames) != 3 {
		t.Fatalf("second batch = %d frames, want 3", len(frames))
	}
	for i, sf := range frames {
		if sf.seq != uint64(i+4) {
			t.Fatalf("second batch frame %d has seq %d, want %d", i, sf.seq, i+4)
		}
	}
	if res := o.wroteBatch(conn, frames); res.spillEnd || res.queued != 0 {
		t.Fatalf("second completion = %+v, want no repeated spillEnd at backlog 0", res)
	}
	if !o.flushed() {
		t.Fatal("outbox not flushed after draining both batches")
	}
}

// TestOutboxWelcomeFirst: attach splices the handshake reply in as the
// FIRST control frame, ahead of any queued notices, so a resumed client
// can never read a Throttle or Detach before its Welcome.
func TestOutboxWelcomeFirst(t *testing.T) {
	o := newOutbox(4, 100, 100, 16)
	o.pushControl(session.Detach{Reason: "draining"})
	pushMsg(t, o, 1)
	welcome := session.Welcome{Token: 42, Resumed: true}
	if !o.attach(testConn(t), 0, welcome) {
		t.Fatal("attach refused")
	}
	_, frames, ok := peekBatch(o, nil, 8)
	if !ok || len(frames) != 3 {
		t.Fatalf("batch = %d frames, want welcome+detach+delivery", len(frames))
	}
	if w, isW := frames[0].ctl.(session.Welcome); !isW || w.Token != 42 {
		t.Fatalf("first frame %#v, want the spliced Welcome", frames[0].ctl)
	}
	if _, isD := frames[1].ctl.(session.Detach); !isD {
		t.Fatalf("second frame %#v, want the earlier-queued Detach", frames[1].ctl)
	}
	if frames[2].seq != 1 {
		t.Fatalf("third frame seq %d, want the delivery", frames[2].seq)
	}
}

// TestOutboxSharedReplay: shared frames written before a disconnect are
// replayed from the SAME shared buffer after a resume — the bytes
// survive in the send window, refcounted, without any re-encode.
func TestOutboxSharedReplay(t *testing.T) {
	before := session.SharedLive()
	o := newOutbox(8, 100, 100, 16)
	connA := testConn(t)
	if !o.attach(connA, 0, nil) {
		t.Fatal("attach refused")
	}
	shares := make([]*session.Shared, 4)
	for i := range shares {
		shares[i] = newShared(t, i)
		o.enqueue(delivery{sh: shares[i]})
	}
	_, frames, ok := peekBatch(o, nil, 8)
	if !ok || len(frames) != 4 {
		t.Fatalf("batch = %d frames, want 4", len(frames))
	}
	o.wroteBatch(connA, frames) // all 4 now written, unacked

	// Client processed 2, then the connection died. Resume replays 3..4
	// from the window's shared buffers.
	if !o.attach(testConn(t), 2, session.Welcome{Resumed: true}) {
		t.Fatal("resume attach refused")
	}
	connB := o.conn
	_, frames, ok = peekBatch(o, nil, 8)
	if !ok || len(frames) != 3 {
		t.Fatalf("replay batch = %d frames, want welcome + 2 replays", len(frames))
	}
	if frames[1].seq != 3 || frames[2].seq != 4 {
		t.Fatalf("replay seqs %d,%d, want 3,4", frames[1].seq, frames[2].seq)
	}
	for i, sf := range frames[1:] {
		if sf.sh != shares[i+2] {
			t.Fatalf("replay %d does not alias the original shared buffer", i)
		}
		if !bytes.Equal(sf.sh.Bytes(), shares[i+2].Bytes()) {
			t.Fatalf("replay %d bytes differ", i)
		}
	}
	o.wroteBatch(connB, frames)
	o.ack(4)

	// Creator references were held by the test; drop them and check the
	// outbox released every reference it took.
	for _, sh := range shares {
		sh.Unref()
	}
	if live := session.SharedLive(); live != before {
		t.Fatalf("SharedLive = %d after ack, want %d (outbox leaked references)", live, before)
	}
}

// TestOutboxSharedLeakChurn: N sessions x M shared deliveries with random
// disconnect/resume/ack/shutdown interleavings — every shared reference
// must be released once the outboxes are gone: the live-buffer gauge
// settles back to its starting value.
func TestOutboxSharedLeakChurn(t *testing.T) {
	before := session.SharedLive()
	rng := rand.New(rand.NewSource(7))
	const sessions, messages = 16, 40
	outs := make([]*outbox, sessions)
	conns := make([]net.Conn, sessions)
	for i := range outs {
		outs[i] = newOutbox(4, 1000, 1000, 8)
		conns[i] = testConn(t)
		if !outs[i].attach(conns[i], 0, nil) {
			t.Fatal("attach refused")
		}
	}
	lastAcked := make([]uint64, sessions)
	for m := 0; m < messages; m++ {
		sh := newShared(t, m)
		for i, o := range outs {
			o.enqueue(delivery{sh: sh})
			switch rng.Intn(4) {
			case 0: // write everything pending
				if _, frames, ok := peekBatch(o, nil, 64); ok {
					o.wroteBatch(conns[i], frames)
					for _, sf := range frames {
						if sf.seq > lastAcked[i] {
							lastAcked[i] = sf.seq
						}
					}
				}
			case 1: // ack what was written
				o.ack(lastAcked[i])
			case 2: // disconnect, then resume from the last ack
				o.detach(conns[i])
				conns[i] = testConn(t)
				if !o.attach(conns[i], lastAcked[i], session.Welcome{Resumed: true}) {
					t.Fatalf("resume refused for session %d at seq %d", i, lastAcked[i])
				}
			}
		}
		sh.Unref() // creator
	}
	for _, o := range outs {
		o.shutdown()
	}
	if live := session.SharedLive(); live != before {
		t.Fatalf("SharedLive = %d after churn + shutdown, want %d", live, before)
	}
}

// TestOutboxSharedConcurrent exercises the refcount protocol under the
// race detector: a fan-out goroutine pushing shared deliveries into
// several outboxes, per-session writer goroutines draining batches, an
// acker trimming the send windows, and a churner detaching/reattaching
// connections (forcing replays from the shared buffers) all at once.
// Every reference must still balance at shutdown.
func TestOutboxSharedConcurrent(t *testing.T) {
	before := session.SharedLive()
	const sessions, messages = 6, 300
	outs := make([]*outbox, sessions)
	var connMu sync.Mutex
	conns := make([]net.Conn, sessions)
	for i := range outs {
		outs[i] = newOutbox(8, 1<<20, 1<<20, 16)
		conns[i] = testConn(t)
		if !outs[i].attach(conns[i], 0, nil) {
			t.Fatal("attach refused")
		}
	}
	lastWritten := make([]atomic.Uint64, sessions)
	var wg sync.WaitGroup

	// Per-session writers.
	stop := make(chan struct{})
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var scratch [8]seqFrame
			for {
				conn, frames, ok := peekBatch(outs[i], scratch[:0], 8)
				if !ok {
					return
				}
				outs[i].wroteBatch(conn, frames)
				for _, sf := range frames {
					if sf.seq > lastWritten[i].Load() {
						lastWritten[i].Store(sf.seq)
					}
				}
			}
		}(i)
	}
	// Acker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range outs {
				outs[i].ack(lastWritten[i].Load())
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Churner: detach and resume sessions while traffic flows. Resumes
	// from seq 0 relative to the eviction floor are not guaranteed, so
	// resume from the last written seq (an implicit full ack).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for {
			select {
			case <-stop:
				return
			default:
			}
			i := rng.Intn(sessions)
			connMu.Lock()
			outs[i].detach(conns[i])
			conns[i] = testConn(t)
			outs[i].attach(conns[i], lastWritten[i].Load(), session.Welcome{Resumed: true})
			connMu.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()

	// Fan-out: encode once, push to every outbox.
	for m := 0; m < messages; m++ {
		sh := newShared(t, m)
		for _, o := range outs {
			o.enqueue(delivery{sh: sh})
		}
		sh.Unref()
		if m%16 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	// Let the writers drain, then tear everything down.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, o := range outs {
			if !o.flushed() {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	for _, o := range outs {
		o.shutdown()
	}
	wg.Wait()
	if live := session.SharedLive(); live != before {
		t.Fatalf("SharedLive = %d after concurrent churn, want %d", live, before)
	}
}

// TestAllocFreeSharedFanout pins the enqueue cost of the encode-once
// path: queueing an already-encoded shared delivery into a window that
// has reached its working size and completing it must not allocate, per
// session, in steady state.
func TestAllocFreeSharedFanout(t *testing.T) {
	const sessions = 8
	outs := make([]*outbox, sessions)
	conns := make([]net.Conn, sessions)
	for i := range outs {
		outs[i] = newOutbox(16, 1<<20, 1<<20, 4)
		conns[i] = testConn(t)
		if !outs[i].attach(conns[i], 0, nil) {
			t.Fatal("attach refused")
		}
	}
	sh, err := session.NewShared(session.Message{
		Service: evs.Agreed, Groups: []string{"g"}, Payload: make([]byte, 512),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Unref()
	scratch := make([]seqFrame, 0, 16)
	step := func() {
		for i, o := range outs {
			o.enqueue(delivery{sh: sh})
			_, frames, ok := peekBatch(o, scratch[:0], 16)
			if !ok {
				t.Fatal("outbox closed")
			}
			o.wroteBatch(conns[i], frames)
			o.ack(frames[len(frames)-1].seq)
		}
	}
	for i := 0; i < 8; i++ {
		step() // warm up the control-queue and scratch backings
	}
	if n := testing.AllocsPerRun(200, func() { step() }); n != 0 {
		t.Fatalf("shared fan-out allocates %.2f times per %d-session round, want 0", n, sessions)
	}
}

// TestAllocFreeSharedCycle: a full NewShared/Unref cycle recycles both
// the buffer and the Shared box through their pools.
func TestAllocFreeSharedCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	// Pre-boxed: converting the Message to the Frame interface at the
	// call site is the caller's (per-message, not per-session) cost.
	var msg session.Frame = session.Message{Service: evs.Agreed, Groups: []string{"g"}, Payload: make([]byte, 256)}
	// Warm the pools.
	for i := 0; i < 8; i++ {
		sh, err := session.NewShared(msg)
		if err != nil {
			t.Fatal(err)
		}
		sh.Unref()
	}
	if n := testing.AllocsPerRun(200, func() {
		sh, err := session.NewShared(msg)
		if err != nil {
			t.Fatal(err)
		}
		sh.Unref()
	}); n != 0 {
		t.Fatalf("NewShared/Unref cycle allocates %.2f times per op, want 0", n)
	}
}

// TestFanoutDelivery: end-to-end — one publisher, several subscribers on
// one daemon, every subscriber sees every message in order, and the
// daemon's fan-out counters show one encode shared by all members.
func TestFanoutDelivery(t *testing.T) {
	daemons, regs := startDaemonsObs(t, 1, nil)
	d := daemons[0]
	const subs = 5
	clients := make([]*client.Client, subs)
	for i := range clients {
		clients[i] = dial(t, d, fmt.Sprintf("sub%d", i))
		if err := clients[i].Join("fan"); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range clients {
		view := nextView(t, c, "fan", 5*time.Second)
		for len(view.Members) < subs {
			view = nextView(t, c, "fan", 5*time.Second)
		}
	}
	pub := dial(t, d, "pub")
	const msgs = 20
	for i := 0; i < msgs; i++ {
		if err := pub.Multicast(evs.Agreed, []byte{byte(i)}, "fan"); err != nil {
			t.Fatal(err)
		}
	}
	for ci, c := range clients {
		for i := 0; i < msgs; i++ {
			m := nextMessage(t, c, 5*time.Second)
			if len(m.Payload) != 1 || m.Payload[0] != byte(i) {
				t.Fatalf("client %d message %d: payload %v", ci, i, m.Payload)
			}
		}
	}
	enc := regs[0].Counter("daemon.fanout_encodes").Value()
	shared := regs[0].Counter("daemon.fanout_shared").Value()
	if enc < msgs {
		t.Fatalf("fanout_encodes = %d, want >= %d", enc, msgs)
	}
	if shared < msgs*subs {
		t.Fatalf("fanout_shared = %d, want >= %d (one per member per message)", shared, msgs*subs)
	}
	if shared < enc*subs {
		t.Fatalf("shared/encodes = %d/%d: the one encode is not being shared by all %d members", shared, enc, subs)
	}
}

// TestFanoutChurnNoLeak: end-to-end churn — subscribers disconnect and
// reconnect (resume) while the publisher keeps multicasting. After the
// daemons stop, every shared buffer must have been released.
func TestFanoutChurnNoLeak(t *testing.T) {
	before := session.SharedLive()
	func() {
		daemons, _ := startDaemonsObs(t, 1, nil)
		d := daemons[0]
		const subs = 4
		clients := make([]*client.Client, subs)
		for i := range clients {
			c, err := client.DialWith(client.Config{
				Addr: d.Addr().String(), Name: fmt.Sprintf("churn%d", i), Reconnect: true,
				AckEvery: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			clients[i] = c
			if err := c.Join("churn"); err != nil {
				t.Fatal(err)
			}
		}
		pub := dial(t, d, "pub")
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 200; i++ {
				_ = pub.Multicast(evs.Agreed, bytes.Repeat([]byte{byte(i)}, 64), "churn")
				time.Sleep(time.Millisecond)
			}
		}()
		// Drain subscriber events while the publisher runs.
		for _, c := range clients {
			go func(c *client.Client) {
				for range c.Events() {
				}
			}(c)
		}
		<-done
		time.Sleep(100 * time.Millisecond)
		for _, c := range clients {
			c.Close()
		}
		pub.Close()
		d.Stop()
	}()
	// Stop released every outbox; all shared buffers must be back.
	deadline := time.Now().Add(5 * time.Second)
	for session.SharedLive() != before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if live := session.SharedLive(); live != before {
		t.Fatalf("SharedLive = %d after full teardown, want %d", live, before)
	}
}
