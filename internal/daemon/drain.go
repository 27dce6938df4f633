package daemon

import (
	"context"
	"time"

	"accelring/internal/session"
)

// drainPoll is how often Drain re-checks the sessions' flush state.
const drainPoll = 2 * time.Millisecond

// drainDetachGrace bounds the post-Detach flush. It is independent of
// the caller's ctx on purpose: if the main flush spent the whole
// deadline, healthy attached clients should still get their Detach
// notices (a handful of control frames) instead of losing them to an
// already-expired context.
const drainDetachGrace = time.Second

// Drain winds the client-serving side down gracefully:
//
//  1. Stop accepting connects (new Connect and Resume handshakes are
//     refused with CodeDraining; the listener closes).
//  2. Flush every session's outbound queue — however deep its backlog —
//     so no ordered delivery already routed to a client is lost.
//  3. Hand every client a Detach notice with CanResume set: the client
//     keeps its resume token and can present it to a restarted daemon.
//  4. Emit the final ordered leave (OpDisconnect) per session, so the
//     surviving daemons agree on the departures.
//
// ctx bounds the flush: on expiry the remaining sessions are detached
// and dropped anyway and ctx's error is returned. Drain does not stop
// the ring protocol — call Stop afterwards.
func (d *Daemon) Drain(ctx context.Context) error {
	d.mu.Lock()
	if d.stopped || d.draining {
		d.mu.Unlock()
		return nil
	}
	d.draining = true
	clients := make([]*clientConn, 0, len(d.clients))
	for _, c := range d.clients {
		clients = append(clients, c)
	}
	d.mu.Unlock()
	d.dm.drains.Inc()
	d.flight("drain", 0, len(clients))
	d.ln.Close()

	err := d.awaitFlush(ctx, clients)
	for _, c := range clients {
		c.out.pushControl(session.Detach{Reason: "drain", CanResume: true})
	}
	// Second, brief flush so the Detach frames actually hit the wire; it
	// gets its own short grace (see drainDetachGrace) and the first
	// flush's verdict wins.
	graceCtx, cancel := context.WithTimeout(context.Background(), drainDetachGrace)
	_ = d.awaitFlush(graceCtx, clients)
	cancel()
	for _, c := range clients {
		d.dropClient(c)
	}
	return err
}

// awaitFlush waits until every session's outbox is fully written,
// polling until ctx expires. Closed and detached sessions count as
// flushed — a detached outbox cannot move and its frames stay in the
// window for resume, so waiting on one would starve the attached clients.
func (d *Daemon) awaitFlush(ctx context.Context, clients []*clientConn) error {
	for {
		flushed := true
		for _, c := range clients {
			if !c.out.flushed() {
				flushed = false
				break
			}
		}
		if flushed {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(drainPoll):
		}
	}
}
