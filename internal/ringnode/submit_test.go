package ringnode

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/membership"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// startSingleton starts one node on its own hub with onEvent as its
// handler and waits for its singleton ring.
func startSingleton(t *testing.T, onEvent func(evs.Event)) *Node {
	t.Helper()
	ep, err := transport.NewHub().Endpoint(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Accelerated(1, ep, 10, 100, 7)
	cfg.Timeouts = fastTimeouts()
	cfg.OnEvent = onEvent
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	if !n.WaitState(membership.StateOperational, 5*time.Second) {
		t.Fatal("singleton ring did not form")
	}
	return n
}

// TestSubmitFromOnEvent: a handler that submits on its own node, on the
// protocol goroutine, gets its message ordered.
func TestSubmitFromOnEvent(t *testing.T) {
	var n *Node
	pong := make(chan error, 1)
	n = startSingleton(t, func(ev evs.Event) {
		m, ok := ev.(evs.Message)
		switch {
		case !ok:
		case string(m.Payload) == "ping":
			if err := n.Submit([]byte("pong"), evs.Agreed); err != nil {
				pong <- err
			}
		case string(m.Payload) == "pong":
			pong <- nil
		}
	})
	if err := n.Submit([]byte("ping"), evs.Agreed); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-pong:
		if err != nil {
			t.Fatalf("Submit from OnEvent = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a message submitted from OnEvent was never ordered")
	}
}

// TestSubmitAllocFree: Submit allocates nothing once the queue has grown
// to the batch size. The protocol goroutine is parked in OnEvent while it
// is measured, so nothing else in the process allocates.
func TestSubmitAllocFree(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	n := startSingleton(t, func(ev evs.Event) {
		if m, ok := ev.(evs.Message); ok && string(m.Payload) == "park" {
			close(parked)
			<-release
		}
	})
	defer close(release)
	if err := n.Submit([]byte("park"), evs.Agreed); err != nil {
		t.Fatal(err)
	}
	<-parked
	n.qmu.Lock()
	n.queue = slices.Grow(n.queue, 1000) // the capacity earlier batches left
	n.qmu.Unlock()
	payload := []byte("x")
	allocs := testing.AllocsPerRun(500, func() {
		if err := n.Submit(payload, evs.Agreed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Submit allocates %.1f times per call, want 0", allocs)
	}
}

// TestHandledFrameAllocFree: the host's share of one handled frame — the
// step call, the buffer recycle and the status publish that follows every
// frame — allocates nothing. The frame is a data frame the node already
// has, so the step itself sends and keeps nothing.
func TestHandledFrameAllocFree(t *testing.T) {
	r, steps := newStepRing(t, 2, func(c *Config) { c.OnEvent = func(evs.Event) {} })
	r.form(t)
	tok := r.tokenHeldFor(t, 2)
	if err := steps[1].Submit([]byte("dup"), evs.Agreed, r.now); err != nil {
		t.Fatal(err)
	}
	steps[1].Token(tok, r.now)
	var data []byte
	for data == nil {
		if len(r.w.q) == 0 {
			t.Fatal("the submitter sent no data frame")
		}
		if q := r.w.q[0]; q.to == 0 && q.frame[3] == byte(wire.FrameData) {
			data = q.frame
		}
		r.deliver()
	}
	n := &Node{step: steps[0]}
	allocs := testing.AllocsPerRun(200, func() {
		f := bufpool.Get(len(data))
		copy(f, data)
		n.handleData(f)
		n.publishStatus()
		r.w.q, r.w.log = r.w.q[:0], r.w.log[:0]
	})
	if allocs != 0 {
		t.Fatalf("a handled frame allocates %.1f times, want 0", allocs)
	}
	if !n.installed.Load() || n.Status().Ring.ID.IsZero() {
		t.Fatal("the published status lost the installed ring")
	}
}

// TestConcurrentSubmitRacingStop: eight goroutines submit to one node
// while it is stopped under them. Every receiver sees each submitter's
// messages in submission order without duplicates, and every call made
// after Stop returned fails with ErrStopped. Submit never blocks, so the
// submitters pace themselves on the node's backlog, as the daemon's
// clients and the facade's senders are paced.
func TestConcurrentSubmitRacingStop(t *testing.T) {
	const submitters = 8
	nodes, logs, _ := startHubNodes(t, 3, true)
	waitFullRing(t, nodes, 3, 5*time.Second)

	var stopped atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for k := 0; k < submitters; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refused := 0
			for i := 0; refused < 10; i++ {
				for nodes[0].Status().QueueLen >= 256 && !stopped.Load() {
					time.Sleep(time.Millisecond)
				}
				after := stopped.Load()
				err := nodes[0].Submit([]byte(fmt.Sprintf("%d/%d", k, i)), evs.Agreed)
				switch {
				case err == ErrStopped:
					refused++
				case err != nil:
					errs <- fmt.Errorf("submitter %d: call %d = %v", k, i, err)
					return
				case after:
					errs <- fmt.Errorf("submitter %d: call %d after Stop accepted", k, i)
					return
				}
			}
		}()
	}
	waitMessages(t, logs, 200, 5*time.Second)
	nodes[0].Stop()
	stopped.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitFullRing(t, nodes[1:], 2, 10*time.Second)

	for r, l := range logs {
		next := make([]int, submitters) // lowest index each submitter may deliver next
		for _, m := range l.messages() {
			var k, i int
			if _, err := fmt.Sscanf(string(m.Payload), "%d/%d", &k, &i); err != nil {
				t.Fatalf("receiver %d: payload %q: %v", r, m.Payload, err)
			}
			if i < next[k] {
				t.Fatalf("receiver %d: submitter %d's message %d after %d", r, k, i, next[k]-1)
			}
			next[k] = i + 1
		}
	}
}

// gated passes a transport's sends through until closed is set and drops
// them after.
type gated struct {
	transport.Transport
	closed atomic.Bool
}

func (g *gated) Multicast(f []byte) error {
	if g.closed.Load() {
		return nil
	}
	return g.Transport.Multicast(f)
}

func (g *gated) Unicast(to evs.ProcID, f []byte) error {
	if g.closed.Load() {
		return nil
	}
	return g.Transport.Unicast(to, f)
}

// TestStatusAfterDrainedSubmission: a submission the protocol goroutine
// drains shows in Status().QueueLen at once, with no further frame. The
// ring is a silent singleton (its token dropped, its timer ticking every
// 50 ms), so only the input that drained the submission can publish it.
// Each submission is made from OnEvent while a frame is handled, so the
// loop drains it in its non-blocking pass.
func TestStatusAfterDrainedSubmission(t *testing.T) {
	hub := transport.NewHub()
	ep, err := hub.Endpoint(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := hub.Endpoint(2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := &gated{Transport: ep}
	var n *Node
	kicked := make(chan struct{}, 1)
	cfg := Accelerated(1, tr, 10, 100, 7)
	cfg.Timeouts = membership.Timeouts{
		JoinInterval: 200 * time.Millisecond, Gather: time.Second, Commit: time.Second,
		TokenLoss: 20 * time.Second, TokenRetransmit: 20 * time.Second,
	}
	cfg.OnEvent = func(ev evs.Event) {
		if m, ok := ev.(evs.Message); ok && string(m.Payload) == "kick" {
			if err := n.Submit([]byte("queued"), evs.Agreed); err != nil {
				t.Error(err)
			}
			kicked <- struct{}{}
		}
	}
	n, err = Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	if !n.WaitState(membership.StateOperational, 5*time.Second) {
		t.Fatal("singleton ring did not form")
	}
	// Silence the ring: drop its token and wait for rotation to stop.
	tr.closed.Store(true)
	for last := n.Status().Engine.Rounds; ; {
		time.Sleep(20 * time.Millisecond)
		r := n.Status().Engine.Rounds
		if r == last {
			break
		}
		last = r
	}
	for k := 1; k <= 3; k++ {
		st := n.Status()
		d := wire.Data{RingID: st.Ring.ID, Seq: st.Engine.Delivered + 1, Sender: 2, Round: 1, Service: evs.Agreed, Payload: []byte("kick")}
		if err := peer.Multicast(d.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-kicked:
		case <-time.After(5 * time.Second):
			t.Fatal("the injected message was not delivered")
		}
		for drained := false; !drained; {
			n.qmu.Lock()
			drained = len(n.queue) == 0
			n.qmu.Unlock()
		}
		deadline := time.Now().Add(10 * time.Millisecond)
		for n.Status().QueueLen != k && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		if got := n.Status().QueueLen; got != k {
			t.Fatalf("after %d drained submissions Status().QueueLen = %d", k, got)
		}
	}
}
