package groupcore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"accelring/internal/evs"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/transport"
)

// Host is the core's one real-time host, for the library facade and the
// daemon alike: N independent ring instances (the Multi-Ring scaling
// pattern of "Stretching Multi-Ring Paxos"), each a full ringnode bundle
// with its own transport so one ring's membership incidents never stall
// another, their streams merged by one Core, and (N > 1) the pacing loop.
// The chaos harness drives the passive Core from its own virtual-time loop.
type Host struct {
	core  *Core
	nodes []*ringnode.Node

	// stop ends the pacing loop and done reports that it has; both stay
	// nil unless a multi-ring Start ends by starting the loop.
	stop, done chan struct{}
	stopOnce   sync.Once
}

const (
	// MaxShards bounds the ring count: sharding wins by multiplying rings a
	// few times over, not by spraying hundreds of tokens through one host.
	MaxShards = 64
	// DefaultSkipInterval is the pacing loop's lambda-pacing tick.
	DefaultSkipInterval = 2 * time.Millisecond
	// MigrateTimeout bounds how long Migrate waits for the ordered close.
	MigrateTimeout = 30 * time.Second
	// Application senders pace (Paced) while a ring has PaceBacklog
	// submissions unsent, never longer than PaceMaxWait per call.
	PaceBacklog = 512
	PaceMaxWait = 2 * time.Second
)

// HostConfig parameterizes a Host.
type HostConfig struct {
	// Shards is the ring count, in [1, MaxShards].
	Shards int
	// Ring is the per-ring template (Self, windows, timeouts, an Observer
	// all rings share). One ring runs it as given, over its Transport when
	// set; with more, ring r runs Ring.ForRing(r). The host owns OnEvent.
	Ring ringnode.Config
	// NewTransport opens ring r's own transport binding: rings are
	// independent precisely because their frames never mix.
	NewTransport func(ring int) (transport.Transport, error)
	// Sink receives the globally ordered output.
	Sink Sink
	// Obs registers merge.* metrics when non-nil.
	Obs *obs.Registry
}

// Start opens every ring's transport, starts every ring, builds the core
// over them and (N > 1) runs its pacing loop. On any failure the rings
// already started are stopped (closing their transports).
func Start(cfg HostConfig) (*Host, error) {
	if cfg.Shards < 1 || cfg.Shards > MaxShards {
		return nil, fmt.Errorf("groupcore: ring count %d out of range [1, %d]", cfg.Shards, MaxShards)
	}
	open := cfg.NewTransport
	if tr := cfg.Ring.Transport; cfg.Shards == 1 && tr != nil {
		open = func(int) (transport.Transport, error) { return tr, nil }
	}
	if open == nil {
		return nil, errors.New("groupcore: nil NewTransport")
	}
	h := &Host{}
	h.core = New(Config{Shards: cfg.Shards, Self: cfg.Ring.Self, Submit: h, Sink: cfg.Sink, Obs: cfg.Obs})
	for r := 0; r < cfg.Shards; r++ {
		tr, err := open(r)
		if err != nil {
			h.Stop()
			return nil, fmt.Errorf("groupcore: ring %d transport: %w", r, err)
		}
		rc := cfg.Ring
		if cfg.Shards > 1 {
			rc = cfg.Ring.ForRing(r)
		}
		rc.Transport, rc.OnEvent = tr, func(ev evs.Event) { h.core.OnRingEvent(r, ev) }
		n, err := ringnode.Start(rc)
		if err != nil {
			tr.Close()
			h.Stop()
			return nil, fmt.Errorf("groupcore: ring %d: %w", r, err)
		}
		h.nodes = append(h.nodes, n)
	}
	if cfg.Shards > 1 {
		h.stop, h.done = make(chan struct{}), make(chan struct{})
		go h.run()
	}
	return h, nil
}

// run is the pacing loop: it calls Pace every DefaultSkipInterval (the
// merge's lambda pacing) until Stop. One ring never blocks its own merge,
// so a one-ring host runs no loop.
func (h *Host) run() {
	defer close(h.done)
	t := time.NewTicker(DefaultSkipInterval)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			h.core.Pace()
		}
	}
}

// Core returns the ordered-group core the host feeds.
func (h *Host) Core() *Core { return h.core }

// RingNode returns ring r's protocol node (status inspection, observer).
func (h *Host) RingNode(r int) *ringnode.Node { return h.nodes[r] }

// Submit orders a payload on ring r in that ring's total order: the core's
// Submitter. It never blocks, so any goroutine may call it.
func (h *Host) Submit(r int, payload []byte, svc evs.Service) error {
	return h.nodes[r].Submit(payload, svc)
}

// Backlog returns the deepest ring's count of unsent submissions.
func (h *Host) Backlog() (deepest int) {
	for _, n := range h.nodes {
		deepest = max(deepest, n.Status().QueueLen)
	}
	return deepest
}

// Paced holds the caller in 1 ms steps while Backlog is PaceBacklog or
// more, for at most PaceMaxWait, and returns the steps it waited: Submit
// never blocks, so an application sender paces itself here.
func (h *Host) Paced() (waits int) {
	deadline := time.Now().Add(PaceMaxWait)
	for h.Backlog() >= PaceBacklog && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		waits++
	}
	return waits
}

// Stop stops the pacing loop, then every ring (closing its transport), and
// waits for all of them: once it returns no Sink method runs. It is
// idempotent and safe on a partially started host.
func (h *Host) Stop() {
	h.stopOnce.Do(func() {
		if h.stop != nil {
			close(h.stop)
			<-h.done
		}
		for _, n := range h.nodes {
			n.Stop()
		}
	})
}

// Migrate re-homes a group onto another ring with no loss, duplication or
// reordering: it orders a MigrateBegin on the group's current ring and
// blocks until the migration's globally ordered close point has been
// emitted locally (source ring drained, membership state re-homed,
// buffered target-ring traffic replayed). The move survives this call
// returning early on timeout: the protocol completes or voids
// deterministically on every node regardless.
func (c *Core) Migrate(g string, to int) error {
	done, err := c.BeginMigrate(g, c.RingOfGroup(g), to)
	if err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-time.After(MigrateTimeout):
		return fmt.Errorf("groupcore: migration of %q to ring %d timed out", g, to)
	}
}
