package groupcore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accelring/internal/evs"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/transport"
)

// Host is the core's one real-time host, for the library facade and the
// daemon alike: N independent ring instances (the Multi-Ring scaling
// pattern of "Stretching Multi-Ring Paxos"), each a full ringnode bundle
// with its own transport so one ring's membership incidents never stall
// another, their streams merged by one Core. The host starts no goroutine
// beyond its rings': the merge claims skips from the ring goroutines that
// feed it. The chaos harness drives the passive Core from its own
// virtual-time loop.
type Host struct {
	core *Core
	// nodes[r] is published once ring r has started. A started ring's
	// events reach the core, and through it Submit, while Start is still
	// starting the rings after it, and no goroutine of the host's orders
	// the two.
	nodes    []atomic.Pointer[ringnode.Node]
	stopOnce sync.Once
}

const (
	// MaxShards bounds the ring count: sharding wins by multiplying rings a
	// few times over, not by spraying hundreds of tokens through one host.
	MaxShards = 64
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
	// set; with more, ring r runs Ring.ForRing(r). The host owns OnEvent
	// and OnMessage.
	Ring ringnode.Config
	// NewTransport opens ring r's own transport binding: rings are
	// independent precisely because their frames never mix.
	NewTransport func(ring int) (transport.Transport, error)
	// Sink receives the globally ordered output.
	Sink Sink
	// Obs registers merge.* metrics when non-nil.
	Obs *obs.Registry
}

// Start opens every ring's transport, starts every ring and builds the core
// over them. On any failure the rings already started are stopped (closing
// their transports).
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
	h := &Host{nodes: make([]atomic.Pointer[ringnode.Node], cfg.Shards)}
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
		rc.Transport = tr
		rc.OnMessage = func(m evs.Message) { h.core.OnRingMessage(r, m) }
		// With OnMessage set, OnEvent carries only configuration changes.
		rc.OnEvent = func(ev evs.Event) { h.core.OnRingConfig(r, ev.(evs.ConfigChange)) }
		n, err := ringnode.StartHeld(rc, h.core.Holder(r))
		if err != nil {
			tr.Close()
			h.Stop()
			return nil, fmt.Errorf("groupcore: ring %d: %w", r, err)
		}
		h.nodes[r].Store(n)
	}
	return h, nil
}

// Core returns the ordered-group core the host feeds.
func (h *Host) Core() *Core { return h.core }

// RingNode returns ring r's protocol node (status inspection, observer).
func (h *Host) RingNode(r int) *ringnode.Node { return h.nodes[r].Load() }

// Submit orders a payload on ring r in that ring's total order: the core's
// Submitter. It never blocks, so any goroutine may call it. A ring Start
// has not started yet has formed no ring either: ErrNotOperational.
func (h *Host) Submit(r int, payload []byte, svc evs.Service) error {
	n := h.nodes[r].Load()
	if n == nil {
		return membership.ErrNotOperational
	}
	return n.Submit(payload, svc)
}

// Backlog returns the deepest ring's count of unsent submissions.
func (h *Host) Backlog() (deepest int) {
	for r := range h.nodes {
		deepest = max(deepest, h.nodes[r].Load().Status().QueueLen)
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

// Stop stops every ring (closing its transport) and waits for all of them:
// once it returns no Sink method runs. It is idempotent and safe on a
// partially started host.
func (h *Host) Stop() {
	h.stopOnce.Do(func() {
		for r := range h.nodes {
			if n := h.nodes[r].Load(); n != nil {
				n.Stop()
			}
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
