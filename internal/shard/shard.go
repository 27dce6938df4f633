// Package shard multiplies a node's ordering capacity by running N
// independent Accelerated Ring instances side by side — the Multi-Ring
// scaling pattern ("Stretching Multi-Ring Paxos"): a single token ring's
// throughput is capped by one token rotation no matter how fast the hot
// path gets, but rings are independent, so running several and
// deterministically partitioning the message space across them multiplies
// aggregate throughput while each partition keeps the exact per-ring
// protocol (and therefore its ordering and safety guarantees) unchanged.
//
// The partitioning key is the group name: RingOf hashes it to a ring
// index, identically at every node, so all traffic for one group flows
// through one ring and per-group total order (and Agreed/Safe semantics
// within the group) is preserved. Messages in different groups may be
// delivered in different relative orders at different nodes — that is the
// deal sharding makes, and exactly the guarantee Spread-style systems
// scope per group anyway.
//
// Each ring instance is a full ringnode bundle — its own core.Engine,
// membership machine, and transport binding (distinct ports or hub
// endpoints per ring) — so membership incidents on one ring never stall
// the others.
package shard

import (
	"errors"
	"fmt"
	"time"

	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/transport"
)

// MaxShards bounds the ring count: sharding wins by multiplying rings a
// few times over, not by spraying hundreds of tokens through one host.
const MaxShards = 64

// RingOfClient routes client-addressed (private) traffic by the stable
// string form of an identity, spreading point-to-point load across rings
// with the same everywhere-identical guarantee as group.RingOf.
func RingOfClient(id string, shards int) int {
	return group.RingOf(id, shards)
}

// Config configures a shard group.
type Config struct {
	// Shards is the ring count, in [1, MaxShards].
	Shards int
	// Base is the per-ring configuration template: Self, windows,
	// priority, timeouts, tick interval, and (optionally) an Observer
	// whose registry, clock and flight recorder are shared by all rings —
	// with one ring it is used as given, message tracer and unlabelled
	// series included. Its Transport and OnEvent fields are ignored —
	// those are per-ring.
	Base ringnode.Config
	// NewTransport opens ring r's transport binding (hub endpoint, or UDP
	// sockets on the ring's own port pair). Each ring must get its own:
	// rings are independent precisely because their frames never mix.
	NewTransport func(ring int) (transport.Transport, error)
	// OnEvent receives every ring's delivery stream, tagged with the ring
	// index. It runs on ring r's protocol goroutine: calls for different
	// rings are CONCURRENT; per-ring calls are serial. Must not block.
	OnEvent func(ring int, ev evs.Event)
}

// Group runs N ring instances behind one node.
type Group struct {
	shards int
	nodes  []*ringnode.Node
}

// Start opens every ring's transport and launches every ring instance.
// On any failure, rings already started are stopped.
func Start(cfg Config) (*Group, error) {
	if cfg.Shards <= 0 || cfg.Shards > MaxShards {
		return nil, fmt.Errorf("shard: ring count %d out of range [1, %d]", cfg.Shards, MaxShards)
	}
	if cfg.NewTransport == nil {
		return nil, errors.New("shard: nil NewTransport")
	}
	g := &Group{shards: cfg.Shards}
	for r := 0; r < cfg.Shards; r++ {
		tr, err := cfg.NewTransport(r)
		if err != nil {
			g.Stop()
			return nil, fmt.Errorf("shard: ring %d transport: %w", r, err)
		}
		ring := r
		var onEvent func(evs.Event)
		if cfg.OnEvent != nil {
			onEvent = func(ev evs.Event) { cfg.OnEvent(ring, ev) }
		}
		rc := cfg.Base
		if cfg.Shards > 1 {
			rc = cfg.Base.ForRing(r)
		}
		rc.Transport, rc.OnEvent = tr, onEvent
		n, err := ringnode.Start(rc)
		if err != nil {
			tr.Close()
			g.Stop()
			return nil, fmt.Errorf("shard: ring %d: %w", r, err)
		}
		g.nodes = append(g.nodes, n)
	}
	return g, nil
}

// Shards returns the ring count.
func (g *Group) Shards() int { return g.shards }

// Node returns ring r's driver (status inspection, direct submission).
func (g *Group) Node(r int) *ringnode.Node { return g.nodes[r] }

// MsgTracer returns ring r's message-lifecycle tracer (nil unless the
// base observer carried a sampling tracer).
func (g *Group) MsgTracer(r int) *obs.MsgTracer {
	return g.nodes[r].Observer().MsgTracer()
}

// Submit multicasts a payload on one ring, in that ring's total order.
// Safe for any goroutine. Callers route with group.RingOf (or the group
// table's migration-aware Ring) so one group's traffic always lands on
// one ring.
func (g *Group) Submit(ring int, payload []byte, service evs.Service) error {
	if ring < 0 || ring >= g.shards {
		return fmt.Errorf("shard: ring %d out of range [0, %d)", ring, g.shards)
	}
	return g.nodes[ring].Submit(payload, service)
}

// WaitOperational blocks until EVERY ring is operational (or the timeout
// elapses), returning whether all made it.
func (g *Group) WaitOperational(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for _, n := range g.nodes {
		left := time.Until(deadline)
		if left <= 0 {
			left = time.Millisecond
		}
		if !n.WaitState(membership.StateOperational, left) {
			return false
		}
	}
	return true
}

// Stop stops every ring instance (closing its transport). Safe on a
// partially started group.
func (g *Group) Stop() {
	for _, n := range g.nodes {
		if n != nil {
			n.Stop()
		}
	}
}
