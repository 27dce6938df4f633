// Package groupcore is the one ordered-group core: everything between "ring
// r ordered this" and "the application sees it". It owns the sharded group
// table, the cross-ring merger, the route-aware table lookup, the
// envelope and configuration-change apply logic, view announcement,
// control-envelope submission (skip claims included) and live migration.
// The library facade (accelring.Node), the client daemon (daemon.Daemon)
// and the cross-ring chaos harness all drive this same code; one ring is
// simply the N = 1 merge.
//
// The core is passive. It starts no goroutine and reads no clock: its host
// feeds it each ring's ordered messages (OnRingMessage) and configuration
// changes (OnRingConfig) and receives the globally ordered result through
// a Sink, and whatever the merge needs ordered — skip claims for an idle
// ring included — it submits at the event that made it needed. That is
// what lets the chaos harness run the production path under virtual time.
// What does run on real time lives in host.go: Host, which starts the
// rings around one Core for the facade and the daemon alike, and Migrate,
// which only calls the passive methods.
//
// # Locking
//
// Every Sink method runs at a globally ordered emission point with the
// merger's lock held, on whichever ring goroutine's event completed the
// emission. A sink therefore must not block, and must not call
// OnRingMessage, OnRingConfig, BeginMigrate, Members or GroupsOf (they
// take that lock). It may call the routing accessors (RingOfGroup,
// SplitByRing) and Submit: the Submitter never blocks, so the merger
// itself submits its control envelopes (skip claims, migration acks,
// frontier announcements) right there.
package groupcore

import (
	"errors"
	"sort"

	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/shard/merge"
)

// Submitter orders a payload on one ring. It must not block, since the
// merger calls it at emission points. Host is the production
// implementation; the chaos harness submits to its virtual-time machines.
type Submitter interface {
	Submit(ring int, payload []byte, svc evs.Service) error
}

// Sink receives the globally ordered, ready-to-apply event stream. See
// the package comment for what its methods may not do.
type Sink interface {
	// Message delivers an ordered multicast (OpMessage) or private
	// (OpPrivate) envelope with its delivery set resolved against the
	// group tables as of this point in the order: sorted, deduplicated,
	// possibly empty. env and to are both valid only for the duration of
	// the call and both are shared (env.Groups with other envelopes, to
	// with the table's cache): a sink copies what it keeps and modifies
	// neither. ring and seq identify the carrier message for latency
	// attribution.
	Message(ring int, env *group.Envelope, svc evs.Service, seq uint64, to []group.ClientID)
	// View announces a group's agreed membership after a change. cause is
	// the client whose join, leave or disconnect changed it, or the zero
	// ClientID when a ring configuration change dropped members.
	View(g string, members []group.ClientID, cause group.ClientID)
	// Config reports a ring's configuration change, before the group
	// views it causes.
	Config(ring int, cc evs.ConfigChange)
	// Rejected reports, at its ordered position, an operation of client c
	// that could not apply: a join or leave the table refused, or a
	// private whose target was already gone (op OpPrivateReject).
	Rejected(c group.ClientID, op group.OpKind, err error)
	// Migrated reports a live migration that closed at this point, after
	// the group's state moved rings.
	Migrated(g string, from, to int)
}

// ErrNoRecipient is the Rejected cause of an OpPrivateReject.
var ErrNoRecipient = errors.New("private target disconnected")

// Config parameterizes a Core.
type Config struct {
	// Shards is the ring count (>= 1).
	Shards int
	// Self is the local daemon's identity.
	Self evs.ProcID
	// Submit orders payloads on the rings, emission points included.
	Submit Submitter
	// Sink receives the ordered output.
	Sink Sink
	// Obs registers merge.* metrics when non-nil.
	Obs *obs.Registry
}

// Core is one node's ordered-group state machine.
type Core struct {
	shards int
	sub    Submitter
	sink   Sink
	table  *group.ShardedTable
	merger *merge.Merger

	// names[r] interns the group names ring r's stream carries. Only ring
	// r's goroutine decodes into it, so it needs no lock and never races
	// the table.
	names []group.Names

	// one and union are Message's delivery-set scratch for privates and
	// multi-group unions (emission points are serialized by the merger's
	// lock).
	one   [1]group.ClientID
	union []group.ClientID
}

// New builds a core for cfg.Shards rings.
func New(cfg Config) *Core {
	c := &Core{
		shards: cfg.Shards,
		sub:    cfg.Submit,
		sink:   cfg.Sink,
		table:  group.NewShardedTable(cfg.Shards),
		names:  make([]group.Names, cfg.Shards),
	}
	c.merger = merge.New(merge.Config{
		Shards: cfg.Shards,
		Self:   cfg.Self,
		Table:  c.table,
		Out:    (*mergeOut)(c),
		Obs:    cfg.Obs,
	})
	return c
}

// Merger exposes the merger for introspection (pending counts, frontiers,
// open migrations).
func (c *Core) Merger() *merge.Merger { return c.merger }

// OnRingMessage feeds one message of ring's totally ordered stream. It
// runs on ring's protocol goroutine (different rings concurrently) and
// emits, via the Sink, whatever the message makes globally ordered.
// Payloads that are not group envelopes belong to a foreign application on
// the same ring and are ignored. An envelope decodes onto the stack with
// its group names interned, and the merger queues it by value with its
// payload still in the ring's frame, so a message to one group allocates
// nothing here; the ring's step keeps the frame while Holder(ring) says
// the merger reads it.
func (c *Core) OnRingMessage(ring int, m evs.Message) {
	var env group.Envelope
	if env.Decode(m.Payload, &c.names[ring]) != nil {
		return
	}
	c.merger.PushEnvelopeAt(ring, &env, m.Service, m.Config.Seq, m.Seq)
}

// OnRingConfig feeds one configuration change of ring's stream, as
// OnRingMessage does a message. Transitional changes are slotted too:
// every daemon must assign the same virtual slots to a ring's stream.
func (c *Core) OnRingConfig(ring int, cc evs.ConfigChange) {
	c.merger.PushConfig(ring, cc)
}

// Holder returns ring's ringnode.Holder: the payloads of ring's messages
// the merger still reads. A host starts the ring's step with it.
func (c *Core) Holder(ring int) ringnode.Holder { return ringHold{c.merger, ring} }

// ringHold is one ring's view of the merger's held payloads.
type ringHold struct {
	m    *merge.Merger
	ring int
}

func (h ringHold) HeldFrom() (cfg, seq uint64, ok bool) { return h.m.HeldFrom(h.ring) }

// Submit encodes an envelope and orders it on ring, without blocking.
func (c *Core) Submit(ring int, env *group.Envelope, svc evs.Service) error {
	enc, err := env.Encode()
	if err != nil {
		return err
	}
	return c.sub.Submit(ring, enc, svc)
}

// BeginMigrate orders a MigrateBegin moving group g from ring from (the
// ring it is currently homed on) to ring to, and returns a channel closed
// when the migration's globally ordered close point has been emitted
// locally. When g is already home the channel is closed on return. A
// refused submission leaves nothing registered.
func (c *Core) BeginMigrate(g string, from, to int) (<-chan struct{}, error) {
	env, err := c.merger.BeginEnvelope(g, to)
	if err != nil {
		return nil, err
	}
	if from == to {
		home := make(chan struct{})
		close(home)
		return home, nil
	}
	done := c.merger.NotifyMigrated(g)
	if err := c.Submit(from, &env, evs.Agreed); err != nil {
		c.merger.Forget(g, done)
		return nil, err
	}
	return done, nil
}

// RingOfGroup reports which ring currently owns a group: its hash home or,
// after a migration, its override.
func (c *Core) RingOfGroup(g string) int { return c.table.Ring(g) }

// SplitByRing partitions a destination list by owning ring (see
// group.ShardedTable.SplitByRing).
func (c *Core) SplitByRing(groups []string, dst []group.RingGroups) []group.RingGroups {
	return c.table.SplitByRing(groups, dst)
}

// Members returns a group's agreed membership as of the events emitted so
// far (nil if empty or unknown).
func (c *Core) Members(g string) (out []group.ClientID) {
	c.merger.Locked(func() { out = c.table.For(g).Members(g) })
	return out
}

// GroupsOf returns the groups a client has joined, across all rings.
func (c *Core) GroupsOf(id group.ClientID) (out []string) {
	c.merger.Locked(func() { out = c.table.GroupsOf(id) })
	return out
}

// tableFor locates the table holding a group's membership state at the
// current point of the global order: normally the emission ring's
// partition, but a message can straggle in on a ring the group has since
// migrated away from, and then the routed partition has it. Table contents
// at an emission point are identical on every node, so the probe resolves
// identically everywhere.
func (c *Core) tableFor(ring int, g string) *group.Table {
	if t := c.table.Table(ring); t.Has(g) {
		return t
	}
	return c.table.For(g)
}

// recipients computes a multicast's delivery set honoring migrated groups,
// each group's members read from whichever table holds its state. One
// group's set is that table's cached list; a union of several is built in
// the core's scratch. Either is valid only until the next emission.
func (c *Core) recipients(ring int, groups []string) []group.ClientID {
	if len(groups) == 1 {
		return c.tableFor(ring, groups[0]).Recipients(groups)
	}
	u := c.union[:0]
	for i, g := range groups {
		u = append(u, c.tableFor(ring, g).Recipients(groups[i:i+1])...)
	}
	c.union = group.SortClients(u)
	return c.union
}

// mergeOut is the Core seen as the merger's output: its methods run at
// globally ordered emission points with the merger's lock held.
type mergeOut Core

func (o *mergeOut) Deliver(ring int, env *group.Envelope, svc evs.Service, seq uint64) {
	c := (*Core)(o)
	switch env.Kind {
	case group.OpJoin, group.OpLeave:
		g := env.Groups[0]
		t := c.tableFor(ring, g)
		apply := t.Join
		if env.Kind == group.OpLeave {
			apply = t.Leave
		}
		if err := apply(env.Sender, g); err != nil {
			c.sink.Rejected(env.Sender, env.Kind, err)
			return
		}
		c.sink.View(g, t.Members(g), env.Sender)
	case group.OpDisconnect:
		// One disconnect is ordered (on ring 0) and applied to every
		// partition at its single emission point: per-ring copies could
		// race a migration close and resurrect the client on the ring its
		// groups just left.
		for r := 0; r < c.shards; r++ {
			t := c.table.Table(r)
			for _, g := range t.Disconnect(env.Sender) {
				c.sink.View(g, t.Members(g), env.Sender)
			}
		}
	case group.OpMessage:
		c.sink.Message(ring, env, svc, seq, c.recipients(ring, env.Groups))
	case group.OpPrivate:
		c.one[0] = env.Target
		c.sink.Message(ring, env, svc, seq, c.one[:])
	case group.OpPrivateReject:
		// The target's host daemon reported the target gone; Target
		// carries the original sender to notify.
		c.sink.Rejected(env.Target, env.Kind, ErrNoRecipient)
	}
}

// Config installs one ring's view: on a regular view, clients of daemons
// that left the ring's configuration are dropped from that ring's
// partition — departed daemons in ascending order, all of them before any
// announcement — and then each affected group's view is announced exactly
// once, in group-name order. Every surviving node applies the same change
// against the same state, so they all announce identical views at the same
// point of the total order.
func (o *mergeOut) Config(ring int, cc evs.ConfigChange) {
	c := (*Core)(o)
	c.sink.Config(ring, cc)
	if cc.Transitional {
		return
	}
	t := c.table.Table(ring)
	gone := make(map[evs.ProcID]bool)
	for _, g := range t.Groups() {
		for _, m := range t.Members(g) {
			gone[m.Daemon] = true
		}
	}
	for _, p := range cc.Config.Members {
		delete(gone, p)
	}
	departed := make([]evs.ProcID, 0, len(gone))
	for p := range gone {
		departed = append(departed, p)
	}
	sort.Slice(departed, func(i, j int) bool { return departed[i] < departed[j] })
	affected := make(map[string]bool)
	for _, p := range departed {
		for _, g := range t.DropDaemon(p) {
			affected[g] = true
		}
	}
	names := make([]string, 0, len(affected))
	for g := range affected {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		c.sink.View(g, t.Members(g), group.ClientID{})
	}
}

// SubmitAsync orders a merge-control envelope right at its emission point,
// behind this node's earlier submissions to the ring. A refusal is dropped:
// the merger re-claims skips and re-announces acks and frontiers at
// configuration changes.
func (o *mergeOut) SubmitAsync(ring int, env group.Envelope) {
	_ = (*Core)(o).Submit(ring, &env, evs.Agreed)
}

func (o *mergeOut) Migrated(g string, from, to int) {
	(*Core)(o).sink.Migrated(g, from, to)
}
