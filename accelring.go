package accelring

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/groupcore"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
)

// Event is a delivery to the application: a *Message, a *GroupView, or a
// *ViewChange. Events arrive in the ring's total order.
type Event interface{ isEvent() }

// Message is a totally ordered group message.
type Message struct {
	// Sender is the node that sent the message.
	Sender ClientID
	// Service is the delivery level it was sent with.
	Service Service
	// Groups are the destination groups.
	Groups []string
	// Payload is the application data.
	Payload []byte
}

func (*Message) isEvent() {}

// GroupView is a group's agreed membership after a join or leave, or after
// a ring membership change removed nodes. Every surviving member receives
// identical views at the same point in the total order.
type GroupView struct {
	Group   string
	Members []ClientID
}

func (*GroupView) isEvent() {}

// ViewChange announces a new ring configuration. A transitional view
// contains the members of the previous ring that continue together;
// messages delivered between it and the next regular view carry
// guarantees only with respect to that reduced set (extended virtual
// synchrony). On a sharded node each ring instance has its own
// configuration lifecycle; Ring says which one changed (always 0
// without WithShards).
type ViewChange struct {
	Ring         int
	View         ViewID
	Members      []ProcID
	Transitional bool
}

func (*ViewChange) isEvent() {}

// Node is one ring participant with a single group-messaging endpoint. It
// embeds the daemon role: the protocol stack runs in-process, and the
// node is its own (only) client. With WithShards(n) it runs n independent
// ring instances and partitions groups across them (see Config.Shards).
type Node struct {
	cfg    Config
	flight *Recorder
	self   ClientID
	events chan Event

	// host runs the rings and the core that turns their ordered streams
	// into one globally ordered event stream (internal/groupcore; one ring
	// is its N = 1 case), delivered to nodeSink; core is host.Core().
	host *groupcore.Host
	core *groupcore.Core

	// ready is closed once every ring has installed its first regular
	// configuration, done by Close.
	ready, done chan struct{}

	mu        sync.Mutex
	lastViews []ViewID
	unready   int // rings yet to install their first regular configuration

	failed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// Open starts a node from the given options. The returned node is already
// running membership: it forms a singleton ring or merges with reachable
// peers on its own. Use WaitReady to block until the first ring forms; the
// submission methods return ErrNotReady before that. ctx only bounds the
// setup itself (it is checked before sockets are opened); cancelling it
// afterwards has no effect — use Close.
func Open(ctx context.Context, opts ...Option) (*Node, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return OpenConfig(ctx, cfg)
}

// OpenConfig is Open with an explicit Config.
func OpenConfig(ctx context.Context, cfg Config) (*Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	n := &Node{
		cfg:       cfg,
		self:      ClientID{Daemon: cfg.Self, Local: 1},
		events:    make(chan Event, cfg.EventBuffer),
		ready:     make(chan struct{}),
		done:      make(chan struct{}),
		lastViews: make([]ViewID, cfg.Shards),
		unready:   cfg.Shards,
	}
	ring, open, flight := cfg.Stack()
	host, err := groupcore.Start(groupcore.HostConfig{
		Shards: cfg.Shards, Ring: ring, NewTransport: open, Sink: nodeSink{n}, Obs: cfg.Observer,
	})
	if err != nil {
		return nil, err
	}
	n.host, n.core, n.flight = host, host.Core(), flight
	return n, nil
}

// ID returns this node's group-messaging endpoint identity, as it appears
// in GroupView member lists on every node.
func (n *Node) ID() ClientID { return n.self }

// Events returns the delivery stream. The channel is closed by Close or
// on terminal failure; Err explains why.
func (n *Node) Events() <-chan Event { return n.events }

// Receive returns the next event, blocking until one arrives, the context
// is done, or the node closes (ErrClosed; see Err for the cause).
func (n *Node) Receive(ctx context.Context) (Event, error) {
	select {
	case ev, ok := <-n.events:
		if !ok {
			return nil, ErrClosed
		}
		return ev, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// WaitReady blocks until every ring has installed its first regular
// configuration (after which Join/Leave/Send work), the node closes
// (ErrClosed), or the context is done. A closed node reports ErrClosed even
// if it was ready.
func (n *Node) WaitReady(ctx context.Context) error {
	select {
	case <-n.ready:
	case <-n.done:
	case <-ctx.Done():
	}
	select {
	case <-n.done:
		return ErrClosed
	default:
	}
	select {
	case <-n.ready:
		return nil
	default:
		return ctx.Err()
	}
}

// View returns the current ring view (zero before the first ring forms).
// On a sharded node it is ring 0's view; see ViewOf.
func (n *Node) View() ViewID { return n.ViewOf(0) }

// ViewOf returns ring's current view: zero before that ring forms, and for
// a ring index this node does not run (outside [0, Shards())).
func (n *Node) ViewOf(ring int) ViewID {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ring < 0 || ring >= len(n.lastViews) {
		return ViewID{}
	}
	return n.lastViews[ring]
}

// Shards returns the node's ring-instance count (1 without WithShards).
func (n *Node) Shards() int { return n.cfg.Shards }

// RingFor returns the ring instance that owns a group name on this node.
func (n *Node) RingFor(groupName string) int { return RingOf(groupName, n.cfg.Shards) }

// Members returns the agreed membership of a group as of the events
// processed so far (nil if empty or unknown).
func (n *Node) Members(groupName string) []ClientID { return n.core.Members(groupName) }

// Groups returns the groups this node has joined.
func (n *Node) Groups() []string { return n.core.GroupsOf(n.self) }

// Recorder returns the node's black-box recorder — token visits, state
// transitions, retransmission traffic and deliveries of every ring, each
// event labelled with its ring — for DebugServer.Add, which serves it at
// /debug/ring and /debug/flight (nil unless the node was opened with
// WithObserver).
func (n *Node) Recorder() *Recorder { return n.flight }

// MsgTracer returns the node's message-lifecycle tracer for
// DebugServer.Add, which serves it at /debug/msgtrace (nil unless the node
// was opened with WithTraceSampling). On a sharded node it is ring 0's
// tracer; see MsgTracers.
func (n *Node) MsgTracer() *MsgTracer { return n.msgTracer(0) }

func (n *Node) msgTracer(r int) *MsgTracer { return n.host.RingNode(r).Observer().MsgTracer() }

// MsgTracers returns one message-lifecycle tracer per ring instance (nil
// unless the node was opened with WithTraceSampling).
func (n *Node) MsgTracers() []*MsgTracer {
	if n.MsgTracer() == nil {
		return nil
	}
	out := make([]*MsgTracer, n.cfg.Shards)
	for r := range out {
		out[r] = n.msgTracer(r)
	}
	return out
}

// AttachLatency registers every ring's message tracer with agg under the
// metric scope that ring's histograms use ("" on a single-ring node,
// "shard0".."shardN-1" on a sharded one), so folded span deltas land next
// to the ring's other metrics. No-op unless the node was opened with
// WithObserver and WithTraceSampling.
func (n *Node) AttachLatency(agg *LatencyAgg) {
	for r, mt := range n.MsgTracers() {
		agg.AddTracer(n.host.RingNode(r).Observer().Label, mt)
	}
}

// Join adds this node to a group. The resulting agreed view arrives as a
// *GroupView event, in total order with all traffic on the group's ring.
func (n *Node) Join(groupName string) error {
	if !group.ValidGroupName(groupName) {
		return ErrBadGroup
	}
	return n.submit(n.RingFor(groupName), &group.Envelope{
		Kind: group.OpJoin, Sender: n.self, Groups: []string{groupName},
	}, Agreed)
}

// Leave removes this node from a group it previously joined. Leaving a
// group this node is not in fails with ErrNotMember.
func (n *Node) Leave(groupName string) error {
	if !group.ValidGroupName(groupName) {
		return ErrBadGroup
	}
	if !memberOf(n.core.Members(groupName), n.self) {
		return ErrNotMember
	}
	return n.submit(n.RingFor(groupName), &group.Envelope{
		Kind: group.OpLeave, Sender: n.self, Groups: []string{groupName},
	}, Agreed)
}

// Send multicasts payload to the members of the given groups with the
// given service level. The sender need not be a member (open-group
// semantics); if it is, it receives its own message in order like
// everyone else. Every destination group delivers the message at one
// agreed position in its own total order; on a sharded node a send
// spanning groups owned by different rings becomes one independent
// ordered message per ring, so only groups on the same ring share a
// cross-group delivery order. On an error after the first ring accepted,
// the rings that accepted still deliver.
func (n *Node) Send(service Service, payload []byte, groups ...string) error {
	if len(groups) == 0 || len(groups) > group.MaxGroups {
		return ErrBadGroupCount
	}
	for _, g := range groups {
		if !group.ValidGroupName(g) {
			return ErrBadGroup
		}
	}
	if !service.Valid() {
		return ErrInvalidService
	}
	// Ascending ring order keeps spanning sends deterministic across
	// identical runs; the merge layer gives the per-ring copies one
	// global delivery order.
	for _, rg := range n.core.SplitByRing(groups, nil) {
		err := n.submit(rg.Ring, &group.Envelope{
			Kind: group.OpMessage, Sender: n.self, Groups: rg.Groups, Payload: payload,
		}, service)
		if err != nil {
			return err
		}
	}
	return nil
}

// submit hands the envelope to the owning ring through the core.
func (n *Node) submit(ring int, env *group.Envelope, svc Service) error {
	return n.ringCall(func() error { return n.core.Submit(ring, env, svc) })
}

// ringCall runs an operation that orders something on a ring, translating
// the driver's errors into the public sentinels. Rings never block a
// submitter, so a caller that outruns them first waits in Host.Paced.
func (n *Node) ringCall(op func() error) error {
	select {
	case <-n.done:
		return ErrClosed
	default:
	}
	n.host.Paced()
	err := op()
	switch {
	case errors.Is(err, ringnode.ErrStopped):
		return ErrClosed
	case errors.Is(err, membership.ErrNotOperational):
		return ErrNotReady // a formed ring never refuses again
	default:
		return err
	}
}

// Err returns the terminal error after the event stream is closed (nil on
// clean Close, ErrSlowConsumer if the consumer fell behind).
func (n *Node) Err() error {
	select {
	case <-n.done:
	default:
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closeErr
}

// Close stops the protocol, closes the transport, and closes Events. It
// is idempotent and safe from any goroutine.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.done)
		// Stop waits for every protocol goroutine to exit, so no event
		// callback can race the channel close below.
		n.host.Stop()
		close(n.events)
	})
	return nil
}

// fail records a terminal error and tears the node down asynchronously
// (it runs on the protocol goroutine, which Close must wait for).
func (n *Node) fail(err error) {
	if n.failed.Swap(true) {
		return
	}
	n.mu.Lock()
	n.closeErr = err
	n.mu.Unlock()
	go n.Close()
}

// emit forwards an event without ever blocking the protocol goroutine: a
// consumer that lets the buffer fill is disconnected (ErrSlowConsumer),
// the same policy Spread applies to slow daemon clients.
func (n *Node) emit(ev Event) {
	if n.failed.Load() {
		return
	}
	select {
	case n.events <- ev:
	default:
		n.fail(ErrSlowConsumer)
	}
}

// nodeSink is the Node seen as the core's ordered-event sink. Its methods
// run at globally ordered emission points with the merger's lock held, on
// whichever ring goroutine completed the emission; none of them blocks
// (emit drops on a full buffer rather than wait), so Receive observes one
// identical global order on every node.
type nodeSink struct{ n *Node }

func (k nodeSink) Message(ring int, env *group.Envelope, svc evs.Service, seq uint64, to []ClientID) {
	k.n.host.RingNode(ring).Observer().Stamp(obs.StageMergeOut, seq, 0)
	if memberOf(to, k.n.self) {
		// env.Groups may be shared with other envelopes, and the payload
		// lives in a ring frame that is reused once the message is
		// stable: the application gets its own copies.
		k.n.emit(&Message{
			Sender: env.Sender, Service: svc,
			Groups: slices.Clone(env.Groups), Payload: bytes.Clone(env.Payload),
		})
	}
}

// View emits the group's agreed view if this node is a member — or if the
// change was its own (so a leaver sees its final, self-less view, Spread's
// self-leave notification).
func (k nodeSink) View(g string, members []ClientID, cause ClientID) {
	if cause == k.n.self || memberOf(members, k.n.self) {
		k.n.emit(&GroupView{Group: g, Members: members})
	}
}

// Config announces one ring's view. The node reports ready once every
// ring has installed its first regular configuration.
func (k nodeSink) Config(ring int, e evs.ConfigChange) {
	n := k.n
	n.emit(&ViewChange{
		Ring:         ring,
		View:         e.Config.ID,
		Members:      append([]ProcID(nil), e.Config.Members...),
		Transitional: e.Transitional,
	})
	if e.Transitional {
		return
	}
	n.mu.Lock()
	if n.lastViews[ring].IsZero() {
		if n.unready--; n.unready == 0 {
			close(n.ready)
		}
	}
	n.lastViews[ring] = e.Config.ID
	n.mu.Unlock()
}

// Rejected needs no event: Leave checks membership before submitting, and
// a join the table refuses had an invalid name Join already rejects.
func (nodeSink) Rejected(ClientID, group.OpKind, error) {}

// Migrated needs no event: the re-home happened in the shared table at
// this ordered point and the group's traffic continues seamlessly.
func (nodeSink) Migrated(string, int, int) {}

// Migrate re-homes a group onto another ring instance with no loss,
// duplication, or reordering: it orders a migration marker on the group's
// current ring and blocks until the migration's globally ordered close
// point has been emitted locally (source ring drained, membership state
// re-homed, buffered target-ring traffic replayed). The move survives this
// call returning early (timeout): the protocol completes or voids
// deterministically on every node regardless.
func (n *Node) Migrate(groupName string, ring int) error {
	return n.ringCall(func() error { return n.core.Migrate(groupName, ring) })
}

// RingOfGroup reports which ring instance currently owns a group: its
// hash home (RingFor) or, after a Migrate, its override.
func (n *Node) RingOfGroup(groupName string) int { return n.core.RingOfGroup(groupName) }

func memberOf(members []ClientID, c ClientID) bool {
	for _, m := range members {
		if m == c {
			return true
		}
	}
	return false
}
