// Package merge gives a sharded deployment back the paper's single total
// order: a deterministic merger that consumes the per-ring Agreed/Safe
// delivery streams of a node's rings (groupcore.Host) and emits ONE
// globally ordered stream, the way "Stretching Multi-Ring Paxos" merges
// independent Paxos rings.
//
// # Merge order
//
// Every slotted item on ring r — group envelopes and configuration
// changes — consumes the ring's next virtual slot (front[r]+1). The
// global order is the ascending lexicographic (slot, ring) order over all
// slotted items, which the merger emits greedily: the queued head with
// the least (slot, ring) is emitted as soon as every other ring is known
// to have passed it. Because slots are assigned per ring purely from that
// ring's ordered stream contents, and every daemon sees identical
// per-ring streams, every daemon emits the identical global sequence —
// no clocks, no cross-daemon coordination.
//
// An idle ring would stall the merge (its next slot stays forever
// pending), so the moment a member's merge blocks on an idle ring it
// orders a skip claim there — Multi-Ring Paxos skip instances, paced by
// the busy ring's own deliveries rather than by a timer. A skip is ordered
// on its ring like any message but consumes no slot: it raises the ring's
// virtual frontier to its Arg (max-merged, so duplicate or stale skips are
// harmless), telling the merge "this ring will order nothing below Arg".
// Claims reach DefaultSkipAhead slots past the blocked head so a quiet ring
// does not need one skip per foreign message, and any blocked member of
// the idle ring may claim (blockedness is per-daemon after a partition, so
// a designated claimer could deadlock). At every regular configuration
// change each member announces its frontier with an OpFrontier anchored
// to the change itself (receivers apply Arg plus the slots they consumed
// since that change), which re-levels the frontiers of members that
// diverged while partitioned EXACTLY within one announcement round, even
// with traffic in flight.
//
// # What is globally ordered, what is per-ring
//
// Group envelopes and each ring's configuration changes are all slotted,
// so every daemon interleaves deliveries AND view changes identically in
// the healthy case. A configuration change still only affects its own
// ring's partition of the group table, and ViewChange.Ring still names
// the ring whose membership moved. During a partition the per-ring
// streams themselves diverge between components (extended virtual
// synchrony); each component's merge stays internally consistent, and the
// frontier announcements after the healing configuration change bring
// all members back to one sequence.
//
// # Live migration
//
// Migrate re-homes a group from ring A to ring B with no loss,
// duplication, or reordering:
//
//  1. An OpMigrateBegin for the group is submitted on A. At its ordered
//     emission every daemon flips the group's route to B (new sends go
//     to B) and starts buffering the group's B-traffic at emission time;
//     every member of A's configuration submits an OpMigrateAck on A.
//     Because a daemon's submissions to a ring are FIFO, its ack orders
//     after all of its pre-flip traffic for the group — the acks drain A.
//  2. When the emitted acks cover A's (possibly shrunken — a member that
//     leaves A's configuration is waived at the config change's emission)
//     required set, the migration closes AT that emission: a globally
//     ordered handoff point. The group's membership state is re-homed to
//     B's table and the buffered B-traffic is replayed into the global
//     stream right there, in its B-emission order.
//
// Every step happens at an emission point of the deterministic global
// sequence, so all daemons close the migration at the same place and
// deliver the same order. Traffic that races the route flip (a sender
// that looked up ring A just before Begin emitted elsewhere) still
// arrives on A and is delivered through the route-aware table lookup —
// never lost, though such a racing message may order after messages its
// sender submitted to B later (a one-message FIFO caveat documented in
// DESIGN §7).
package merge

import (
	"fmt"
	"sort"
	"sync"

	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/obs"
)

// DefaultSkipAhead is how many slots past the blocked head a skip claims.
// Larger values cut skip traffic on quiet rings at the cost of letting a
// quiet ring's next real message order later relative to busy rings.
const DefaultSkipAhead = 32

// Out receives the merger's globally ordered output. All methods are
// invoked with the merger's lock held, serialized in global order, from
// whichever ring goroutine's push completed the emission — implementations
// must not call back into the merger synchronously and must not block.
type Out interface {
	// Deliver hands over the next globally ordered envelope (never a
	// merge-control kind). Ring is the ring the envelope was ordered on;
	// seq is the carrier message's ring sequence number (0 when the
	// pusher had none), which latency attribution uses to stamp the
	// merge stage onto sampled spans. env points into the merger's queue:
	// it is valid only for the duration of the call, and its Groups list
	// may be shared with other envelopes, so neither may be kept or
	// modified (copy what outlives the call).
	Deliver(ring int, env *group.Envelope, svc evs.Service, seq uint64)
	// Config hands over a ring's configuration change at its globally
	// ordered position.
	Config(ring int, cc evs.ConfigChange)
	// SubmitAsync submits a merge-control envelope (skip claim, ack,
	// frontier announcement) to a ring at the emission point, so it must
	// not block: implementations queue. A refusal may be dropped — the
	// merger re-claims and re-announces at the ring's next configuration
	// change.
	SubmitAsync(ring int, env group.Envelope)
	// Migrated reports a migration that closed at the current emission
	// point, after the group's state moved rings.
	Migrated(g string, from, to int)
}

// Config parameterizes a Merger.
type Config struct {
	Shards int
	Self   evs.ProcID
	Table  *group.ShardedTable
	Out    Out
	// Obs registers merge.* metrics when non-nil.
	Obs *obs.Registry
}

// item is one slotted entry of a ring's pending queue. The envelope is
// held by value, so queueing one allocates nothing once the queue's
// backing array has grown; its Payload aliases the carrier message's
// frame, which the ring recycles only past HeldFrom.
type item struct {
	slot uint64
	env  group.Envelope // Kind 0 for a configuration change
	svc  evs.Service
	cc   evs.ConfigChange
	// cfg and seq are the carrier message's delivery position on its
	// ring — its configuration's ViewID.Seq and its sequence number (0
	// when unknown); seq also goes to Out.Deliver for latency
	// attribution.
	cfg, seq uint64
}

// ringState is the merger's per-ring cursor state.
type ringState struct {
	// front is the highest virtual slot consumed on the ring, by slotted
	// items and skip claims alike. The ring will order nothing at or
	// below it, which is what lets other rings' items pass.
	front uint64
	// sinceReg counts the slots consumed since the last regular
	// configuration change was slotted on the ring. It anchors frontier
	// announcements: an OpFrontier's Arg names the announcer's front just
	// after slotting that change, so the receiver's equivalent value at
	// the announcement's ordered position is Arg + sinceReg.
	sinceReg uint64
	// queue[head:] holds slotted items not yet emitted, in stream order
	// with strictly increasing slots. The backing array is kept across
	// drains, so a push that emits immediately allocates nothing.
	queue []item
	head  int
	// cfg is the ring's last regular configuration, applied at its
	// emission point so membership-derived merge state stays on the
	// deterministic timeline.
	cfg     evs.Configuration
	haveCfg bool
	// pendingSkipTarget is the Arg of this daemon's skip claim in flight
	// on the ring (0: none). It suppresses duplicate claims until a skip
	// or frontier raises front, or the ring slots a configuration change.
	pendingSkipTarget uint64
}

// pending returns the number of queued, unemitted items.
func (r *ringState) pending() int { return len(r.queue) - r.head }

// push appends a slotted item, sliding the live tail to the front of the
// backing array first when that avoids growing it.
func (r *ringState) push(it item) {
	if r.head > 0 && len(r.queue) == cap(r.queue) {
		n := copy(r.queue, r.queue[r.head:])
		clear(r.queue[n:])
		r.queue, r.head = r.queue[:n], 0
	}
	r.queue = append(r.queue, it)
}

// pop removes the queue's head, once its emission has returned.
func (r *ringState) pop() {
	r.queue[r.head] = item{} // drop the envelope's references
	if r.head++; r.head == len(r.queue) {
		r.queue, r.head = r.queue[:0], 0
	}
}

// migration is the per-group state machine between Begin and close.
type migration struct {
	group    string
	from, to int
	epoch    uint64
	// beginID is the accepted Begin's unique sender identity; acks echo
	// it in their Target field, which is what ties an ack to THIS
	// migration instance. Matching on the globally ordered Begin's bytes
	// (rather than a locally counted epoch) keeps members whose migration
	// histories diverged across a partition able to close one migration
	// together.
	beginID  group.ClientID
	required map[evs.ProcID]bool
	acked    map[evs.ProcID]bool
	// buffered holds the diverted target-ring envelopes, in emission order.
	buffered []item
}

// Merger merges per-ring ordered streams into one global sequence. Push
// methods are safe to call concurrently from each ring's protocol
// goroutine; emission happens inline under the merger's lock in whichever
// push completes an emission.
type Merger struct {
	cfg Config

	mu       sync.Mutex
	rings    []ringState
	migs     map[string]*migration // active migrations by group
	migEpoch map[string]uint64     // accepted Begin count by group
	notify   map[string][]chan struct{}
	// ctlSeq makes every control envelope this merger originates
	// byte-unique (as Sender.Local), so retried or re-announced skips and
	// acks are never mistaken for duplicate deliveries of one message.
	ctlSeq uint32

	emitted    *obs.Counter
	skipsRx    *obs.Counter
	migStarted *obs.Counter
	migClosed  *obs.Counter
	pending    *obs.Gauge
	bufferedG  *obs.Gauge
	migrating  *obs.Gauge
	// frontG publishes each ring's virtual frontier as a gauge
	// (shardN.merge.frontier); the health detector compares them across
	// passes to flag a ring whose frontier stopped while peers advance.
	frontG []*obs.Gauge
}

// New builds a Merger for cfg.Shards >= 1 rings. One ring is the
// degenerate merge: every item emits at its own push, nothing ever blocks,
// and no skip or frontier traffic exists.
func New(cfg Config) *Merger {
	frontG := make([]*obs.Gauge, cfg.Shards)
	for ri := range frontG {
		name := "merge.frontier" // one ring: unlabelled, like its other series
		if cfg.Shards > 1 {
			name = fmt.Sprintf("shard%d.merge.frontier", ri)
		}
		frontG[ri] = cfg.Obs.Gauge(name)
	}
	return &Merger{
		cfg:        cfg,
		rings:      make([]ringState, cfg.Shards),
		migs:       make(map[string]*migration),
		migEpoch:   make(map[string]uint64),
		notify:     make(map[string][]chan struct{}),
		emitted:    cfg.Obs.Counter("merge.emitted"),
		skipsRx:    cfg.Obs.Counter("merge.skips_applied"),
		migStarted: cfg.Obs.Counter("merge.migrations_started"),
		migClosed:  cfg.Obs.Counter("merge.migrations_closed"),
		pending:    cfg.Obs.Gauge("merge.pending"),
		bufferedG:  cfg.Obs.Gauge("merge.buffered"),
		migrating:  cfg.Obs.Gauge("merge.migrating"),
		frontG:     frontG,
	}
}

// PushEnvelope feeds one decoded envelope from ring's ordered stream. The
// merger queues a copy of *env, not the pointer; the slices it references
// (Groups, Payload) must stay unmodified until the envelope is emitted.
// Envelopes fed this way carry no ring seq for tracing; drivers that
// know the carrier message's sequence number use PushEnvelopeSeq.
func (m *Merger) PushEnvelope(ring int, env *group.Envelope, svc evs.Service) {
	m.PushEnvelopeSeq(ring, env, svc, 0)
}

// PushEnvelopeSeq is PushEnvelope carrying the envelope's ring sequence
// number, which travels with the item to Out.Deliver so sampled spans
// can be stamped with their merge emission.
func (m *Merger) PushEnvelopeSeq(ring int, env *group.Envelope, svc evs.Service, seq uint64) {
	m.PushEnvelopeAt(ring, env, svc, 0, seq)
}

// PushEnvelopeAt is PushEnvelopeSeq for an envelope decoded from the
// payload of ring's message at delivery position (cfg, seq) — its
// configuration's ViewID.Seq and its sequence number — without a copy: the
// merger reads the payload until the envelope has been emitted (or, for a
// migrating group, replayed), and HeldFrom tells the ring so.
func (m *Merger) PushEnvelopeAt(ring int, env *group.Envelope, svc evs.Service, cfg, seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &m.rings[ring]
	switch env.Kind {
	case group.OpSkip:
		// A skip consumes no slot: it only raises the frontier, letting
		// other rings' items pass an idle ring.
		if env.Arg > r.front {
			r.front = env.Arg
			r.pendingSkipTarget = 0
			m.skipsRx.Inc()
			m.frontG[ring].Set(int64(r.front))
		}
		m.drain()
		return
	case group.OpFrontier:
		// A frontier announcement is a skip anchored to the last regular
		// configuration change: the announcer's front just after slotting
		// it, translated to our numbering by adding the slots we consumed
		// since. Every member computes the same sinceReg at the same
		// stream position, so after a partition one announcement round
		// re-levels diverged frontiers EXACTLY even while traffic keeps
		// ordering concurrently — an absolute claim would under-level by
		// the in-flight slot count and leave a permanent skew.
		if v := env.Arg + r.sinceReg; v > r.front {
			r.front = v
			r.pendingSkipTarget = 0
			m.skipsRx.Inc()
			m.frontG[ring].Set(int64(r.front))
		}
		m.drain()
		return
	}
	r.front++
	r.sinceReg++
	m.frontG[ring].Set(int64(r.front))
	r.push(item{slot: r.front, env: *env, svc: svc, cfg: cfg, seq: seq})
	m.drain()
}

// PushConfig feeds one configuration change from ring's ordered stream.
// Config changes are slotted like envelopes, so view changes interleave
// with deliveries identically at every daemon.
func (m *Merger) PushConfig(ring int, cc evs.ConfigChange) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &m.rings[ring]
	r.front++
	m.frontG[ring].Set(int64(r.front))
	r.push(item{slot: r.front, cc: cc})
	// A claim the ring refused while it was not operational was dropped,
	// and such a ring slots a change before it orders anything: re-arm.
	r.pendingSkipTarget = 0
	// Announce our frontier at every regular change, immediately at push:
	// members whose virtual slot counters diverged while partitioned
	// re-level back to one value. Announcing at the change's EMISSION
	// would be too late — divergent frontiers can block each other's
	// config changes from ever emitting, which is a merge-wide deadlock.
	// The announcement is anchored to this change (sinceReg resets here),
	// so receivers apply it relative to the same stream position.
	if cc.Transitional {
		r.sinceReg++
	} else {
		r.sinceReg = 0
		// With one ring there is no other frontier to re-level against.
		if len(m.rings) > 1 && contains(cc.Config.Members, m.cfg.Self) {
			m.cfg.Out.SubmitAsync(ring, group.Envelope{
				Kind:   group.OpFrontier,
				Sender: m.ctlSender(),
				Arg:    r.front,
			})
		}
	}
	m.drain()
}

func contains(members []evs.ProcID, p evs.ProcID) bool {
	for _, m := range members {
		if m == p {
			return true
		}
	}
	return false
}

// drain emits every queued item that has become safe, in ascending
// (slot, ring) order. Called with m.mu held.
func (m *Merger) drain() {
	for {
		best, bs := m.head()
		if best < 0 {
			m.updatePending()
			return
		}
		// The head is emittable only if every idle ring's next possible
		// slot lies beyond it in (slot, ring) order; claim past it on every
		// ring that is not.
		blocked := false
		for qi := range m.rings {
			if m.blocks(qi, best, bs) {
				m.claimSkip(qi, bs)
				blocked = true
			}
		}
		if blocked {
			m.updatePending()
			return
		}
		// Emit straight from the queue slot: a push takes m.mu, which is
		// held here, so no emission can reenter one and move the slot
		// before pop.
		r := &m.rings[best]
		it := &r.queue[r.head]
		m.emitted.Inc()
		if it.env.Kind != 0 {
			m.emitEnvelope(best, it)
		} else {
			m.emitConfig(best, it.cc)
		}
		r.pop()
	}
}

// head returns the ring whose queued head has the least (slot, ring), and
// that slot; ring -1 when nothing is queued. Called with m.mu held.
func (m *Merger) head() (best int, slot uint64) {
	best = -1
	for ri := range m.rings {
		r := &m.rings[ri]
		if r.pending() == 0 {
			continue
		}
		if s := r.queue[r.head].slot; best < 0 || s < slot {
			best, slot = ri, s
		}
	}
	return best, slot
}

// blocks reports whether idle ring qi could still order something before
// the head (best, slot). Called with m.mu held.
func (m *Merger) blocks(qi, best int, slot uint64) bool {
	if qi == best || m.rings[qi].pending() > 0 {
		return false
	}
	lb := m.rings[qi].front + 1
	return lb < slot || (lb == slot && qi < best)
}

// claimSkip orders a skip on idle ring qi reaching DefaultSkipAhead slots
// past the blocked head slot bs, unless this daemon cannot order on qi
// (it is not in the ring's configuration) or its own claim covering bs is
// already in flight. Claims max-merge, so concurrent claimers are
// harmless. Called with m.mu held.
func (m *Merger) claimSkip(qi int, bs uint64) {
	r := &m.rings[qi]
	if r.pendingSkipTarget >= bs || !r.haveCfg || !contains(r.cfg.Members, m.cfg.Self) {
		return
	}
	r.pendingSkipTarget = bs + DefaultSkipAhead
	m.cfg.Out.SubmitAsync(qi, group.Envelope{
		Kind:   group.OpSkip,
		Sender: m.ctlSender(),
		Arg:    r.pendingSkipTarget,
	})
}

// queued is the total unemitted item count. Called with m.mu held.
func (m *Merger) queued() int {
	n := 0
	for ri := range m.rings {
		n += m.rings[ri].pending()
	}
	return n
}

func (m *Merger) updatePending() { m.pending.Set(int64(m.queued())) }

// emitEnvelope processes one envelope at its global emission point: the
// migration state machine runs here, everything else goes to Out.Deliver.
// Also the replay path for buffered migration traffic, which is why a
// diverted envelope re-enters this function at close.
func (m *Merger) emitEnvelope(ring int, it *item) {
	env, svc, seq := &it.env, it.svc, it.seq
	switch env.Kind {
	case group.OpMigrateAck:
		g := env.Groups[0]
		mig := m.migs[g]
		if mig == nil || mig.from != ring || env.Target != mig.beginID {
			return // stale or misrouted ack (Target names the Begin it answers)
		}
		mig.acked[env.Sender.Daemon] = true
		m.closeEval(mig)
		return
	case group.OpSkip, group.OpFrontier:
		return // never queued; defensive
	}
	// Divert traffic for a migrating group arriving on its target ring:
	// it must not apply before the ordered handoff point. This includes
	// a chained OpMigrateBegin, which then starts at replay.
	if len(m.migs) > 0 {
		for _, g := range env.Groups {
			if mig := m.migs[g]; mig != nil && mig.to == ring {
				mig.buffered = append(mig.buffered, *it)
				m.bufferedG.Add(1)
				return
			}
		}
	}
	if env.Kind == group.OpMigrateBegin {
		m.beginMigration(ring, env)
		return
	}
	m.cfg.Out.Deliver(ring, env, svc, seq)
}

// beginMigration validates and starts a migration at the Begin's ordered
// emission. Invalid Begins (wrong ring, out-of-range target, group
// already migrating) are ignored identically everywhere.
//
// A Begin that straddled a partition left the components disagreeing: the
// one that ordered it re-homed the group; the other never saw it. The
// remedy is re-issuing the Migrate on the group's old ring, which two
// acceptance rules beyond the normal flow make convergent:
//
//   - Our route may ALREADY point at the target — we closed the original
//     Begin. We JOIN the new drain (flip and re-home are no-ops) so the
//     ring-wide required set can close and every member leaves with one
//     agreed route.
//   - We may still have the original migration OPEN — our required set
//     included members that never saw the original Begin and so will
//     never ack it. The re-issued Begin for the same move SUPERSEDES it:
//     we adopt the new Begin's identity and the current ring
//     configuration as the required set, keep our buffered traffic (it
//     replays at the new close point), and close together with everyone
//     else. A Begin for a DIFFERENT move stays ignored while one is open.
func (m *Merger) beginMigration(ring int, env *group.Envelope) {
	g := env.Groups[0]
	to := int(env.Arg)
	if to < 0 || to >= m.cfg.Shards || to == ring {
		return
	}
	if route := m.cfg.Table.Ring(g); route != ring && route != to {
		return
	}
	mig := m.migs[g]
	if mig != nil {
		if mig.from != ring || mig.to != to {
			return
		}
	} else {
		mig = &migration{group: g, from: ring, to: to}
		m.migs[g] = mig
		m.migStarted.Inc()
		m.migrating.Set(int64(len(m.migs)))
	}
	m.migEpoch[g]++
	mig.epoch = m.migEpoch[g]
	mig.beginID = env.Sender
	mig.required = make(map[evs.ProcID]bool)
	mig.acked = make(map[evs.ProcID]bool)
	if m.rings[ring].haveCfg {
		for _, p := range m.rings[ring].cfg.Members {
			mig.required[p] = true
		}
	}
	// New submissions for g head to the target ring from here on; they
	// are buffered at emission until the close point.
	m.cfg.Table.SetRoute(g, to)
	// Drain the source ring: our ack follows everything we submitted to
	// it before the flip.
	if mig.required[m.cfg.Self] {
		m.cfg.Out.SubmitAsync(ring, group.Envelope{
			Kind:   group.OpMigrateAck,
			Sender: m.ctlSender(),
			Target: mig.beginID,
			Groups: []string{g},
			Arg:    mig.epoch,
		})
	}
	// A degenerate empty configuration closes immediately.
	m.closeEval(mig)
}

// closeEval closes the migration at the current emission point once the
// required members have all acked (or been waived).
func (m *Merger) closeEval(mig *migration) {
	for p := range mig.required {
		if !mig.acked[p] {
			return
		}
	}
	g := mig.group
	delete(m.migs, g)
	m.migrating.Set(int64(len(m.migs)))
	m.migClosed.Inc()
	// Members whose daemon already left the target ring's configuration
	// must not be carried over: the target ring's config change that
	// dropped them has already applied to the target table, and re-homing
	// them would resurrect ghosts no future change removes.
	if m.rings[mig.to].haveCfg {
		alive := make(map[evs.ProcID]bool, len(m.rings[mig.to].cfg.Members))
		for _, p := range m.rings[mig.to].cfg.Members {
			alive[p] = true
		}
		src := m.cfg.Table.Table(mig.from)
		for _, c := range src.Members(g) {
			if !alive[c.Daemon] {
				_ = src.Leave(c, g)
			}
		}
	}
	m.cfg.Table.Rehome(g, mig.from, mig.to)
	m.cfg.Out.Migrated(g, mig.from, mig.to)
	// Replay the buffered target-ring traffic into the global stream at
	// the close point, in its emission order. A replayed envelope runs
	// the full emission logic, so a chained Begin starts here and any
	// traffic behind it diverts into the new migration's buffer.
	buf := mig.buffered
	mig.buffered = nil
	m.bufferedG.Add(int64(-len(buf)))
	for i := range buf {
		m.emitEnvelope(mig.to, &buf[i])
	}
	for _, ch := range m.notify[g] {
		close(ch)
	}
	delete(m.notify, g)
}

// emitConfig processes a configuration change at its global emission
// point: regular configs update the merge's membership-derived state
// (claimer eligibility, migration waivers, outstanding-ack re-announce)
// before the change is handed to Out.Config.
func (m *Merger) emitConfig(ring int, cc evs.ConfigChange) {
	if !cc.Transitional {
		r := &m.rings[ring]
		r.cfg = cc.Config
		r.haveCfg = true
		present := make(map[evs.ProcID]bool, len(cc.Config.Members))
		for _, p := range cc.Config.Members {
			present[p] = true
		}
		// Waive required acks from members that left the source ring:
		// extended virtual synchrony flushed whatever they had ordered
		// before this change, so there is nothing left to drain.
		for _, mig := range m.sortedMigrations() {
			if mig.from != ring {
				continue
			}
			for p := range mig.required {
				if !present[p] {
					delete(mig.required, p)
				}
			}
			// Re-announce our own outstanding ack: the original submission
			// raced the reconfiguration this change reports and may have
			// been refused, and duplicates are idempotent at emission.
			if present[m.cfg.Self] && mig.required[m.cfg.Self] && !mig.acked[m.cfg.Self] {
				m.cfg.Out.SubmitAsync(ring, group.Envelope{
					Kind:   group.OpMigrateAck,
					Sender: m.ctlSender(),
					Target: mig.beginID,
					Groups: []string{mig.group},
					Arg:    mig.epoch,
				})
			}
			m.closeEval(mig)
		}
	}
	m.cfg.Out.Config(ring, cc)
}

// sortedMigrations returns active migrations in deterministic group-name
// order, for state transitions triggered by one emission.
func (m *Merger) sortedMigrations() []*migration {
	if len(m.migs) == 0 {
		return nil
	}
	names := make([]string, 0, len(m.migs))
	for g := range m.migs {
		names = append(names, g)
	}
	sort.Strings(names)
	out := make([]*migration, len(names))
	for i, g := range names {
		out[i] = m.migs[g]
	}
	return out
}

// ctlSender allocates the sender identity of one merger-originated
// control envelope. The Local counter only provides byte-uniqueness;
// emission logic keys on Sender.Daemon alone. Called with m.mu held.
func (m *Merger) ctlSender() group.ClientID {
	m.ctlSeq++
	return group.ClientID{Daemon: m.cfg.Self, Local: m.ctlSeq}
}

// BeginEnvelope builds the MigrateBegin envelope moving g to ring `to`,
// validating the target. The caller submits it on the group's CURRENT
// ring; a Begin that lands anywhere else (because a concurrent migration
// moved the group first) is ignored at emission.
func (m *Merger) BeginEnvelope(g string, to int) (group.Envelope, error) {
	if !group.ValidGroupName(g) {
		return group.Envelope{}, fmt.Errorf("merge: invalid group %q", g)
	}
	if to < 0 || to >= m.cfg.Shards {
		return group.Envelope{}, fmt.Errorf("merge: ring %d out of range [0, %d)", to, m.cfg.Shards)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return group.Envelope{
		Kind:   group.OpMigrateBegin,
		Sender: m.ctlSender(),
		Groups: []string{g},
		Arg:    uint64(to),
	}, nil
}

// NotifyMigrated returns a channel closed when the NEXT migration of g
// closes (immediately useful when registered before submitting a Begin).
func (m *Merger) NotifyMigrated(g string) <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan struct{})
	m.notify[g] = append(m.notify[g], ch)
	return ch
}

// Forget deregisters a NotifyMigrated channel nobody will wait on (the
// Begin it was registered for was never ordered), so it cannot linger
// until some later migration of g closes.
func (m *Merger) Forget(g string, ch <-chan struct{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	chans := m.notify[g]
	for i, c := range chans {
		if c == ch {
			m.notify[g] = append(chans[:i], chans[i+1:]...)
			break
		}
	}
	if len(m.notify[g]) == 0 {
		delete(m.notify, g)
	}
}

// Waiters returns how many NotifyMigrated channels are registered for g
// (test introspection).
func (m *Merger) Waiters(g string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.notify[g])
}

// Locked runs fn between emissions, with the merger's lock held: group
// table state read inside is one consistent cut of the global order. fn
// must not call back into the merger.
func (m *Merger) Locked(fn func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fn()
}

// Migrating reports whether g has a migration in flight.
func (m *Merger) Migrating(g string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.migs[g] != nil
}

// Pending returns the total queued-but-unemitted item count (test and
// debug introspection).
func (m *Merger) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued()
}

// HeldFrom returns the delivery position (cfg, seq) of the oldest message
// of ring whose payload the merger still reads — the first envelope
// queued, or buffered by a migration into ring — with ok false when it
// reads none. A ring's messages are pushed in delivery order and leave the
// queue in it, so every payload before that position is free (see
// ringnode.Holder).
func (m *Merger) HeldFrom(ring int) (cfg, seq uint64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &m.rings[ring]
	for i := r.head; i < len(r.queue); i++ {
		if it := &r.queue[i]; it.env.Kind != 0 {
			cfg, seq, ok = it.cfg, it.seq, true
			break
		}
	}
	for _, mig := range m.migs {
		if mig.to != ring || len(mig.buffered) == 0 {
			continue
		}
		if b := &mig.buffered[0]; !ok || b.cfg < cfg || b.cfg == cfg && b.seq < seq {
			cfg, seq, ok = b.cfg, b.seq, true
		}
	}
	return cfg, seq, ok
}

// Frontier returns ring's virtual frontier (test introspection).
func (m *Merger) Frontier(ring int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rings[ring].front
}
