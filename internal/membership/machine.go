// Package membership implements the ring's membership algorithm in the
// style of Totem/Spread, which the paper's Accelerated Ring protocol reuses
// unchanged (§II): token-loss detection, a join/gather phase that reaches
// agreement on the set of connected participants, a two-rotation commit
// token that forms the new ring, and an Extended Virtual Synchrony recovery
// phase that exchanges old-ring messages among survivors and delivers
// transitional and regular configuration changes.
//
// The Machine is a deterministic state machine: the driver feeds it
// received frames, explicit time, and periodic ticks; it produces frames
// and delivery events through its Output. It owns the ordering engine for
// the currently installed ring and replaces it on each membership change.
package membership

import (
	"errors"
	"fmt"
	"time"

	"accelring/internal/core"
	"accelring/internal/evs"
	"accelring/internal/flowcontrol"
	"accelring/internal/obs"
	"accelring/internal/wire"
)

// State is the machine's phase.
type State int

const (
	// StateGather: broadcasting joins, collecting the connected set.
	StateGather State = iota + 1
	// StateCommit: a commit token is circulating the agreed membership.
	StateCommit
	// StateRecover: the new ring is installed; survivors are exchanging
	// old-ring messages before normal operation resumes.
	StateRecover
	// StateOperational: the ordering protocol is running normally.
	StateOperational
)

func (s State) String() string {
	switch s {
	case StateGather:
		return "gather"
	case StateCommit:
		return "commit"
	case StateRecover:
		return "recover"
	case StateOperational:
		return "operational"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Timeouts are the membership algorithm's timing parameters.
type Timeouts struct {
	// JoinInterval is how often joins are rebroadcast while gathering.
	JoinInterval time.Duration
	// Gather bounds one gather attempt before the machine forces progress
	// (extending twice, then declaring unresponsive participants failed).
	Gather time.Duration
	// Commit bounds the commit token's circulation before falling back to
	// gather.
	Commit time.Duration
	// TokenLoss is how long the operational ring may go without a token
	// before membership is rerun.
	TokenLoss time.Duration
	// TokenRetransmit is how long a participant waits before resending
	// the last token it sent (duplicates are suppressed by token seq).
	TokenRetransmit time.Duration
	// Beacon is how often an operational ring multicasts a presence
	// announcement so that foreign (partitioned or newly started) rings
	// discover each other and merge. Zero defaults to TokenLoss.
	Beacon time.Duration
}

// DefaultTimeouts returns production defaults for a LAN.
func DefaultTimeouts() Timeouts {
	return Timeouts{
		JoinInterval:    100 * time.Millisecond,
		Gather:          1 * time.Second,
		Commit:          1 * time.Second,
		TokenLoss:       1 * time.Second,
		TokenRetransmit: 250 * time.Millisecond,
	}
}

func (t *Timeouts) validate() error {
	if t.JoinInterval <= 0 || t.Gather <= 0 || t.Commit <= 0 ||
		t.TokenLoss <= 0 || t.TokenRetransmit <= 0 {
		return errors.New("membership: all timeouts must be positive")
	}
	if t.Beacon == 0 {
		t.Beacon = t.TokenLoss
	}
	if t.Beacon < 0 {
		return errors.New("membership: beacon interval must be positive")
	}
	return nil
}

// beaconAttempt marks a join frame as an operational presence beacon
// rather than a membership attempt.
const beaconAttempt = 0

// Config parameterizes a Machine.
type Config struct {
	// Self is this participant.
	Self evs.ProcID
	// Windows are the ordering protocol's flow-control parameters, used
	// for every ring the machine installs.
	Windows flowcontrol.Windows
	// Priority is the token-priority method for installed rings.
	Priority core.PriorityMethod
	// DelayedRequests selects the accelerated retransmission rule.
	DelayedRequests bool
	// Timeouts are the membership timing parameters (defaults applied
	// when zero).
	Timeouts Timeouts
	// Observer receives membership metrics (state gauge, install counts,
	// gather/recovery durations) and is handed to every installed ring's
	// ordering engine for round tracing. Nil disables observation.
	Observer *obs.RingObserver
}

// Output receives the machine's effects. Multicast frames are data-class;
// Unicast frames are token-class. Deliver and Configure together receive
// the application's event stream in EVS order: Deliver each message,
// Configure each configuration change. The two are split so a message
// reaches its consumer as an evs.Message, never boxed into an evs.Event.
//
// Frame slices are machine-owned encode scratch, valid only for the
// duration of the call: implementations must transmit or copy them before
// returning and never retain them. A delivered Message payload is valid
// until Deliver returns when the Output is also a core.Releaser: the
// machine then hands back, through Release, the received frame of every
// message its ring discards as stable and delivered, and a consumer that
// reads a payload later must make sure its frame is not reused first
// (ringnode.Step's Holder). Without Release, payloads are never reused.
type Output interface {
	Multicast(frame []byte)
	Unicast(to evs.ProcID, frame []byte)
	Deliver(msg evs.Message)
	Configure(cc evs.ConfigChange)
}

// ErrNotOperational is returned by Submit before a ring is installed.
var ErrNotOperational = errors.New("membership: no ring installed yet")

// Machine is the membership + ordering protocol for one participant.
// It is not safe for concurrent use; a single driver goroutine owns it.
type Machine struct {
	cfg Config
	out Output
	// rel is out as a core.Releaser, or nil: then received frames are
	// never handed to the engine, which keeps their payloads for good.
	rel core.Releaser

	state State
	// ring is the installed regular configuration (zero before the first).
	ring evs.Configuration
	eng  *core.Engine
	// ringSeqHigh is the highest configuration sequence seen anywhere,
	// counting from the boot clock (see New).
	ringSeqHigh uint64
	attempt     uint32

	// gather state
	joins            map[evs.ProcID]*wire.Join
	failed           idSet
	joinResendAt     time.Time
	gatherDeadline   time.Time
	gatherExtensions int
	// consensusFloor delays ring formation briefly so that slow members'
	// joins (e.g. a member still draining its data backlog) are heard
	// before a smaller ring is committed.
	consensusFloor time.Time

	// commit state
	commitDeadline time.Time
	installedRing  evs.ViewID
	ringStarted    bool

	// recovery state
	rec *recovery

	// operational timers
	lastTokenAt   time.Time
	lastRetransAt time.Time
	beaconAt      time.Time
	// prevRingID suppresses foreign-traffic triggers from frames of the
	// ring we just left.
	prevRingID evs.ViewID

	counters Counters
	// stateSince is when the current phase was entered; lastNow is the
	// most recent driver time, for transitions that happen inside
	// callbacks without a now parameter (finalizeRecovery).
	stateSince time.Time
	lastNow    time.Time

	// Hot-path scratch (the machine is single-threaded): tokScratch and
	// dataScratch are the reusable frame decoders — safe because the
	// engine treats received tokens as read-only and copies data structs —
	// and encBuf is the reusable encode buffer behind the engine's sends
	// (the Output contract forbids retaining frames).
	tokScratch  wire.Token
	dataScratch wire.Data
	encBuf      []byte
}

// Counters exposes membership activity.
type Counters struct {
	// Installs counts rings installed.
	Installs uint64
	// GatherEntries counts transitions into the gather state.
	GatherEntries uint64
	// TokenRetransmits counts token retransmissions.
	TokenRetransmits uint64
	// CommitTimeouts counts commit phases that fell back to gather.
	CommitTimeouts uint64
}

// New creates a machine. It starts in the gather state; call Tick (and
// feed frames) to drive it. now is the current time.
func New(cfg Config, out Output, now time.Time) (*Machine, error) {
	if cfg.Self == 0 {
		return nil, errors.New("membership: config requires Self")
	}
	if err := cfg.Windows.Validate(); err != nil {
		return nil, err
	}
	var zero Timeouts
	if cfg.Timeouts == zero {
		cfg.Timeouts = DefaultTimeouts()
	}
	if err := cfg.Timeouts.validate(); err != nil {
		return nil, err
	}
	if out == nil {
		return nil, errors.New("membership: nil Output")
	}
	// A process keeps no stable storage, so its ring sequence starts from
	// the boot clock: a restart under the same ProcID must never re-mint
	// a ViewID its previous incarnation already used (the incarnation
	// minted at most one per JoinInterval, far fewer than one per ms).
	m := &Machine{cfg: cfg, out: out, ringSeqHigh: uint64(now.UnixMilli())}
	m.rel, _ = out.(core.Releaser)
	m.enterGather(now)
	return m, nil
}

// State returns the current phase.
func (m *Machine) State() State { return m.state }

// Ring returns the installed configuration (zero before the first).
func (m *Machine) Ring() evs.Configuration { return m.ring }

// Counters returns a snapshot of membership counters.
func (m *Machine) Counters() Counters { return m.counters }

// Engine returns the ordering engine of the installed ring, or nil.
// Exposed for tests and stats only.
func (m *Machine) Engine() *core.Engine { return m.eng }

// DataPriority reports whether data-class frames should be processed
// before token-class frames right now (§III-D). Drivers with both classes
// pending consult it.
func (m *Machine) DataPriority() bool {
	return m.eng != nil && m.eng.DataPriority()
}

// Submit queues an application payload for totally ordered multicast.
// It fails before the first ring is installed; during membership changes
// messages queue in the engine and flow once the ring re-forms.
func (m *Machine) Submit(payload []byte, service evs.Service) error {
	if m.eng == nil {
		return ErrNotOperational
	}
	return m.eng.Submit(payload, service)
}

// SubmitHeld is Submit for payloads that waited in a packing bundle
// since held (zero means no hold); see core.Engine.SubmitHeld.
func (m *Machine) SubmitHeld(payload []byte, service evs.Service, held time.Time) error {
	if m.eng == nil {
		return ErrNotOperational
	}
	return m.eng.SubmitHeld(payload, service, held)
}

// DrainSampledSent forwards core.Engine.DrainSampledSent for the
// installed ring's engine (no-op before the first ring forms).
func (m *Machine) DrainSampledSent(fn func(seq uint64)) {
	if m.eng != nil {
		m.eng.DrainSampledSent(fn)
	}
}

// CanSubmit reports whether Submit would be accepted right now (a ring
// has formed at least once). Drivers that stage submissions — the
// adaptive packing layer — use it to fail fast at stage time instead of
// discovering ErrNotOperational at flush time, after the submitter was
// already acknowledged.
func (m *Machine) CanSubmit() bool { return m.eng != nil }

// obsReg returns the observer's registry, or nil. Registry handles are
// nil-safe, so metric updates can be written unconditionally against it.
func (m *Machine) obsReg() *obs.Registry {
	if m.cfg.Observer == nil {
		return nil
	}
	return m.cfg.Observer.Reg
}

// metricName scopes a membership metric with the observer's per-ring label
// (identity without one), so a sharded node's rings report separately.
func (m *Machine) metricName(base string) string {
	return m.cfg.Observer.MetricName(base)
}

// setState transitions the machine's phase, recording for the observer the
// membership.state gauge and — on leaving gather or recover — how long the
// phase lasted. now is driver time (wall or simulated).
func (m *Machine) setState(s State, now time.Time) {
	if m.state != s {
		m.cfg.Observer.Record(obs.Event{Kind: obs.FlightState, At: now, Note: s.String()})
	}
	if reg := m.obsReg(); reg != nil && m.state != s {
		if !now.IsZero() && !m.stateSince.IsZero() {
			switch m.state {
			case StateGather:
				reg.Histogram(m.metricName("membership.gather_ns"), obs.DurationBuckets()).ObserveDuration(now.Sub(m.stateSince))
			case StateRecover:
				reg.Histogram(m.metricName("membership.recovery_ns"), obs.DurationBuckets()).ObserveDuration(now.Sub(m.stateSince))
			}
		}
		reg.Gauge(m.metricName("membership.state")).Set(int64(s))
	}
	m.state = s
	m.stateSince = now
}

// alive returns the current gather candidate set: self plus everyone whose
// join was heard this attempt, minus the failed set.
func (m *Machine) alive() idSet {
	s := newIDSet(m.cfg.Self)
	for p := range m.joins {
		s = s.with(p)
	}
	return s.minus(m.failed)
}

// enterGather (re)starts the membership algorithm.
func (m *Machine) enterGather(now time.Time) {
	if m.state == StateOperational || m.state == StateRecover || m.state == 0 {
		// A fresh membership incident: forget old failure declarations.
		// They were only ever a device to force the PREVIOUS gather to
		// converge; carrying them over would permanently exclude healthy
		// peers and livelock merges (each side keeps re-forming without
		// the other).
		m.failed = nil
	}
	m.setState(StateGather, now)
	m.counters.GatherEntries++
	m.obsReg().Counter(m.metricName("membership.gather_entries")).Inc()
	m.attempt++
	m.joins = make(map[evs.ProcID]*wire.Join)
	m.gatherExtensions = 0
	m.ringSeqHigh = max(m.ringSeqHigh, m.ring.ID.Seq)
	m.broadcastJoin(now)
	m.gatherDeadline = now.Add(m.cfg.Timeouts.Gather)
	m.consensusFloor = now.Add(2 * m.cfg.Timeouts.JoinInterval)
}

func (m *Machine) broadcastJoin(now time.Time) {
	j := wire.Join{
		Sender:  m.cfg.Self,
		Alive:   m.alive(),
		Failed:  m.failed,
		RingSeq: m.ringSeqHigh,
		Attempt: m.attempt,
	}
	m.out.Multicast(j.AppendTo(nil))
	m.joinResendAt = now.Add(m.cfg.Timeouts.JoinInterval)
}

// HandleDataFrame processes a frame received on the data channel: an
// application data message or a membership join.
//
// It reports whether the frame was retained: data frames are decoded
// zero-copy, so when the engine buffers the message it keeps the frame's
// payload region alive until delivery and stability. A retained frame must
// not be recycled (bufpool.Put) or reused by the caller until it comes
// back through the Output's Release; a non-retained one may be recycled
// immediately.
func (m *Machine) HandleDataFrame(frame []byte, now time.Time) (retained bool) {
	m.lastNow = now
	t, err := wire.PeekType(frame)
	if err != nil {
		return false
	}
	switch t {
	case wire.FrameJoin:
		j, err := wire.DecodeJoin(frame)
		if err != nil {
			return false
		}
		m.handleJoin(j, now)
	case wire.FrameData:
		if m.eng == nil || (m.state != StateOperational && m.state != StateRecover) {
			return false
		}
		d := &m.dataScratch
		if err := d.DecodeFrom(frame); err != nil {
			return false
		}
		if m.rel != nil {
			d.Frame = frame
		}
		if d.RingID != m.ring.ID {
			// Foreign traffic: another ring is reachable. Ignore frames
			// from the ring we just left; anything else means a merge is
			// due (Totem's foreign-message rule).
			if m.state == StateOperational && d.RingID != m.prevRingID {
				m.enterGather(now)
			}
			return false
		}
		return m.eng.HandleData(d)
	}
	return false
}

// HandleTokenFrame processes a frame received on the token channel: a
// regular token or a membership commit token. Token-class frames are never
// retained: the caller may recycle the frame as soon as the call returns.
func (m *Machine) HandleTokenFrame(frame []byte, now time.Time) {
	m.lastNow = now
	t, err := wire.PeekType(frame)
	if err != nil {
		return
	}
	switch t {
	case wire.FrameToken:
		if m.eng == nil || (m.state != StateOperational && m.state != StateRecover) {
			return
		}
		// Scratch decode: the engine treats received tokens as read-only,
		// and DecodeFrom copies everything out of the frame, so neither
		// the token nor the frame is retained past this call.
		tok := &m.tokScratch
		if err := tok.DecodeFrom(frame); err != nil {
			return
		}
		before := m.eng.Counters().Rounds
		m.eng.HandleToken(tok)
		if m.eng.Counters().Rounds > before {
			m.lastTokenAt = now
		}
	case wire.FrameCommit:
		c, err := wire.DecodeCommit(frame)
		if err != nil {
			return
		}
		m.handleCommit(c, now)
	}
}

// QuietToken reports whether frame is a token the operational ring's
// leader may hold before handling it: one that closes a rotation in which
// nothing happened (core.Engine.Quiet). It changes no protocol state.
func (m *Machine) QuietToken(frame []byte) bool {
	// Only the leader (ring index 0) parks; the others skip the decode.
	if m.state != StateOperational || m.ring.Members[0] != m.cfg.Self {
		return false
	}
	if t, err := wire.PeekType(frame); err != nil || t != wire.FrameToken {
		return false
	}
	tok := &m.tokScratch
	return tok.DecodeFrom(frame) == nil && m.eng.Quiet(tok)
}

func (m *Machine) handleJoin(j *wire.Join, now time.Time) {
	if j.Sender == m.cfg.Self {
		return
	}
	m.ringSeqHigh = max(m.ringSeqHigh, j.RingSeq)
	if j.Attempt == beaconAttempt {
		// A presence beacon from an operational ring. If the sender is
		// not in our ring, two rings can reach each other: merge.
		if m.state == StateOperational && !m.ring.Contains(j.Sender) {
			m.enterGather(now)
		}
		return
	}
	switch m.state {
	case StateOperational:
		// A join while operational means a member lost the ring or an
		// outsider wants to merge: rerun membership.
		m.enterGather(now)
	case StateCommit, StateRecover:
		// Let the current formation finish (or time out); the joiner will
		// keep retrying.
		return
	}
	prevAlive := m.alive()
	prevFailed := m.failed
	m.joins[j.Sender] = j
	// A join is proof of life: drop any failure declaration about its
	// sender. Declarations exist to force convergence past UNRESPONSIVE
	// processors; one we are hearing from is not unresponsive. Without
	// this, declarations made during a network incident persist after it
	// heals — every gathering machine rebroadcasts its failed set and
	// re-adopts its peers', so the all-mutually-failed state is a stable
	// fixed point in which every machine forms singleton rings forever.
	m.failed = m.failed.minus(newIDSet(j.Sender))
	// Adopt failure declarations about anyone but ourselves — except
	// processors whose own joins we are hearing this attempt: direct
	// evidence of life outranks gossip.
	adopt := idSet(nil)
	for _, q := range j.Failed {
		if q == m.cfg.Self || m.joins[q] != nil {
			continue
		}
		adopt = adopt.with(q)
	}
	m.failed = m.failed.union(adopt)
	changed := !m.failed.equal(prevFailed) || !m.alive().equal(prevAlive)
	if changed {
		m.broadcastJoin(now)
	}
	m.checkConsensus(now)
}

// checkConsensus declares the gather complete when every candidate has
// announced exactly our candidate and failed sets. The lowest-ID member
// then forms the ring with a commit token.
func (m *Machine) checkConsensus(now time.Time) {
	if m.state != StateGather {
		return
	}
	if now.Before(m.consensusFloor) {
		// Too early: more joins may be in flight. Tick re-checks.
		return
	}
	alive := m.alive()
	if len(alive) == 1 && m.gatherExtensions < 2 {
		// Never conclude we are alone before the full gather window has
		// run: peers' joins may merely be delayed, and a hasty singleton
		// ring causes endless churn of form-and-merge.
		return
	}
	for _, p := range alive {
		if p == m.cfg.Self {
			continue
		}
		j := m.joins[p]
		if j == nil || !newIDSet(j.Alive...).equal(alive) || !newIDSet(j.Failed...).equal(m.failed) {
			return
		}
	}
	if alive.min() != m.cfg.Self {
		// Wait for the representative's commit token.
		m.setState(StateCommit, now)
		m.commitDeadline = now.Add(m.cfg.Timeouts.Commit)
		return
	}
	m.sendFirstCommit(alive, now)
}

// sendFirstCommit builds the rotation-1 commit token, fills our own entry,
// and sends it to our successor on the new ring.
func (m *Machine) sendFirstCommit(alive idSet, now time.Time) {
	id := evs.ViewID{Rep: m.cfg.Self, Seq: m.ringSeqHigh + 1}
	c := &wire.Commit{
		NewRing:  evs.NewConfiguration(id, alive),
		Rotation: 1,
		Info:     make([]wire.CommitInfo, len(alive)),
	}
	for i, p := range c.NewRing.Members {
		c.Info[i].PID = p
	}
	m.fillCommitInfo(c)
	m.setState(StateCommit, now)
	m.commitDeadline = now.Add(m.cfg.Timeouts.Commit)
	m.forwardCommit(c)
}

func (m *Machine) fillCommitInfo(c *wire.Commit) {
	for i := range c.Info {
		if c.Info[i].PID != m.cfg.Self {
			continue
		}
		in := &c.Info[i]
		in.Received = true
		// Report the ring still owed recovery: if a previous recovery was
		// aborted by this membership change, that is the recovery's old
		// ring, not the intermediate ring the application never installed.
		eng, ring := m.eng, m.ring
		if m.rec != nil && m.rec.oldEng != nil {
			eng, ring = m.rec.oldEng, m.rec.oldRing
		}
		if eng != nil && !ring.ID.IsZero() {
			in.OldRing = ring.ID
			in.Aru = eng.Aru()
			in.HighSeq = eng.High()
			in.HighDelivered = eng.Delivered()
		}
		return
	}
}

func (m *Machine) forwardCommit(c *wire.Commit) {
	c.Seq++
	m.out.Unicast(c.NewRing.Successor(m.cfg.Self), c.AppendTo(nil))
}

func allReceived(c *wire.Commit) bool {
	for i := range c.Info {
		if !c.Info[i].Received {
			return false
		}
	}
	return true
}

func (m *Machine) handleCommit(c *wire.Commit, now time.Time) {
	if !c.NewRing.Contains(m.cfg.Self) {
		return
	}
	if len(c.Info) != len(c.NewRing.Members) {
		return
	}
	if c.NewRing.ID == m.installedRing {
		// Rotation-2 token completing its loop back to the
		// representative: time to start the ring's first regular token.
		if c.NewRing.ID.Rep == m.cfg.Self && !m.ringStarted {
			m.startRing()
		}
		return
	}
	if !m.ring.ID.IsZero() && c.NewRing.ID.Seq <= m.ring.ID.Seq {
		return // stale commit for a ring we've moved past
	}
	m.ringSeqHigh = max(m.ringSeqHigh, c.NewRing.ID.Seq)
	switch c.Rotation {
	case 1:
		m.fillCommitInfo(c)
		if c.NewRing.ID.Rep == m.cfg.Self && allReceived(c) {
			// The gathering rotation is complete: promote and install.
			c.Rotation = 2
			m.install(c, now)
			m.forwardCommit(c)
			return
		}
		m.setState(StateCommit, now)
		m.commitDeadline = now.Add(m.cfg.Timeouts.Commit)
		m.forwardCommit(c)
	case 2:
		m.install(c, now)
		m.forwardCommit(c)
	}
}

// startRing injects the new ring's first regular token, addressed to
// ourselves (the representative), through the normal token path.
func (m *Machine) startRing() {
	m.ringStarted = true
	tok := core.NewInitialToken(m.ring.ID, 0)
	m.out.Unicast(m.cfg.Self, tok.AppendTo(nil))
}

// Tick drives the machine's timers. Call it periodically (a few times per
// JoinInterval) and after handling frames.
func (m *Machine) Tick(now time.Time) {
	m.lastNow = now
	switch m.state {
	case StateGather:
		if now.After(m.joinResendAt) || now.Equal(m.joinResendAt) {
			m.broadcastJoin(now)
		}
		m.checkConsensus(now)
		if m.state == StateGather && now.After(m.gatherDeadline) {
			m.gatherTimeout(now)
		}
	case StateCommit:
		if now.After(m.commitDeadline) {
			m.counters.CommitTimeouts++
			m.obsReg().Counter(m.metricName("membership.commit_timeouts")).Inc()
			m.cfg.Observer.Record(obs.Event{Kind: obs.FlightState, At: now, Note: "commit_timeout"})
			m.enterGather(now)
		}
	case StateOperational, StateRecover:
		m.tokenTimers(now)
		if m.state == StateOperational && now.After(m.beaconAt) {
			b := wire.Join{
				Sender:  m.cfg.Self,
				Alive:   m.ring.Members,
				RingSeq: m.ring.ID.Seq,
				Attempt: beaconAttempt,
			}
			m.out.Multicast(b.AppendTo(nil))
			m.beaconAt = now.Add(m.cfg.Timeouts.Beacon)
		}
	}
}

func (m *Machine) gatherTimeout(now time.Time) {
	if m.gatherExtensions < 2 {
		// Give slow joiners more time before declaring failures.
		m.gatherExtensions++
		m.gatherDeadline = now.Add(m.cfg.Timeouts.Gather)
		m.broadcastJoin(now)
		return
	}
	// Declare everyone who has not converged with us failed and retry.
	alive := m.alive()
	for _, p := range alive {
		if p == m.cfg.Self {
			continue
		}
		j := m.joins[p]
		if j == nil || !newIDSet(j.Alive...).equal(alive) {
			m.failed = m.failed.with(p)
		}
	}
	m.joins = make(map[evs.ProcID]*wire.Join)
	m.gatherExtensions = 0
	m.gatherDeadline = now.Add(m.cfg.Timeouts.Gather)
	m.attempt++
	m.broadcastJoin(now)
	m.checkConsensus(now)
}

func (m *Machine) tokenTimers(now time.Time) {
	if m.lastTokenAt.IsZero() {
		m.lastTokenAt = now
		return
	}
	since := now.Sub(m.lastTokenAt)
	if since >= m.cfg.Timeouts.TokenLoss {
		// The ring is broken: rerun membership. The engine is frozen and
		// its buffered messages survive into recovery.
		m.enterGather(now)
		return
	}
	if since >= m.cfg.Timeouts.TokenRetransmit && now.Sub(m.lastRetransAt) >= m.cfg.Timeouts.TokenRetransmit {
		if tok := m.eng.LastToken(); tok != nil {
			m.encBuf = tok.AppendTo(m.encBuf[:0])
			m.out.Unicast(m.ring.Successor(m.cfg.Self), m.encBuf)
			m.lastRetransAt = now
			m.counters.TokenRetransmits++
			m.obsReg().Counter(m.metricName("membership.token_retransmits")).Inc()
			m.cfg.Observer.Record(obs.Event{
				Kind: obs.FlightTokenTx, At: now, Note: "retransmit",
				Seq: tok.Seq, Aru: tok.Aru, Fcc: tok.Fcc,
			})
		}
	}
}
