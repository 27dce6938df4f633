// Package core implements the ordering protocols of the paper: the
// Accelerated Ring protocol and the original Totem-style Ring protocol it
// is compared against. Both are expressed by one engine; the variant is
// selected by the flow-control windows (Accelerated window zero reproduces
// the original sending pattern), the retransmission-request horizon, and
// the token-priority method.
//
// The engine is a deterministic, I/O-free state machine. It consumes token
// and data frames through HandleToken and HandleData and produces effects
// through an Output implementation: token unicasts, data multicasts, and
// delivery events. Time, sockets, and retransmission timers belong to the
// drivers (internal/simproc for simulated time, internal/ringnode for wall
// clock); membership changes belong to internal/membership, which creates
// one engine per ring.
//
// The engine is not safe for concurrent use. Both the paper's daemon and
// our drivers are single-threaded around it by design: limiting the
// ordering service to one core is an explicit goal of the paper.
package core

import (
	"errors"
	"fmt"
	"time"

	"accelring/internal/evs"
	"accelring/internal/flowcontrol"
	"accelring/internal/obs"
	"accelring/internal/seqbuf"
	"accelring/internal/wire"
)

// PriorityMethod selects how a participant decides to raise the token's
// processing priority again after handling a token (paper §III-D).
type PriorityMethod int

const (
	// PriorityAggressive raises the token's priority as soon as any data
	// message that the ring predecessor sent in the next token round is
	// processed. It maximizes token rotation speed; the paper's prototypes
	// use it.
	PriorityAggressive PriorityMethod = iota + 1
	// PriorityConservative waits for a data message that the predecessor
	// sent in the next round after passing the token (a post-token
	// message). It is less sensitive to misconfiguration; production
	// Spread uses it. With an Accelerated window of zero it behaves like
	// the original Ring protocol.
	PriorityConservative
)

func (m PriorityMethod) String() string {
	switch m {
	case PriorityAggressive:
		return "aggressive"
	case PriorityConservative:
		return "conservative"
	default:
		return fmt.Sprintf("priority(%d)", int(m))
	}
}

// Config parameterizes an engine for one ring.
type Config struct {
	// Self is this participant's ID. Must be a ring member.
	Self evs.ProcID
	// Ring is the established configuration (membership's output).
	Ring evs.Configuration
	// Windows are the flow-control parameters. Accelerated == 0 gives the
	// original protocol's sending pattern.
	Windows flowcontrol.Windows
	// Priority is the token-priority method (§III-D). Defaults to
	// PriorityAggressive.
	Priority PriorityMethod
	// DelayedRequests selects the accelerated protocol's retransmission
	// rule: request missing messages only up to the seq carried by the
	// token received in the previous round, guaranteeing they were really
	// sent. When false (original protocol) gaps below the current token's
	// seq are requested immediately.
	DelayedRequests bool
	// InitialSeq is the sequence number ordering starts after; the first
	// message of the ring gets InitialSeq+1.
	InitialSeq uint64
	// MaxRtrPerRound caps how many retransmission requests this
	// participant adds to one token. Defaults to 512.
	MaxRtrPerRound int
	// Observer receives per-visit and per-delivery metrics, sampled
	// message stages and flight events. Nil disables observation at the
	// cost of one nil check per hook site.
	Observer *obs.RingObserver
}

// Original returns a Config for the original Totem-style Ring protocol:
// no post-token sending, immediate retransmission requests, conservative
// token priority.
func Original(self evs.ProcID, ring evs.Configuration, personal, global int) Config {
	return Config{
		Self: self,
		Ring: ring,
		Windows: flowcontrol.Windows{
			Personal: personal,
			Global:   global,
		},
		Priority: PriorityConservative,
	}
}

// Accelerated returns a Config for the Accelerated Ring protocol with the
// given accelerated window and the aggressive priority method used by the
// paper's prototypes.
func Accelerated(self evs.ProcID, ring evs.Configuration, personal, global, accelerated int) Config {
	return Config{
		Self: self,
		Ring: ring,
		Windows: flowcontrol.Windows{
			Personal:    personal,
			Global:      global,
			Accelerated: accelerated,
		},
		Priority:        PriorityAggressive,
		DelayedRequests: true,
	}
}

func (c *Config) validate() error {
	if c.Self == 0 {
		return errors.New("core: config requires a non-zero Self")
	}
	if !c.Ring.Contains(c.Self) {
		return fmt.Errorf("core: %d is not a member of %v", c.Self, c.Ring)
	}
	if err := c.Windows.Validate(); err != nil {
		return err
	}
	if c.Priority == 0 {
		c.Priority = PriorityAggressive
	}
	if c.Priority != PriorityAggressive && c.Priority != PriorityConservative {
		return fmt.Errorf("core: unknown priority method %d", c.Priority)
	}
	if c.MaxRtrPerRound == 0 {
		c.MaxRtrPerRound = 512
	}
	if c.MaxRtrPerRound < 0 || c.MaxRtrPerRound > wire.MaxRtr {
		return fmt.Errorf("core: MaxRtrPerRound %d out of range (0, %d]", c.MaxRtrPerRound, wire.MaxRtr)
	}
	return nil
}

// Output receives the engine's effects. Implementations must not call back
// into the engine.
//
// Ownership: the engine reuses the structs it passes out on the next round
// (zero-allocation hot path), so implementations must treat every argument
// as borrowed — encode or copy it before returning, and never retain the
// pointer or mutate the struct.
type Output interface {
	// SendToken unicasts the token to the ring successor. The engine
	// retains ownership of the token; implementations must encode or copy
	// it before returning.
	SendToken(*wire.Token)
	// Multicast sends a data message to all ring members. The message and
	// its payload must be treated as read-only and must not be retained:
	// the engine reuses the struct for later sends.
	Multicast(*wire.Data)
	// Deliver hands a message to the application in total order. The
	// Payload slice is borrowed: a message received as a frame goes back
	// to an Output that is a Releaser once it is stable, so a consumer
	// that keeps a payload past its release copies it. The call must not
	// block for long.
	Deliver(evs.Message)
}

// Releaser is an Output that takes back received frames. When the engine
// discards a message it buffered with a wire.Data.Frame — the message is
// stable and delivered — it passes the message to Release: from then on
// the engine reads neither d.Frame nor d.Payload. d itself is borrowed
// for the call. Messages this participant sent, and duplicates HandleData
// refused, are never released.
type Releaser interface {
	Release(d *wire.Data)
}

// Counters exposes engine activity for tests, stats, and benchmarks.
type Counters struct {
	// Rounds is the number of tokens handled.
	Rounds uint64
	// Sent is the number of new data messages this participant initiated.
	Sent uint64
	// Retransmitted is the number of retransmissions this participant
	// answered.
	Retransmitted uint64
	// Requested is the number of retransmission requests this participant
	// added to tokens.
	Requested uint64
	// Delivered is the number of messages delivered to the application.
	Delivered uint64
	// TokensDropped counts duplicate or stale tokens discarded.
	TokensDropped uint64
	// DataDropped counts duplicate or foreign data messages discarded.
	DataDropped uint64
}

type pending struct {
	payload []byte
	service evs.Service
	flags   uint8
	// at is the submit time when the observer has a wall clock (zero
	// otherwise); it feeds the per-service delivery-latency histogram.
	at time.Time
	// held is when the payload first entered a packing bundle (zero when
	// it was never held); it backdates the sampled span's pack stage.
	held time.Time
}

// Engine runs the ordering protocol for one participant on one ring.
type Engine struct {
	cfg Config
	out Output

	ringIdx int
	succ    evs.ProcID
	pred    evs.ProcID

	buf   *seqbuf.Buffer
	sendQ []pending

	// myRound counts tokens handled; data messages carry it.
	myRound uint64
	// lastTokenSeq is the TokenSeq of the last accepted token (duplicate
	// suppression, wraparound-aware).
	lastTokenSeq uint32
	sawToken     bool
	// prevRecvSeq is the seq field of the token received in the previous
	// round: the accelerated protocol's retransmission-request horizon.
	prevRecvSeq uint64
	// lastRoundSent is how many multicasts (new + retransmissions) this
	// participant sent last round, for the fcc update.
	lastRoundSent int
	// aruSentThis/aruSentPrev are the aru values on the tokens this
	// participant sent this round and the round before; their minimum is
	// the safe-delivery line (§III-B4).
	aruSentThis, aruSentPrev uint64
	// delivered is the highest sequence number delivered to the app.
	delivered uint64
	// safeLine is min(aruSentThis, aruSentPrev).
	safeLine uint64

	// dataPriority is true while data messages have processing priority
	// over the token (§III-D).
	dataPriority bool

	counters Counters
	lastSent *wire.Token

	// obs receives metrics, sampled message stages (Stamp) and flight
	// events (Record); nil turns all three into a nil check.
	obs *obs.RingObserver
	// submitAt maps assigned seq -> submit time for self-initiated
	// messages still awaiting delivery (only populated when the observer
	// has a clock).
	submitAt map[uint64]time.Time

	// Hot-path scratch. The engine is single-threaded, so one instance of
	// each reusable buffer suffices; together they make the steady-state
	// round allocation-free.
	//
	// outTok is the engine-owned outgoing token: HandleToken treats the
	// received token as read-only and builds the update here, so callers
	// may reuse their decode scratch across rounds.
	outTok wire.Token
	// freeData recycles message structs discarded as stable; msgScratch is
	// the per-round new-message slice; rtScratch is the retransmission
	// copy handed to Multicast.
	freeData   []*wire.Data
	msgScratch []*wire.Data
	rtScratch  wire.Data
	// remScratch/reqScratch/haveScratch back answerRetransmissions and
	// appendRequests across rounds.
	remScratch  []uint64
	reqScratch  []uint64
	haveScratch map[uint64]struct{}
	// sentSampled collects the sampled seqs multicast since the driver
	// last drained them, so it can stamp StageBatchFlush when the send
	// burst ends. Empty (and never appended to) when
	// tracing is off.
	sentSampled []uint64
	// rel is out as a Releaser (nil when it is not one); discardFn is
	// e.discard bound once (binding per discard would allocate).
	rel       Releaser
	discardFn func(*wire.Data)
}

// New creates an engine. The configuration is validated; the ring must
// contain Self.
func New(cfg Config, out Output) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if out == nil {
		return nil, errors.New("core: nil Output")
	}
	e := &Engine{
		cfg:         cfg,
		out:         out,
		ringIdx:     cfg.Ring.Index(cfg.Self),
		succ:        cfg.Ring.Successor(cfg.Self),
		pred:        cfg.Ring.Predecessor(cfg.Self),
		buf:         seqbuf.New(cfg.InitialSeq),
		prevRecvSeq: cfg.InitialSeq,
		aruSentThis: cfg.InitialSeq,
		aruSentPrev: cfg.InitialSeq,
		delivered:   cfg.InitialSeq,
		safeLine:    cfg.InitialSeq,
		obs:         cfg.Observer,
	}
	e.rel, _ = out.(Releaser)
	e.discardFn = e.discard
	return e, nil
}

// maxFreeData caps the message-struct free list; beyond it, discarded
// structs go to the garbage collector. 4096 covers the deepest buffers the
// flow-control windows produce in practice.
const maxFreeData = 4096

func (e *Engine) getData() *wire.Data {
	if n := len(e.freeData); n > 0 {
		m := e.freeData[n-1]
		e.freeData[n-1] = nil
		e.freeData = e.freeData[:n-1]
		return m
	}
	return new(wire.Data)
}

func (e *Engine) putData(m *wire.Data) {
	*m = wire.Data{} // drop the payload and frame references
	if len(e.freeData) < maxFreeData {
		e.freeData = append(e.freeData, m)
	}
}

// discard drops a stable, delivered message: its frame, if it came with
// one, goes back to the Releaser.
func (e *Engine) discard(m *wire.Data) {
	if m.Frame != nil && e.rel != nil {
		e.rel.Release(m)
	}
	e.putData(m)
}

// NewInitialToken builds the first token of a freshly installed ring. The
// membership representative handles it directly to start rotation.
func NewInitialToken(ring evs.ViewID, initialSeq uint64) *wire.Token {
	return &wire.Token{
		RingID:   ring,
		TokenSeq: 1,
		Round:    1,
		Seq:      initialSeq,
		Aru:      initialSeq,
	}
}

// Self returns this participant's ID.
func (e *Engine) Self() evs.ProcID { return e.cfg.Self }

// Ring returns the configuration the engine is ordering for.
func (e *Engine) Ring() evs.Configuration { return e.cfg.Ring }

// Counters returns a snapshot of the engine's activity counters.
func (e *Engine) Counters() Counters { return e.counters }

// Aru returns the local all-received-up-to value.
func (e *Engine) Aru() uint64 { return e.buf.Aru() }

// High returns the highest sequence number received or assigned.
func (e *Engine) High() uint64 { return e.buf.High() }

// Delivered returns the highest sequence number delivered to the app.
func (e *Engine) Delivered() uint64 { return e.delivered }

// SafeLine returns the stability line: every message at or below it has
// been received by all ring members.
func (e *Engine) SafeLine() uint64 { return e.safeLine }

// QueueLen returns the number of messages waiting for a token.
func (e *Engine) QueueLen() int { return len(e.sendQ) }

// DataPriority reports whether data messages currently have processing
// priority over the token. Drivers with both classes pending consult this.
func (e *Engine) DataPriority() bool { return e.dataPriority }

// Quiet reports whether t, a token of this ring that HandleToken would
// accept, closes at the leader a rotation in which nothing happened:
// nothing is queued here, the leader sent and retransmitted nothing last
// round, the token carries no request and no sequence number beyond the
// one the leader last forwarded, and every message is received, delivered
// and stable (aru == seq on the token and on the last two the leader
// sent). Holding such a token delays no message and no request. Read-only.
func (e *Engine) Quiet(t *wire.Token) bool {
	return e.ringIdx == 0 && e.lastSent != nil && len(e.sendQ) == 0 && e.lastRoundSent == 0 &&
		t.RingID == e.cfg.Ring.ID && int32(t.TokenSeq-e.lastTokenSeq) > 0 &&
		len(t.Rtr) == 0 && t.Seq == e.lastSent.Seq && t.Aru == t.Seq &&
		e.delivered == t.Seq && e.aruSentThis == t.Seq && e.aruSentPrev == t.Seq
}

// DrainSampledSent calls fn for every sampled seq multicast since the
// previous drain and forgets them. Drivers call it at the end of each
// send burst and record StageBatchFlush for each, closing the gap between
// "handed to the transport" and "the burst is on the wire". Always empty
// when tracing is off, so the drain is free.
func (e *Engine) DrainSampledSent(fn func(seq uint64)) {
	for _, seq := range e.sentSampled {
		fn(seq)
	}
	e.sentSampled = e.sentSampled[:0]
}

// LastToken returns the most recently sent token, for retransmission on a
// token-loss timer, or nil if none has been sent.
func (e *Engine) LastToken() *wire.Token { return e.lastSent }

// Buffered returns the buffered message with the given sequence number, or
// nil. Membership recovery uses it to retransmit old-ring messages.
func (e *Engine) Buffered(seq uint64) *wire.Data { return e.buf.Get(seq) }

// RangeBuffered iterates buffered messages in [from, to] in seq order.
func (e *Engine) RangeBuffered(from, to uint64, fn func(*wire.Data) bool) {
	e.buf.Range(from, to, fn)
}

// ErrPayloadTooLarge is returned by Submit for oversized payloads.
var ErrPayloadTooLarge = fmt.Errorf("core: payload exceeds %d bytes", wire.MaxPayload)

// Submit queues an application payload for ordered multicast with the
// given service level. The payload is not copied; the caller must not
// mutate it afterwards. Messages are sent when the token next arrives,
// subject to flow control.
func (e *Engine) Submit(payload []byte, service evs.Service) error {
	return e.SubmitHeld(payload, service, time.Time{})
}

// SubmitHeld is Submit for payloads that waited in a packing bundle:
// held is when the bundle opened (zero means no hold). Sampled spans of
// the resulting message get a backdated pack stage, so latency
// attribution can separate the pack hold from token wait.
func (e *Engine) SubmitHeld(payload []byte, service evs.Service, held time.Time) error {
	if len(payload) > wire.MaxPayload {
		return ErrPayloadTooLarge
	}
	if !service.Valid() {
		return fmt.Errorf("core: invalid service %d", service)
	}
	e.sendQ = append(e.sendQ, pending{payload: payload, service: service, at: e.obs.Now(), held: held})
	return nil
}

// SubmitControl queues a protocol-internal message (membership recovery
// traffic). It is ordered like any Agreed message but flagged so the
// membership layer can consume it before application delivery.
func (e *Engine) SubmitControl(payload []byte) error {
	if len(payload) > wire.MaxPayload {
		return ErrPayloadTooLarge
	}
	e.sendQ = append(e.sendQ, pending{payload: payload, service: evs.Agreed, flags: wire.FlagControl, at: e.obs.Now()})
	return nil
}

// PendingSubmission is a queued message that never received a sequence
// number, drained from a dissolving ring's engine so membership can
// resubmit it on the next ring.
type PendingSubmission struct {
	Payload []byte
	Service evs.Service
	Control bool
}

// TakePending drains and returns the unsent submission queue (nil when
// empty).
func (e *Engine) TakePending() []PendingSubmission {
	if len(e.sendQ) == 0 {
		return nil
	}
	out := make([]PendingSubmission, len(e.sendQ))
	for i, p := range e.sendQ {
		out[i] = PendingSubmission{
			Payload: p.payload,
			Service: p.service,
			Control: p.flags&wire.FlagControl != 0,
		}
	}
	e.sendQ = nil
	return out
}

// HandleData processes a received data message (paper §III-C): buffer it,
// deliver any newly in-order deliverable messages, and update the token
// priority state (§III-D).
//
// The struct d points to is copied, so the caller may reuse it as decode
// scratch. The Payload slice is not copied: when HandleData returns true
// the engine has taken ownership of it (and of any frame it aliases under
// zero-copy decode) and retains it until the message becomes stable; the
// caller must not recycle that memory. A frame named in d.Frame then comes
// back through the Releaser. On false the payload was not retained.
func (e *Engine) HandleData(d *wire.Data) bool {
	if d.RingID != e.cfg.Ring.ID {
		e.counters.DataDropped++
		return false
	}
	m := e.getData()
	*m = *d
	if !e.buf.Insert(m) {
		e.putData(m)
		e.counters.DataDropped++
		// Already buffered (or stable): a duplicate copy arrived.
		e.obs.Stamp(obs.StageRecvDup, d.Seq, d.Round)
		return false
	}
	stage := obs.StageRecv
	if m.Flags&wire.FlagRetrans != 0 {
		// First copy arrived via a retransmission, not the original
		// multicast.
		stage = obs.StageRecvDup
	}
	e.obs.Stamp(stage, m.Seq, m.Round)
	e.deliverReady()
	e.maybeRaiseTokenPriority(m)
	return true
}

// maybeRaiseTokenPriority implements the two methods of §III-D. A data
// message from the ring predecessor initiated in the next token round
// proves the next token has been (method 2: post-token flag) or will
// imminently be (method 1) sent.
func (e *Engine) maybeRaiseTokenPriority(d *wire.Data) {
	if !e.dataPriority || d.Sender != e.pred {
		return
	}
	// The predecessor's round r token handling precedes ours for every
	// ring position except the representative, whose predecessor (the last
	// member) handles round r after the representative does.
	expected := e.myRound + 1
	if e.ringIdx == 0 {
		expected = e.myRound
	}
	if d.Round < expected {
		return
	}
	if e.cfg.Priority == PriorityConservative && !d.PostToken() {
		return
	}
	e.dataPriority = false
}

// HandleToken processes a received token (paper §III-B): answer
// retransmission requests, multicast the pre-token share of this round's
// new messages, update and send the token, multicast the post-token share,
// then deliver and discard.
//
// The received token is read-only: the engine builds the outgoing token in
// its own storage, so the caller may reuse t (and the Rtr backing) as
// decode scratch for the next frame.
func (e *Engine) HandleToken(t *wire.Token) {
	if t.RingID != e.cfg.Ring.ID {
		e.counters.TokensDropped++
		return
	}
	// Wraparound-aware duplicate/stale suppression for retransmitted
	// tokens.
	if e.sawToken && int32(t.TokenSeq-e.lastTokenSeq) <= 0 {
		e.counters.TokensDropped++
		return
	}
	e.sawToken = true
	e.lastTokenSeq = t.TokenSeq
	e.myRound++
	e.counters.Rounds++

	recvSeq := t.Seq
	recvAru := t.Aru
	recvFcc := int(t.Fcc)
	recvTokenSeq := t.TokenSeq
	tokStart := e.obs.Now()
	requestedBefore := e.counters.Requested
	e.obs.Record(obs.Event{
		Kind: obs.FlightTokenRx, At: tokStart, Round: e.myRound, TokenSeq: t.TokenSeq,
		Seq: t.Seq, Aru: t.Aru, Fcc: t.Fcc, Count: len(t.Rtr),
	})

	// Phase 1 (§III-B1): answer retransmission requests, capped at the
	// Global window so a corrupt or adversarial Rtr list cannot trigger an
	// unbounded pre-token burst. Requests beyond the budget stay on the
	// outgoing token for later rounds.
	numRetrans, remaining := e.answerRetransmissions(t.Rtr, e.cfg.Windows.RetransBudget())

	// Decide the complete set of new messages for this round.
	numToSend := e.cfg.Windows.NumToSend(len(e.sendQ), recvFcc, numRetrans)
	newMsgs := e.takeMessages(numToSend, recvSeq)
	pre, _ := e.cfg.Windows.Split(numToSend)

	// Self-receive the full round's messages now: the token must reflect
	// every message this participant will send this round.
	for _, m := range newMsgs {
		e.buf.Insert(m)
	}

	// Pre-token multicasting.
	for _, m := range newMsgs[:pre] {
		e.out.Multicast(m)
		if e.obs.Stamp(obs.StageSentPre, m.Seq, e.myRound) {
			e.sentSampled = append(e.sentSampled, m.Seq)
		}
	}

	// Phase 2 (§III-B2): update and send the token. From here the update
	// is built in the engine-owned outTok; the received token stays
	// untouched.
	out := &e.outTok
	newSeq := recvSeq + uint64(numToSend)
	out.RingID = t.RingID
	out.Seq = newSeq
	out.Aru = t.Aru
	out.AruID = t.AruID
	e.updateAru(out, recvAru, recvSeq, newSeq)
	out.Fcc = flowcontrol.NextFcc(uint32(recvFcc), e.lastRoundSent, numRetrans+numToSend)
	out.Rtr = e.appendRequests(remaining, recvSeq)
	out.TokenSeq = t.TokenSeq + 1
	out.Round = t.Round
	if e.ringIdx == 0 {
		out.Round++
	}
	e.aruSentPrev = e.aruSentThis
	e.aruSentThis = out.Aru
	e.lastSent = out
	e.out.SendToken(out)
	tokSent := e.obs.Now()
	e.obs.Record(obs.Event{
		Kind: obs.FlightTokenTx, At: tokSent, Round: e.myRound, Pre: pre,
		Seq: out.Seq, Aru: out.Aru, Fcc: out.Fcc, Count: len(out.Rtr),
	})

	// Phase 3 (§III-B3): post-token multicasting.
	for _, m := range newMsgs[pre:] {
		m.Flags |= wire.FlagPostToken
		e.out.Multicast(m)
		if e.obs.Stamp(obs.StageSentPost, m.Seq, e.myRound) {
			e.sentSampled = append(e.sentSampled, m.Seq)
		}
	}

	// Phase 4 (§III-B4): deliver and discard.
	if min := minU64(e.aruSentThis, e.aruSentPrev); min > e.safeLine {
		e.safeLine = min
	}
	e.deliverReady()
	e.discardStable()

	e.lastRoundSent = numToSend + numRetrans
	e.prevRecvSeq = recvSeq
	e.dataPriority = true

	if e.obs != nil {
		e.obs.OnRound(obs.RoundTrace{
			At:            tokStart,
			Round:         e.myRound,
			TokenSeq:      recvTokenSeq,
			RecvSeq:       recvSeq,
			SentSeq:       newSeq,
			Aru:           out.Aru,
			Fcc:           out.Fcc,
			New:           numToSend,
			Pre:           pre,
			Post:          numToSend - pre,
			Retransmitted: numRetrans,
			Requested:     int(e.counters.Requested - requestedBefore),
			Hold:          tokSent.Sub(tokStart),
		})
	}
}

// answerRetransmissions multicasts requested messages this participant
// holds, up to budget, and returns how many it sent plus the requests it
// did not answer (missing here, or beyond the budget — those stay on the
// token so they are served in a later round or by another holder). The
// returned slice aliases engine scratch and is valid until the next round.
func (e *Engine) answerRetransmissions(rtr []uint64, budget int) (int, []uint64) {
	if len(rtr) == 0 {
		return 0, nil
	}
	n := 0
	var firstAns uint64
	remaining := e.remScratch[:0]
	for _, seq := range rtr {
		if seq <= e.buf.Floor() {
			// Stable at this participant: every member already has it;
			// the request is stale. Drop it.
			continue
		}
		if d := e.buf.Get(seq); d != nil && n < budget {
			rd := &e.rtScratch
			*rd = *d
			rd.Flags |= wire.FlagRetrans
			rd.Flags &^= wire.FlagPostToken
			e.out.Multicast(rd)
			e.counters.Retransmitted++
			if n == 0 {
				firstAns = seq
			}
			n++
			e.obs.Stamp(obs.StageRetransmit, seq, e.myRound)
			continue
		}
		remaining = append(remaining, seq)
	}
	e.remScratch = remaining
	if n > 0 {
		e.obs.Record(obs.Event{Kind: obs.FlightRetransAns, Seq: firstAns, Count: n})
	}
	return n, remaining
}

// takeMessages dequeues n pending payloads and stamps them with final
// sequence numbers starting at afterSeq+1 and the current round.
func (e *Engine) takeMessages(n int, afterSeq uint64) []*wire.Data {
	if n == 0 {
		return nil
	}
	msgs := e.msgScratch[:0]
	for i := 0; i < n; i++ {
		p := e.sendQ[i]
		seq := afterSeq + uint64(i) + 1
		if !p.at.IsZero() {
			if e.submitAt == nil {
				e.submitAt = make(map[uint64]time.Time)
			}
			e.submitAt[seq] = p.at
		}
		if !p.held.IsZero() {
			// The payload waited in a packing bundle before it could be
			// submitted; backdate a pack stage to the hold start so the
			// span attributes that wait separately.
			e.obs.StampAt(obs.StagePack, seq, e.myRound, p.held, "")
		}
		// Submit stage carries the original submit time when the observer
		// has a clock, so spans show queueing delay too.
		e.obs.StampAt(obs.StageSubmit, seq, e.myRound, p.at, "")
		m := e.getData()
		*m = wire.Data{
			RingID:  e.cfg.Ring.ID,
			Seq:     seq,
			Sender:  e.cfg.Self,
			Round:   e.myRound,
			Service: p.service,
			Flags:   p.flags,
			Payload: p.payload,
		}
		msgs = append(msgs, m)
	}
	e.msgScratch = msgs
	// Release references promptly; keep the tail.
	copy(e.sendQ, e.sendQ[n:])
	for i := len(e.sendQ) - n; i < len(e.sendQ); i++ {
		e.sendQ[i] = pending{}
	}
	e.sendQ = e.sendQ[:len(e.sendQ)-n]
	e.counters.Sent += uint64(n)
	return msgs
}

// updateAru applies the aru rules of §III-B2. The token's AruID records
// who lowered the aru; only that participant may raise it again, which
// realizes "the received token's aru has not changed since the participant
// lowered it".
func (e *Engine) updateAru(t *wire.Token, recvAru, recvSeq, newSeq uint64) {
	myAru := e.buf.Aru()
	switch {
	case myAru < recvAru:
		t.Aru = myAru
		t.AruID = e.cfg.Self
	case t.AruID == e.cfg.Self:
		t.Aru = myAru
		if t.Aru >= newSeq {
			t.Aru = newSeq
			t.AruID = 0
		}
	case recvAru == recvSeq:
		t.Aru = newSeq
	}
}

// appendRequests adds this participant's missing sequence numbers to the
// unanswered requests, respecting the variant's horizon: the previous
// round's token seq for the accelerated protocol (one round late, so the
// messages are guaranteed to have been sent), the current token's seq for
// the original protocol.
func (e *Engine) appendRequests(remaining []uint64, recvSeq uint64) []uint64 {
	horizon := recvSeq
	if e.cfg.DelayedRequests {
		horizon = e.prevRecvSeq
	}
	// Copy into the engine-owned request scratch: the outgoing token's Rtr
	// must not alias remScratch (reused next round) or caller memory.
	out := append(e.reqScratch[:0], remaining...)
	if len(remaining) > 0 {
		// Dedup set, only needed when there are unanswered requests.
		// Lookups on the nil map below are fine when it stays empty.
		if e.haveScratch == nil {
			e.haveScratch = make(map[uint64]struct{}, len(remaining))
		}
		clear(e.haveScratch)
		for _, s := range remaining {
			e.haveScratch[s] = struct{}{}
		}
	}
	before := len(out)
	budget := e.cfg.MaxRtrPerRound
	for seq := e.buf.Aru() + 1; seq <= horizon && budget > 0; seq++ {
		if e.buf.Has(seq) {
			continue
		}
		if len(remaining) > 0 {
			if _, dup := e.haveScratch[seq]; dup {
				continue
			}
		}
		out = append(out, seq)
		budget--
		e.obs.Stamp(obs.StageRtrRequest, seq, e.myRound)
		if len(out) >= wire.MaxRtr {
			break
		}
	}
	e.counters.Requested += uint64(len(out) - before)
	if added := len(out) - before; added > 0 {
		e.obs.Record(obs.Event{Kind: obs.FlightRetransReq, Seq: out[before], Count: added})
	}
	e.reqScratch = out
	return out
}

// deliverReady delivers messages in strict sequence order: a message is
// delivered once all lower-sequenced messages are delivered and, for Safe
// service, once its sequence is at or below the stability line. An
// undeliverable safe message blocks everything behind it — that is what
// total order means.
func (e *Engine) deliverReady() {
	before := e.delivered
	for {
		next := e.delivered + 1
		d := e.buf.Get(next)
		if d == nil {
			break
		}
		if d.Service.NeedsStability() && next > e.safeLine {
			break
		}
		e.out.Deliver(evs.Message{
			Seq:     d.Seq,
			Sender:  d.Sender,
			Round:   d.Round,
			Service: d.Service,
			Config:  e.cfg.Ring.ID,
			Control: d.Control(),
			Payload: d.Payload,
		})
		e.delivered = next
		e.counters.Delivered++
		if e.obs != nil {
			var lat time.Duration
			if at, ok := e.submitAt[next]; ok {
				delete(e.submitAt, next)
				lat = e.obs.Now().Sub(at)
			}
			e.obs.OnDeliver(d.Service.String(), lat)
			e.obs.StampAt(obs.StageDeliver, next, d.Round, time.Time{}, d.Service.String())
		}
	}
	if e.obs != nil && e.delivered > before {
		e.obs.Record(obs.Event{Kind: obs.FlightDeliver, Seq: e.delivered, Count: int(e.delivered - before)})
	}
}

// discardStable drops messages every member has received (seq <= the safe
// line). deliverReady has always delivered them first: the safe line never
// exceeds the local aru, below which there are no gaps.
func (e *Engine) discardStable() {
	upTo := minU64(e.safeLine, e.delivered)
	if upTo <= e.buf.Floor() {
		return
	}
	// Discard errors cannot occur: upTo <= safeLine <= aru by construction.
	// Dropped structs go back on the free list, received frames to the
	// Releaser.
	_, _ = e.buf.DiscardFunc(upTo, e.discardFn)
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
