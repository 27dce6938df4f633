package ringnode

import (
	"fmt"
	"time"

	"accelring/internal/core"
	"accelring/internal/evs"
	"accelring/internal/flowcontrol"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/pack"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// Config configures a node.
type Config struct {
	// Self is this participant's ID.
	Self evs.ProcID
	// Transport moves frames; the node takes ownership and closes it on
	// Stop.
	Transport transport.Transport
	// Windows are the protocol's flow-control parameters.
	Windows flowcontrol.Windows
	// Priority is the token-priority method (defaults to aggressive).
	Priority core.PriorityMethod
	// DelayedRequests selects the accelerated retransmission rule.
	DelayedRequests bool
	// Timeouts are the membership timing parameters (defaults applied).
	Timeouts membership.Timeouts
	// OnEvent receives the delivery stream (messages and configuration
	// changes) on the protocol goroutine; when OnMessage is set, only the
	// configuration changes. It must not block for long and must not call
	// back into the Node except Submit, which only queues. A message's
	// Payload is valid until the callback returns: once the message is
	// stable its frame goes back to the host for reuse. A consumer that
	// keeps payloads longer copies them, or is the step's Holder.
	OnEvent func(evs.Event)
	// OnMessage, when set, receives every ordered message instead of
	// OnEvent, as the evs.Message it is rather than boxed into an
	// evs.Event (an allocation per message), and each message of a packed
	// bundle in its own call. OnEvent's rules hold for it.
	OnMessage func(evs.Message)
	// Observer receives protocol metrics and events. If set and its
	// Clock is nil, the node installs time.Now so hold times and delivery
	// latencies are measured. Nil disables observation.
	Observer *obs.RingObserver
	// Packing enables adaptive small-message packing: submissions are
	// bundled up to pack.DefaultLimit bytes and the bundle is held open
	// only while a send backlog already hides the wait (and never past
	// pack.DefaultMaxDelay, checked at the next protocol event). At low
	// rate every message flushes immediately. All ring members must agree
	// on whether packing is enabled — with it on, every data payload
	// travels in the bundle wire format and receivers unpack on delivery.
	Packing bool
}

// Accelerated returns a Config for the Accelerated Ring protocol.
func Accelerated(self evs.ProcID, tr transport.Transport, personal, global, accelerated int) Config {
	return Config{
		Self:      self,
		Transport: tr,
		Windows: flowcontrol.Windows{
			Personal: personal, Global: global, Accelerated: accelerated,
		},
		Priority:        core.PriorityAggressive,
		DelayedRequests: true,
	}
}

// Original returns a Config for the original Ring protocol.
func Original(self evs.ProcID, tr transport.Transport, personal, global int) Config {
	return Config{
		Self:      self,
		Transport: tr,
		Windows:   flowcontrol.Windows{Personal: personal, Global: global},
		Priority:  core.PriorityConservative,
	}
}

// ForRing derives the configuration of one ring instance of a multi-ring
// node from a base template: protocol parameters (Self, windows, priority,
// timeouts) are inherited. When the base carries an observer, the
// instance gets its own: same registry and clock, but a "shard<ring>"
// label so every metric series and round trace stays separable per ring.
// internal/shard instantiates this N times and fills in each ring's
// transport and event sink; a single ring uses the base as it is.
func (c Config) ForRing(ring int) Config {
	rc := c
	if base := c.Observer; base != nil {
		rc.Observer = &obs.RingObserver{
			Reg:   base.Reg,
			Clock: base.Clock,
			Label: fmt.Sprintf("shard%d", ring),
			// Message tracing is per-ring (sequence numbers, the span
			// key, are) at the base's sampling rate; the flight recorder
			// is shared — events carry the shard label.
			Msg:    base.Msg.Fresh(),
			Flight: base.Flight,
		}
	}
	return rc
}

// Status is a snapshot of the node's protocol state.
type Status struct {
	State membership.State
	Ring  evs.Configuration
	// Engine holds the ordering engine's counters for the current ring
	// (zero before the first ring forms).
	Engine core.Counters
	// Membership holds the membership algorithm's counters.
	Membership membership.Counters
	// QueueLen is the number of submissions not yet sent; callers can use
	// it for backpressure.
	QueueLen int
	// TokenParks counts the quiet tokens this step held as the ring's
	// leader, and TokenParked the time it held them, both released ones
	// only.
	TokenParks  uint64
	TokenParked time.Duration
}

// Sender is what a step sends through, borrowing each frame for the call;
// transport.Transport satisfies it. A Sender may hold multicasts back
// until its next Unicast, if it is a Flusher until its Flush.
type Sender interface {
	Multicast(frame []byte) error
	Unicast(to evs.ProcID, frame []byte) error
}

// Flusher is a Sender that holds multicasts back (a transport.Stager's
// run): Flush sends them. The step flushes before each delivery callback
// and at the end of NewStep and of every input, so no frame stays held
// once the call that sent it returns, and none waits on the application.
type Flusher interface {
	Flush()
}

// Recycler is a Sender that takes back the data frames Data retained and
// the payloads SubmitOwned took. Recycle gets each one once the ring has
// discarded its message as stable and delivered and the Holder no longer
// reads its payload (a payload packing copied, at once); the step never
// reads it again. Without a Recycler they go to the garbage collector.
type Recycler interface {
	Recycle(frame []byte)
}

// Holder is a delivery consumer (OnMessage or OnEvent) that reads message
// payloads after the callback has returned and lets go of them in
// delivery order (groupcore's merge queue). HeldFrom returns the delivery
// position of the oldest message whose payload it still reads — its
// configuration's ViewID.Seq and its Seq — with ok false when it reads
// none. The step recycles no frame at or past that position. Any
// goroutine may call it.
type Holder interface {
	HeldFrom() (cfg, seq uint64, ok bool)
}

// freedFrame is a retained frame the machine released, at its message's
// delivery position.
type freedFrame struct {
	cfg, seq uint64
	frame    []byte
}

// Step is one participant's protocol, passive (see the package comment):
// its inputs each carry the host's now, and its effects leave through the
// Sender and Config.OnMessage/OnEvent. Not safe for concurrent use.
type Step struct {
	machine *membership.Machine
	bundle  *pack.Adaptive // nil when packing is off
	out     Sender
	// flush sends what out holds back (nil: out is not a Flusher).
	flush func()
	// onMessage receives each message, onEvent each configuration change
	// (nil: none).
	onMessage func(evs.Message)
	onEvent   func(evs.Event)
	// stampFlush is bound once so draining sampled sends allocates nothing.
	stampFlush func(seq uint64)
	obs        *obs.RingObserver

	// The park: as the ring's leader, the step holds a copy of a token
	// that closed a quiet rotation (membership.Machine.QuietToken) in
	// parked, from parkedAt until the first submit, frame, or Tick at or
	// past parkUntil (zero when nothing is parked). fwdAt is when the step
	// last handed a token to the machine; parks and parkedFor count the
	// released parks.
	parked                     []byte
	parkedAt, parkUntil, fwdAt time.Time
	parks                      uint64
	parkedFor                  time.Duration

	// Frame recycling: the machine releases each retained frame whose
	// message its ring discarded; freed keeps them, oldest first, until
	// hold lets go of their payloads, and recycle hands them to the host
	// (nil when the Sender is not a Recycler).
	recycle func(frame []byte)
	hold    Holder
	freed   []freedFrame
}

// NewStep builds cfg's step at time now, sending through out rather than
// cfg.Transport.
func NewStep(cfg Config, out Sender, now time.Time) (*Step, error) {
	s := &Step{out: out, onMessage: cfg.OnMessage, onEvent: cfg.OnEvent, obs: cfg.Observer}
	if s.onMessage == nil {
		// Wrapped once here, so delivery has one path and no branch.
		s.onMessage = func(evs.Message) {}
		if on := cfg.OnEvent; on != nil {
			s.onMessage = func(m evs.Message) { on(m) }
		}
	}
	if r, ok := out.(Recycler); ok {
		s.recycle = r.Recycle
	}
	if f, ok := out.(Flusher); ok {
		s.flush = f.Flush
	}
	if cfg.Packing {
		s.bundle = pack.NewAdaptive()
	}
	o := cfg.Observer
	s.stampFlush = func(seq uint64) { o.Stamp(obs.StageBatchFlush, seq, 0) }
	m, err := membership.New(membership.Config{
		Self:            cfg.Self,
		Windows:         cfg.Windows,
		Priority:        cfg.Priority,
		DelayedRequests: cfg.DelayedRequests,
		Timeouts:        cfg.Timeouts,
		Observer:        o,
	}, machineOut{s}, now)
	if err != nil {
		return nil, err
	}
	s.machine = m
	s.flushOut() // the machine's first Join
	return s, nil
}

// Hold makes h the step's Holder; the host calls it before the first
// input.
func (s *Step) Hold(h Holder) { s.hold = h }

// Machine returns the step's membership machine (read-only use).
func (s *Step) Machine() *membership.Machine { return s.machine }

// DataPriority reports whether a host holding frames of both classes
// should feed the data frame first (§III-D/E).
func (s *Step) DataPriority() bool { return s.machine.DataPriority() }

// Status returns a snapshot of the protocol state.
func (s *Step) Status() Status {
	st := Status{
		State:       s.machine.State(),
		Ring:        s.machine.Ring(),
		Membership:  s.machine.Counters(),
		TokenParks:  s.parks,
		TokenParked: s.parkedFor,
	}
	if eng := s.machine.Engine(); eng != nil {
		st.Engine = eng.Counters()
		st.QueueLen = eng.QueueLen()
	}
	return st
}

// Data handles one data-class frame and reports whether the step retained
// it (see membership.Machine.HandleDataFrame): then the host must not
// reuse it until the step recycles it (Recycler). A parked token is
// released before the frame is handled.
func (s *Step) Data(frame []byte, now time.Time) (retained bool) {
	s.flushExpired(now)
	s.release(now)
	retained = s.machine.HandleDataFrame(frame, now)
	s.wireFlush()
	return retained
}

// Token handles one token-class frame; the step never retains it. A
// token the ring's leader may park is held instead (see ParkDeadline).
func (s *Step) Token(frame []byte, now time.Time) {
	s.release(now)
	// The token triggers this round's sends: anything staged in the
	// bundler must reach the engine's send queue first or it misses the
	// round.
	s.flushPack()
	if hold := min(now.Sub(s.fwdAt), pack.DefaultMaxDelay); hold > 0 && s.machine.QuietToken(frame) {
		s.parked = append(s.parked[:0], frame...)
		s.parkedAt, s.parkUntil = now, now.Add(hold)
		s.wireFlush() // what a token released above sent
		return
	}
	s.machine.HandleTokenFrame(frame, now)
	s.fwdAt = now
	s.wireFlush()
}

// ParkDeadline returns when Tick releases the parked token, or the zero
// time when none is parked. A host with a parked token arms a timer for
// it; any submit or frame releases the token earlier.
//
// Only the ring's leader parks, and only a token that closed a rotation
// in which nothing happened, for as long as that rotation took and never
// longer than pack.DefaultMaxDelay: to the other members a parked token
// is a slow hop, far inside the membership timers.
func (s *Step) ParkDeadline() time.Time { return s.parkUntil }

// release hands the parked token, if any, to the machine as if it had
// just arrived; the caller ends the input with wireFlush.
func (s *Step) release(now time.Time) {
	if s.parkUntil.IsZero() {
		return
	}
	held := now.Sub(s.parkedAt)
	s.parkUntil = time.Time{}
	s.parks++
	s.parkedFor += held
	s.obs.OnPark(held)
	s.flushPack()
	s.machine.HandleTokenFrame(s.parked, now)
	s.fwdAt = now
}

// Check refuses, from any goroutine, what Submit would on a formed ring: a
// bad service, or a payload too big for a frame less the solo framing.
func (s *Step) Check(n int, service evs.Service) error {
	if !service.Valid() {
		return fmt.Errorf("ringnode: invalid service %d", service)
	}
	if n > wire.MaxPayload || s.bundle != nil && n > wire.MaxPayload-pack.SoloOverhead {
		return core.ErrPayloadTooLarge
	}
	return nil
}

// Submit queues a payload for totally ordered multicast with the given
// service — through the bundler when packing is enabled. The payload must
// not be mutated afterwards. It fails with membership.ErrNotOperational
// before the first ring forms, and as Check does.
func (s *Step) Submit(payload []byte, service evs.Service, now time.Time) error {
	return s.submit(payload, service, false, now)
}

// SubmitOwned is Submit handing payload over, refused or not: the step
// gives it to the Recycler once, as Recycler says, and otherwise leaves it
// to the collector.
func (s *Step) SubmitOwned(payload []byte, service evs.Service, now time.Time) error {
	return s.submit(payload, service, true, now)
}

func (s *Step) submit(payload []byte, service evs.Service, owned bool, now time.Time) (err error) {
	s.flushExpired(now)
	if err = s.Check(len(payload), service); err != nil {
		return err
	}
	switch {
	case !s.machine.CanSubmit():
		return membership.ErrNotOperational
	case s.bundle == nil:
		err = s.machine.SubmitHeld(payload, service, time.Time{}, owned)
	case s.bundle.Oversize(len(payload)):
		// Too big to ever share a frame: solo-framed, so every payload on
		// a packed ring speaks the bundle format, and queued behind the
		// open bundle, so the sender's order holds. The fresh allocation
		// is required — the engine retains submitted payloads zero-copy.
		s.flushPack()
		err = s.machine.Submit(pack.AppendSolo(make([]byte, 0, len(payload)+pack.SoloOverhead), payload), service)
	case !s.bundle.Add(payload, uint8(service), now):
		// Bundle full or service-class change: close it out first. An
		// empty bundle accepts any non-oversize payload, so the retry
		// cannot fail.
		s.flushPack()
		s.bundle.Add(payload, uint8(service), now)
	}
	if owned && s.bundle != nil && s.recycle != nil {
		s.recycle(payload) // copied into the bundle or the solo frame
	}
	s.maybeFlushPack(now)
	if err == nil && !s.parkUntil.IsZero() {
		// The message rides the parked token.
		s.release(now)
		s.wireFlush()
	}
	return err
}

// Tick drives the membership timers, and releases a parked token at or
// past ParkDeadline; hosts call it a few times per JoinInterval and when
// the park deadline passes.
func (s *Step) Tick(now time.Time) {
	s.flushExpired(now)
	if !s.parkUntil.IsZero() && !now.Before(s.parkUntil) {
		s.release(now)
	}
	s.machine.Tick(now)
	s.wireFlush()
}

// wireFlush ends every frame and tick: the Sender's held multicasts go
// out, every sampled message sent since the last one gets its
// batch-flush stamp, the instant the burst it rode in is on the wire, so
// spans separate the send burst from network time. Then the freed frames
// the holder lets go of go back to the host.
func (s *Step) wireFlush() {
	s.flushOut()
	s.machine.DrainSampledSent(s.stampFlush)
	s.recycleFreed()
}

// flushOut sends what the Sender holds back.
func (s *Step) flushOut() {
	if s.flush != nil {
		s.flush()
	}
}

// recycleFreed hands the host every freed frame, oldest first, up to the
// first one whose payload the holder may still read.
func (s *Step) recycleFreed() {
	if len(s.freed) == 0 {
		return
	}
	n := len(s.freed)
	if s.hold != nil {
		if cfg, seq, ok := s.hold.HeldFrom(); ok {
			n = 0
			for n < len(s.freed) && (s.freed[n].cfg < cfg || s.freed[n].cfg == cfg && s.freed[n].seq < seq) {
				n++
			}
		}
	}
	for _, f := range s.freed[:n] {
		s.recycle(f.frame)
	}
	kept := copy(s.freed, s.freed[n:])
	clear(s.freed[kept:])
	s.freed = s.freed[:kept]
}

// flushPack submits the open bundle to the machine. CanSubmit was checked
// when the bundle opened and can never revert, and the bundle is bounded
// well under the engine's payload cap, so the submit cannot fail.
func (s *Step) flushPack() {
	if s.bundle == nil || s.bundle.Empty() {
		return
	}
	svc := evs.Service(s.bundle.Service())
	held := s.bundle.Since()
	if b := s.bundle.Flush(); b != nil {
		_ = s.machine.SubmitHeld(b, svc, held, false)
	}
}

// flushExpired flushes a bundle past its latency bound, whatever the
// backlog: every input checks, so the bound holds at input granularity.
func (s *Step) flushExpired(now time.Time) {
	if s.bundle != nil && s.bundle.Expired(now) {
		s.flushPack()
	}
}

// maybeFlushPack flushes the open bundle unless holding it is free: with
// a backlog already waiting for the token, later submissions can join
// the bundle without adding latency. An idle queue means the bundle
// would be the next thing sent, so it goes immediately — packing engages
// under load and stays out of the way at low rate. pack.DefaultMaxDelay
// bounds the hold regardless of backlog.
func (s *Step) maybeFlushPack(now time.Time) {
	if s.bundle == nil || s.bundle.Empty() {
		return
	}
	eng := s.machine.Engine()
	if eng == nil || eng.QueueLen() == 0 || s.bundle.Expired(now) {
		s.flushPack()
	}
}

// machineOut adapts the membership machine's effects to the sender and
// the application callback.
type machineOut struct{ s *Step }

// Send errors are UDP-like losses; the protocol recovers.
func (o machineOut) Multicast(frame []byte) { _ = o.s.out.Multicast(frame) }

func (o machineOut) Unicast(to evs.ProcID, frame []byte) { _ = o.s.out.Unicast(to, frame) }

// Release queues a frame the ring let go of for recycleFreed.
func (o machineOut) Release(d *wire.Data) {
	if s := o.s; s.recycle != nil {
		s.freed = append(s.freed, freedFrame{cfg: d.RingID.Seq, seq: d.Seq, frame: d.Frame})
	}
}

func (o machineOut) Deliver(m evs.Message) {
	s := o.s
	s.flushOut() // the round's sends leave before the application runs
	if s.bundle != nil && pack.IsBundle(m.Payload) {
		// Fan the bundle out as one message per packed message, in
		// packing order. Sub-payloads alias the delivered payload and are
		// valid exactly as long as it is.
		if err := pack.Each(m.Payload, func(msg []byte) {
			sub := m
			sub.Payload = msg
			s.onMessage(sub)
		}); err == nil {
			return
		}
		// A corrupt bundle means a peer without packing shares the ring
		// (a misconfiguration); deliver the raw payload rather than lose
		// it.
	}
	s.onMessage(m)
}

func (o machineOut) Configure(cc evs.ConfigChange) {
	o.s.flushOut()
	if o.s.onEvent != nil {
		o.s.onEvent(cc)
	}
}
