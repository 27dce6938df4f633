package ringnode

import (
	"fmt"
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/pack"
	"accelring/internal/wire"
)

// queued is one send on the fake wire: to is 0 for a multicast.
type queued struct {
	from, to evs.ProcID
	frame    []byte
}

// entry is one thing a participant did on the wire: sent a frame of a
// type ("data", "token", "join", "commit").
type entry struct {
	id   evs.ProcID
	what string
}

// fakeWire is a deterministic in-memory network: sends queue in order
// until the test delivers them, and log records what each participant
// did, without allocating once its capacity is reached.
type fakeWire struct {
	q   []queued
	log []entry
}

// count returns how many entries of log are id doing what.
func count(log []entry, id evs.ProcID, what string) int {
	n := 0
	for _, e := range log {
		if e == (entry{id, what}) {
			n++
		}
	}
	return n
}

// port is one participant's Sender on a fakeWire.
type port struct {
	w  *fakeWire
	id evs.ProcID
}

func (p *port) Multicast(frame []byte) error {
	p.send(0, frame)
	return nil
}

func (p *port) Unicast(to evs.ProcID, frame []byte) error {
	p.send(to, frame)
	return nil
}

func (p *port) send(to evs.ProcID, frame []byte) {
	p.w.q = append(p.w.q, queued{from: p.id, to: to, frame: append([]byte(nil), frame...)})
	kind, _ := wire.PeekType(frame)
	p.w.log = append(p.w.log, entry{p.id, kind.String()})
}

// participant is what a testRing drives: a Step, or a bare machine.
type participant interface {
	Submit(payload []byte, service evs.Service, now time.Time) error
	Data(frame []byte, now time.Time) bool
	Token(frame []byte, now time.Time)
	Tick(now time.Time)
	Machine() *membership.Machine
}

// testRing runs participants 1..n on one fakeWire on an explicit clock.
type testRing struct {
	w   fakeWire
	ps  []participant
	now time.Time
}

// receives reports whether participant id receives f.
func (f queued) receives(id evs.ProcID) bool { return f.to == id || f.to == 0 && f.from != id }

// deliver hands the oldest queued frame to its receivers.
func (r *testRing) deliver() {
	f := r.w.q[0]
	r.w.q = r.w.q[1:]
	for i, p := range r.ps {
		switch {
		case !f.receives(evs.ProcID(i + 1)):
		case f.to == 0:
			p.Data(f.frame, r.now)
		default:
			p.Token(f.frame, r.now)
		}
	}
}

// run delivers frames 10 µs of virtual time apart, ticking every
// participant each millisecond, until cond holds.
func (r *testRing) run(t testing.TB, cond func() bool) {
	t.Helper()
	for i := 1; !cond(); i++ {
		if i > 100000 {
			t.Fatal("condition not reached")
		}
		r.now = r.now.Add(10 * time.Microsecond)
		if i%100 == 0 {
			for _, p := range r.ps {
				p.Tick(r.now)
			}
		} else if len(r.w.q) > 0 {
			r.deliver()
		}
	}
}

// form runs until every participant is operational on one ring of all.
func (r *testRing) form(t testing.TB) {
	r.run(t, func() bool {
		for _, p := range r.ps {
			m := p.Machine()
			if m.State() != membership.StateOperational || len(m.Ring().Members) != len(r.ps) {
				return false
			}
		}
		return true
	})
}

// tokenHeldFor runs until the only queued frame is the token on its way
// to participant id, and takes it off the wire.
func (r *testRing) tokenHeldFor(t testing.TB, id evs.ProcID) []byte {
	r.run(t, func() bool {
		return len(r.w.q) == 1 && r.w.q[0].to == id && r.w.q[0].frame[3] == byte(wire.FrameToken)
	})
	f := r.w.q[0].frame
	r.w.q = nil
	return f
}

// newStepRing builds n steps of Accelerated(10, 100, 7) with fast
// timeouts, edit adjusting each one's Config.
func newStepRing(t testing.TB, n int, edit func(*Config)) (*testRing, []*Step) {
	r := &testRing{now: time.Unix(1000, 0)}
	var steps []*Step
	for i := 0; i < n; i++ {
		cfg := Accelerated(evs.ProcID(i+1), nil, 10, 100, 7)
		cfg.Timeouts = fastTimeouts()
		if edit != nil {
			edit(&cfg)
		}
		s, err := NewStep(cfg, &port{w: &r.w, id: cfg.Self}, r.now)
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, s)
		r.ps = append(r.ps, s)
	}
	return r, steps
}

// TestStepHostOrder pins what a host sees of a step, on explicit time: a
// drain of sampled sends ends every frame and tick, and every submit that
// releases a parked token (no other submit touches the wire);
// maybeFlushPack follows every submit; the open bundle is flushed before
// the token is handled; an expired bundle goes out on the next input,
// whatever the backlog; and DataPriority is the machine's.
func TestStepHostOrder(t *testing.T) {
	tracer := obs.NewMsgTracer(1, 1<<14)
	var r *testRing
	r, steps := newStepRing(t, 2, func(c *Config) {
		c.Packing = true
		if c.Self == 1 {
			c.Observer = &obs.RingObserver{Msg: tracer, Clock: func() time.Time { return r.now }}
		}
	})
	a := steps[0]
	stages := func() (sent, flushed int) {
		for _, ev := range tracer.Snapshot(0) {
			switch ev.Kind {
			case obs.StageSentPre, obs.StageSentPost:
				sent++
			case obs.StageBatchFlush:
				flushed++
			}
		}
		return sent, flushed
	}
	r.w.log = nil
	sawSampled := false
	sawDataPriority := false
	sawRelease := false
	checkInput := func() {
		t.Helper()
		sent, flushed := stages()
		sawSampled = sawSampled || sent > 0
		if sent != flushed {
			t.Fatalf("after an input %d sampled sends but %d batch-flush stamps", sent, flushed)
		}
		if a.DataPriority() != a.Machine().DataPriority() {
			t.Fatal("DataPriority differs from the machine's")
		}
		sawDataPriority = sawDataPriority || a.DataPriority()
	}
	// Formation and some traffic, one input at a time.
	for i := 0; i < 3000; i++ {
		r.now = r.now.Add(10 * time.Microsecond)
		mark := len(r.w.log)
		switch {
		case i%100 == 0:
			a.Tick(r.now)
			checkInput()
		case i%7 == 0 && a.Machine().CanSubmit():
			parked := !a.ParkDeadline().IsZero()
			if err := a.Submit([]byte(fmt.Sprintf("m%d", i)), evs.Agreed, r.now); err != nil {
				t.Fatal(err)
			}
			if got := r.w.log[mark:]; parked {
				sawRelease = sawRelease || len(got) > 0
				checkInput()
			} else if len(got) != 0 {
				t.Fatalf("a submit touched the wire without releasing a park: %v", got)
			}
		case len(r.w.q) > 0:
			toA := r.w.q[0].receives(1)
			r.deliver()
			if toA {
				checkInput()
			}
		}
	}
	r.form(t)
	if !sawSampled {
		t.Fatal("no sampled send was seen; the drain check is vacuous")
	}
	if !sawDataPriority {
		t.Fatal("data never had priority; the DataPriority check is vacuous")
	}
	if !sawRelease {
		t.Fatal("no submit released a parked token; the release check is vacuous")
	}

	// maybeFlushPack follows every submit: with no backlog the bundle goes
	// straight to the engine, behind one it is held.
	tok := r.tokenHeldFor(t, 1)
	if err := a.Submit([]byte("solo"), evs.Agreed, r.now); err != nil {
		t.Fatal(err)
	}
	if q := a.Status().QueueLen; q != 1 {
		t.Fatalf("idle submit left queue length %d, want 1 (flushed)", q)
	}
	if err := a.Submit([]byte("held"), evs.Agreed, r.now); err != nil {
		t.Fatal(err)
	}
	if q := a.Status().QueueLen; q != 1 {
		t.Fatalf("backlogged submit left queue length %d, want 1 (held)", q)
	}
	// An input before pack.DefaultMaxDelay leaves it held; the first one
	// after flushes it, backlog or not.
	r.now = r.now.Add(pack.DefaultMaxDelay - time.Microsecond)
	a.Tick(r.now)
	if q := a.Status().QueueLen; q != 1 {
		t.Fatalf("bundle left before pack.DefaultMaxDelay: queue length %d", q)
	}
	r.now = r.now.Add(time.Microsecond)
	a.Tick(r.now)
	if q := a.Status().QueueLen; q != 2 {
		t.Fatalf("expired bundle still held: queue length %d", q)
	}

	// The bundle is flushed before the token is handled, so it is sent in
	// the token's round.
	if err := a.Submit([]byte("more"), evs.Agreed, r.now); err != nil {
		t.Fatal(err)
	}
	if q := a.Status().QueueLen; q != 2 {
		t.Fatalf("backlogged submit left queue length %d, want 2 (held)", q)
	}
	mark := len(r.w.log)
	a.Token(tok, r.now)
	got := r.w.log[mark:]
	if count(got, 1, "data") != 3 || count(got, 1, "token") != 1 {
		t.Fatalf("token round sent %v, want 3 data and the token", got)
	}
	var payloads []string
	for _, f := range r.w.q {
		d, err := wire.DecodeData(f.frame)
		if err != nil {
			continue
		}
		_ = pack.Each(d.Payload, func(m []byte) { payloads = append(payloads, string(m)) })
	}
	if want := "[solo held more]"; fmt.Sprint(payloads) != want {
		t.Fatalf("token round carried %v, want %s", payloads, want)
	}
}

// TestPackedIdleLatency: with no backlog the bundler must not sit on a
// lone message — it flushes on the no-backlog check, so on virtual time a
// quiet ring delivers it everywhere within pack.DefaultMaxDelay.
func TestPackedIdleLatency(t *testing.T) {
	var got [2][]string
	r, steps := newStepRing(t, 2, func(c *Config) {
		c.Packing = true
		i := c.Self - 1
		c.OnEvent = func(ev evs.Event) {
			if m, ok := ev.(evs.Message); ok {
				got[i] = append(got[i], string(m.Payload))
			}
		}
	})
	r.form(t)
	start := r.now
	if err := steps[0].Submit([]byte("lone"), evs.Agreed, r.now); err != nil {
		t.Fatal(err)
	}
	r.run(t, func() bool { return len(got[0]) > 0 && len(got[1]) > 0 })
	if lat := r.now.Sub(start); lat >= pack.DefaultMaxDelay {
		t.Fatalf("idle-ring packed delivery took %v of virtual time (pack.DefaultMaxDelay %v)", lat, pack.DefaultMaxDelay)
	}
	for i, g := range got {
		if fmt.Sprint(g) != "[lone]" {
			t.Fatalf("node %d delivered %q", i+1, g)
		}
	}
}

// bare drives a membership.Machine directly, as the parity gate's
// reference.
type bare struct{ m *membership.Machine }

func (b bare) Submit(p []byte, svc evs.Service, _ time.Time) error { return b.m.Submit(p, svc) }
func (b bare) Data(f []byte, now time.Time) bool                   { return b.m.HandleDataFrame(f, now) }
func (b bare) Token(f []byte, now time.Time)                       { b.m.HandleTokenFrame(f, now) }
func (b bare) Tick(now time.Time)                                  { b.m.Tick(now) }
func (b bare) Machine() *membership.Machine                        { return b.m }

// bareOut is a bare machine's membership.Output on a port.
type bareOut struct{ p *port }

func (o bareOut) Multicast(f []byte)              { o.p.Multicast(f) }
func (o bareOut) Unicast(to evs.ProcID, f []byte) { o.p.Unicast(to, f) }
func (o bareOut) Deliver(evs.Message)             {}
func (o bareOut) Configure(evs.ConfigChange)      {}

// TestStepAllocParity: on an operational ring, one submit plus a token
// and data round through Step, delivering through OnMessage, allocates
// exactly what the same round through the bare membership.Machine does —
// the split adds no boxing or closure to the hot path.
func TestStepAllocParity(t *testing.T) {
	newBareRing := func() *testRing {
		r := &testRing{now: time.Unix(1000, 0)}
		for i := 0; i < 2; i++ {
			cfg := Accelerated(evs.ProcID(i+1), nil, 10, 100, 7)
			m, err := membership.New(membership.Config{
				Self: cfg.Self, Windows: cfg.Windows, Priority: cfg.Priority,
				DelayedRequests: cfg.DelayedRequests, Timeouts: fastTimeouts(),
			}, bareOut{&port{w: &r.w, id: cfg.Self}}, r.now)
			if err != nil {
				t.Fatal(err)
			}
			r.ps = append(r.ps, bare{m})
		}
		return r
	}
	stepRing, _ := newStepRing(t, 2, func(c *Config) { c.OnMessage = func(evs.Message) {} })
	payload := make([]byte, 64)
	allocs := func(r *testRing) float64 {
		r.form(t)
		tok := r.tokenHeldFor(t, 1)
		return testing.AllocsPerRun(200, func() {
			r.now = r.now.Add(100 * time.Microsecond)
			_ = r.ps[0].Submit(payload, evs.Agreed, r.now)
			r.ps[0].Token(tok, r.now)
			// A's data and token reach B; B's token comes back.
			for len(r.w.q) > 0 && !(len(r.w.q) == 1 && r.w.q[0].to == 1) {
				r.deliver()
			}
			tok = r.w.q[0].frame
			r.w.q = r.w.q[:0]
			r.w.log = r.w.log[:0]
		})
	}
	viaStep, viaMachine := allocs(stepRing), allocs(newBareRing())
	if viaStep != viaMachine {
		t.Fatalf("a round allocates %v through Step, %v through the bare machine", viaStep, viaMachine)
	}
	t.Logf("allocations per round: %v", viaStep)
}

// TestBundleFanOutAllocFree: a delivered bundle of k packed messages
// reaches OnMessage as k messages, in packing order, without allocating.
func TestBundleFanOutAllocFree(t *testing.T) {
	const k = 16
	var payloads [][]byte
	var want []string
	for i := range k {
		want = append(want, fmt.Sprintf("m%02d", i))
		payloads = append(payloads, []byte(want[i]))
	}
	bundles, err := pack.PackAll(pack.DefaultLimit, payloads)
	if err != nil || len(bundles) != 1 {
		t.Fatalf("packing %d messages gave %d bundles (%v)", k, len(bundles), err)
	}
	var got []string
	n := 0
	cfg := Accelerated(1, nil, 10, 100, 7)
	cfg.Packing = true
	cfg.OnMessage = func(m evs.Message) {
		if n++; len(got) < k {
			got = append(got, string(m.Payload))
		}
	}
	s, err := NewStep(cfg, &port{w: &fakeWire{}, id: 1}, time.Unix(1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	bundle := evs.Message{Seq: 1, Sender: 2, Service: evs.Agreed, Payload: bundles[0]}
	out := machineOut{s}
	out.Deliver(bundle)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("bundle delivered %q, want %q", got, want)
	}
	n = 0
	if a := testing.AllocsPerRun(100, func() { out.Deliver(bundle) }); a != 0 {
		t.Fatalf("a bundle of %d messages allocates %v times on its way to OnMessage", k, a)
	}
	if n != 101*k {
		t.Fatalf("OnMessage saw %d messages over 101 bundles of %d", n, k)
	}
}

// TestPackedOversizeKeepsSenderOrder: an oversize payload submitted while
// a bundle is held behind a backlog goes out after that bundle, not ahead
// of it — packing must keep each sender's FIFO order.
func TestPackedOversizeKeepsSenderOrder(t *testing.T) {
	var got []string
	r, steps := newStepRing(t, 2, func(c *Config) {
		c.Packing = true
		if c.Self == 2 {
			c.OnEvent = func(ev evs.Event) {
				if m, ok := ev.(evs.Message); ok {
					got = append(got, fmt.Sprintf("%.5s", m.Payload))
				}
			}
		}
	})
	r.form(t)
	a := steps[0]
	big := append([]byte("big"), make([]byte, pack.DefaultLimit)...)
	for _, p := range [][]byte{[]byte("first"), []byte("held"), big, []byte("after")} {
		if err := a.Submit(p, evs.Agreed, r.now); err != nil {
			t.Fatal(err)
		}
	}
	r.run(t, func() bool { return len(got) == 4 })
	if want := "[first held big\x00\x00 after]"; fmt.Sprint(got) != want {
		t.Fatalf("delivered %q, want %q", fmt.Sprint(got), want)
	}
}
