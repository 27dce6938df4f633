package ringnode

import (
	"bytes"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/pack"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// recycler is a port whose step recycles the data frames it retained and
// the payloads it was handed with SubmitOwned. It checks that each one is
// stable and delivered at its step when it comes back, that it comes back
// once, and that the step's holder has let go of it, and counts them.
type recycler struct {
	port
	t    testing.TB
	step *Step
	hold *fixedHold
	seen map[*byte]bool
	n    int
	// owned maps each payload submitted owned to its delivery position at
	// the step (zero until delivered), and ownedBack counts their returns;
	// with packed set one may come back undelivered, copied into a bundle.
	owned     map[*byte]*wire.Data
	ownedBack int
	packed    bool
	// got collects the payloads the step delivered, copied.
	got []string
}

func (r *recycler) Recycle(frame []byte) {
	var d wire.Data
	if pos, ok := r.owned[&frame[0]]; ok {
		r.ownedBack++
		if pos.Seq == 0 && r.packed {
			return
		}
		if d = *pos; d.Seq == 0 {
			r.t.Fatalf("an owned payload came back before its delivery")
		}
	} else if err := d.DecodeFrom(frame); err != nil {
		r.t.Fatalf("recycled frame does not decode: %v", err)
	}
	if eng := r.step.Machine().Engine(); d.Seq > eng.Delivered() || d.Seq > eng.SafeLine() {
		r.t.Fatalf("seq %d recycled at delivered %d, safe line %d", d.Seq, eng.Delivered(), eng.SafeLine())
	}
	if h := r.hold; h != nil && h.ok && (d.RingID.Seq > h.cfg || d.RingID.Seq == h.cfg && d.Seq >= h.seq) {
		r.t.Fatalf("seq %d recycled while the holder reads from %d", d.Seq, h.seq)
	}
	if r.seen[&frame[0]] {
		r.t.Fatalf("seq %d recycled twice", d.Seq)
	}
	r.seen[&frame[0]] = true
	r.n++
}

// fixedHold is a Holder that reads everything from (cfg, seq) on while ok.
type fixedHold struct {
	cfg, seq uint64
	ok       bool
}

func (h *fixedHold) HeldFrom() (uint64, uint64, bool) { return h.cfg, h.seq, h.ok }

// newRecyclingRing is newStepRing with every step's port a recycler.
func newRecyclingRing(t *testing.T, n int, edit func(*Config)) (*testRing, []*Step, []*recycler) {
	r := &testRing{now: time.Unix(1000, 0)}
	var steps []*Step
	var recs []*recycler
	for i := 0; i < n; i++ {
		cfg := Accelerated(evs.ProcID(i+1), nil, 10, 100, 7)
		cfg.Timeouts = fastTimeouts()
		if edit != nil {
			edit(&cfg)
		}
		rec := &recycler{port: port{w: &r.w, id: cfg.Self}, t: t, seen: map[*byte]bool{}, owned: map[*byte]*wire.Data{}}
		cfg.OnMessage = func(m evs.Message) {
			rec.got = append(rec.got, string(m.Payload))
			if pos := rec.owned[&m.Payload[0]]; pos != nil {
				pos.RingID, pos.Seq = m.Config, m.Seq
			}
		}
		s, err := NewStep(cfg, rec, r.now)
		if err != nil {
			t.Fatal(err)
		}
		rec.step = s
		steps, recs = append(steps, s), append(recs, rec)
		r.ps = append(r.ps, s)
	}
	return r, steps, recs
}

// TestStepRecyclesStableFrames: every data frame a step retained comes
// back to its host exactly once, after its message is stable and
// delivered there; the sender retained none of its own. Besides node 1's
// messages each node retained the recovery-done markers the two others
// ordered when the ring was installed.
func TestStepRecyclesStableFrames(t *testing.T) {
	const msgs, markers = 50, 2
	r, steps, recs := newRecyclingRing(t, 3, nil)
	r.form(t)
	for i := 0; i < msgs; i++ {
		if err := steps[0].Submit([]byte{byte(i)}, evs.Agreed, r.now); err != nil {
			t.Fatal(err)
		}
	}
	r.run(t, func() bool { return recs[1].n == msgs+markers && recs[2].n == msgs+markers })
	r.run(t, func() bool { return len(r.w.q) == 0 })
	if recs[0].n != markers {
		t.Fatalf("the sender recycled %d frames, want the %d markers", recs[0].n, markers)
	}
	for i, s := range steps {
		if len(s.freed) != 0 {
			t.Fatalf("step %d still keeps %d freed frames", i+1, len(s.freed))
		}
	}
}

// TestStepHolderKeepsFrames: a step recycles no frame at or past the
// position its holder still reads, and recycles those at its next input
// once the holder lets go.
func TestStepHolderKeepsFrames(t *testing.T) {
	const msgs, markers, heldFrom = 50, 2, 20
	r, steps, recs := newRecyclingRing(t, 3, nil)
	r.form(t)
	hold := &fixedHold{cfg: steps[1].Machine().Ring().ID.Seq, seq: heldFrom, ok: true}
	steps[1].Hold(hold)
	recs[1].hold = hold
	for i := 0; i < msgs; i++ {
		if err := steps[0].Submit([]byte{byte(i)}, evs.Agreed, r.now); err != nil {
			t.Fatal(err)
		}
	}
	last := uint64(msgs + 3) // after the three markers
	r.run(t, func() bool { return recs[2].n == msgs+markers && steps[1].Machine().Engine().SafeLine() >= last })
	if want := heldFrom - 2; recs[1].n != want {
		t.Fatalf("holder reading from seq %d: %d frames recycled, want %d (seqs 1 and 3, then 4 to %d)",
			heldFrom, recs[1].n, want, heldFrom-1)
	}
	hold.ok = false
	r.run(t, func() bool { return recs[1].n == msgs+markers })
}

// submitOwned hands step s of r the payloads ps with SubmitOwned,
// registering each with rec.
func submitOwned(t *testing.T, r *testRing, s *Step, rec *recycler, ps ...[]byte) {
	t.Helper()
	for _, p := range ps {
		rec.owned[&p[0]] = new(wire.Data)
		if err := s.SubmitOwned(p, evs.Agreed, r.now); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStepHolderKeepsOwnedPayloads: the payloads a step was handed with
// SubmitOwned come back to its host exactly once, each after its message
// is stable and delivered there, none at or past the position the
// holder still reads, and the rest at its next input once the holder
// lets go. Payloads submitted plainly never come back.
func TestStepHolderKeepsOwnedPayloads(t *testing.T) {
	const msgs, heldFrom = 50, 20
	r, steps, recs := newRecyclingRing(t, 3, nil)
	r.form(t)
	hold := &fixedHold{cfg: steps[0].Machine().Ring().ID.Seq, seq: heldFrom, ok: true}
	steps[0].Hold(hold)
	recs[0].hold = hold
	for i := 0; i < msgs; i++ {
		submitOwned(t, r, steps[0], recs[0], []byte{byte(i)})
		if err := steps[0].Submit([]byte{byte(i)}, evs.Agreed, r.now); err != nil {
			t.Fatal(err)
		}
	}
	eng := steps[0].Machine().Engine()
	last := uint64(2*msgs + 3) // after the three markers
	r.run(t, func() bool { return eng.Delivered() >= last && eng.SafeLine() >= last })
	below := 0
	for _, pos := range recs[0].owned {
		if pos.Seq < heldFrom {
			below++
		}
	}
	if below == 0 || recs[0].ownedBack != below {
		t.Fatalf("holder reading from seq %d: %d owned payloads back, want the %d below it", heldFrom, recs[0].ownedBack, below)
	}
	hold.ok = false
	r.run(t, func() bool { return recs[0].ownedBack == msgs })
	r.run(t, func() bool { return len(r.w.q) == 0 })
	if recs[0].ownedBack != msgs {
		t.Fatalf("%d owned payloads back, want %d", recs[0].ownedBack, msgs)
	}
}

// TestPackedOwnedPayloadBackAtCopy: with packing on, a payload handed over
// with SubmitOwned goes back to the host as soon as the bundle, or for one
// too big to share a frame the solo framing, has copied it, and a host
// that reuses it at once changes nothing any member delivers.
func TestPackedOwnedPayloadBackAtCopy(t *testing.T) {
	r, steps, recs := newRecyclingRing(t, 3, func(c *Config) { c.Packing = true })
	r.form(t)
	recs[0].packed = true
	var want []string
	for i, n := range []int{8, pack.DefaultLimit} {
		p := bytes.Repeat([]byte{'a' + byte(i)}, n)
		want = append(want, string(p))
		submitOwned(t, r, steps[0], recs[0], p)
		if recs[0].ownedBack != i+1 {
			t.Fatalf("%d-byte payload: %d owned payloads back after the submit, want %d", n, recs[0].ownedBack, i+1)
		}
		clear(p) // the host reuses it
	}
	r.run(t, func() bool { return len(recs[1].got) == len(want) && len(recs[2].got) == len(want) })
	r.run(t, func() bool { return len(r.w.q) == 0 })
	for i, rec := range recs {
		if !slices.Equal(rec.got, want) {
			t.Fatalf("step %d delivered %d payloads, not the %d submitted intact", i+1, len(rec.got), len(want))
		}
	}
	if recs[0].ownedBack != len(want) {
		t.Fatalf("%d owned payloads back, want %d, once each", recs[0].ownedBack, len(want))
	}
}

// TestHubRingRecyclesDataFrames: on a warmed-up three-node hub ring, the
// receiving nodes' data frames all come back to bufpool, so ordering a
// message misses the pool about never. Before frames were recycled every
// receiver missed once per message. The collector is off while the
// window runs, so the pool keeps what it is given and every miss is a
// buffer nobody returned.
func TestHubRingRecyclesDataFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("orders 2 500 messages on a live ring")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	const warm, window = 500, 2000
	hub := transport.NewHub()
	t.Cleanup(func() { hub.Close() })
	var delivered [3]atomic.Int64
	var nodes []*Node
	for i := range delivered {
		ep, err := hub.Endpoint(evs.ProcID(i+1), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Accelerated(evs.ProcID(i+1), ep, 10, 100, 7)
		cfg.Timeouts = fastTimeouts()
		cfg.OnEvent = func(ev evs.Event) {
			if _, ok := ev.(evs.Message); ok {
				delivered[i].Add(1)
			}
		}
		n, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		nodes = append(nodes, n)
	}
	waitFullRing(t, nodes, 3, 10*time.Second)
	payload := make([]byte, 1350)
	order := func(n int64) {
		t.Helper()
		target := delivered[0].Load() + n
		for sent := int64(0); sent < n; sent++ {
			for nodes[0].Status().QueueLen > 100 {
				time.Sleep(100 * time.Microsecond)
			}
			if err := nodes[0].Submit(payload, evs.Agreed); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(20 * time.Second)
		for i := range delivered {
			for delivered[i].Load() < target {
				if time.Now().After(deadline) {
					t.Fatalf("node %d delivered %d of %d", i+1, delivered[i].Load(), target)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	order(warm)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := bufpool.Snapshot()
	order(window)
	after := bufpool.Snapshot()
	perMsg := float64(after.Misses-before.Misses) / window
	t.Logf("bufpool misses per ordered message: %.3f (gets %d, puts %d)", perMsg, after.Gets-before.Gets, after.Puts-before.Puts)
	if perMsg > 0.1 {
		t.Fatalf("%.3f bufpool misses per ordered message, want about 0", perMsg)
	}
}
