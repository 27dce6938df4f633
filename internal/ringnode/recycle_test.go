package ringnode

import (
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// recycler is a port whose step recycles the data frames it retained. It
// checks that each one is stable and delivered at its step when it comes
// back, that it comes back once, and that the step's holder has let go of
// it, and counts them.
type recycler struct {
	port
	t    testing.TB
	step *Step
	hold *fixedHold
	seen map[*byte]bool
	n    int
}

func (r *recycler) Recycle(frame []byte) {
	var d wire.Data
	if err := d.DecodeFrom(frame); err != nil {
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
func newRecyclingRing(t *testing.T, n int) (*testRing, []*Step, []*recycler) {
	r := &testRing{now: time.Unix(1000, 0)}
	var steps []*Step
	var recs []*recycler
	for i := 0; i < n; i++ {
		cfg := Accelerated(evs.ProcID(i+1), nil, 10, 100, 7)
		cfg.Timeouts = fastTimeouts()
		rec := &recycler{port: port{w: &r.w, id: cfg.Self}, t: t, seen: map[*byte]bool{}}
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
	r, steps, recs := newRecyclingRing(t, 3)
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
	r, steps, recs := newRecyclingRing(t, 3)
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
