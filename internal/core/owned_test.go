package core

import (
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/wire"
)

// releaseOut is a testOut that is a Releaser. It checks that every
// message it takes back is stable and delivered at its engine, and counts
// the returns per frame.
type releaseOut struct {
	*testOut
	t    *testing.T
	eng  *Engine
	back map[*byte]int
}

func (o *releaseOut) Release(d *wire.Data) {
	if d.Seq > o.eng.Delivered() || d.Seq > o.eng.SafeLine() {
		o.t.Fatalf("seq %d released at delivered %d, safe line %d", d.Seq, o.eng.Delivered(), o.eng.SafeLine())
	}
	o.back[&d.Frame[0]]++
}

// TestOwnedSubmitReleasedOnceStable: a payload submitted owned comes back
// through the Releaser as its message's Frame exactly once, and only once
// the message is stable and delivered; a payload submitted plainly never
// comes back.
func TestOwnedSubmitReleasedOnceStable(t *testing.T) {
	ring := ringOf(1, 2, 3)
	mk := func(self evs.ProcID) Config { return Accelerated(self, ring, 5, 100, 3) }
	h := newHarness(t, ring, mk)
	out := &releaseOut{testOut: h.outs[1], t: t, back: map[*byte]int{}}
	eng, err := New(mk(1), out)
	if err != nil {
		t.Fatal(err)
	}
	out.eng, h.engines[1] = eng, eng

	owned := [][]byte{[]byte("o1"), []byte("o2"), []byte("o3")}
	plain := []byte("plain")
	for i, p := range owned {
		svc := evs.Agreed
		if i == 2 {
			svc = evs.Safe
		}
		if err := eng.SubmitHeld(p, svc, time.Time{}, true); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := eng.Submit(plain, evs.Agreed); err != nil {
				t.Fatal(err)
			}
		}
	}
	h.hop() // participant 1 sends all four
	if len(out.back) != 0 {
		t.Fatalf("%d payloads released as they were sent", len(out.back))
	}
	for r := 0; r < 10 && eng.SafeLine() < 4; r++ {
		h.round()
	}
	if eng.SafeLine() < 4 {
		t.Fatalf("safe line %d, want 4", eng.SafeLine())
	}
	h.round()
	h.round()
	for i, p := range owned {
		if n := out.back[&p[0]]; n != 1 {
			t.Fatalf("owned payload %d released %d times, want once", i, n)
		}
	}
	if n := out.back[&plain[0]]; n != 0 || len(out.back) != len(owned) {
		t.Fatalf("the plain payload released %d times, %d frames in all", n, len(out.back))
	}
	h.assertTotalOrder()
}
