package core

import (
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/obs"
	"accelring/internal/wire"
)

// These tests pin the zero-allocation hot path: encode, decode, data
// receive, and a full token round must not allocate in steady state.
// They are regression gates, not benchmarks — a change that reintroduces
// a per-frame or per-round allocation fails them deterministically
// instead of quietly shifting a benchmark number.

func TestAllocFreeEncode(t *testing.T) {
	d := wire.Data{
		RingID:  evs.ViewID{Rep: 1, Seq: 1},
		Seq:     1,
		Sender:  1,
		Round:   1,
		Service: evs.Agreed,
		Payload: make([]byte, 1350),
	}
	buf := make([]byte, 0, d.EncodedLen())
	tok := wire.Token{RingID: d.RingID, TokenSeq: 1, Rtr: make([]uint64, 3, 8)}
	tbuf := make([]byte, 0, tok.EncodedLen())
	if n := testing.AllocsPerRun(200, func() {
		buf = d.AppendTo(buf[:0])
		tbuf = tok.AppendTo(tbuf[:0])
	}); n != 0 {
		t.Fatalf("steady-state encode allocates %.1f times per op, want 0", n)
	}
}

func TestAllocFreeDecode(t *testing.T) {
	d := wire.Data{
		RingID:  evs.ViewID{Rep: 1, Seq: 1},
		Seq:     1,
		Sender:  1,
		Round:   1,
		Service: evs.Agreed,
		Payload: make([]byte, 1350),
	}
	frame := d.AppendTo(nil)
	tok := wire.Token{RingID: d.RingID, TokenSeq: 1, Rtr: []uint64{7, 9, 11}}
	tframe := tok.AppendTo(nil)
	var ds wire.Data
	var ts wire.Token
	// Warm up: the token scratch grows its Rtr backing on first decode.
	if err := ts.DecodeFrom(tframe); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := ds.DecodeFrom(frame); err != nil {
			t.Fatal(err)
		}
		if err := ts.DecodeFrom(tframe); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("scratch decode allocates %.1f times per op, want 0", n)
	}
}

// observers are the two ends of the observability switch the hot-path
// gates run under: nothing attached, and everything attached — metrics,
// a clock, every sequence number sampled and the flight recorder on.
var observers = map[string]func() *obs.RingObserver{
	"unobserved": func() *obs.RingObserver { return nil },
	"traced": func() *obs.RingObserver {
		return &obs.RingObserver{
			Reg: obs.NewRegistry(), Clock: time.Now,
			Msg: obs.NewMsgTracer(1, 256), Flight: obs.NewRecorder(256),
		}
	},
}

func TestAllocFreeHandleData(t *testing.T) {
	for name, observer := range observers {
		t.Run(name, func(t *testing.T) { testAllocFreeHandleData(t, observer()) })
	}
}

func testAllocFreeHandleData(t *testing.T, o *obs.RingObserver) {
	ring := ringOf(1, 2)
	cfg := Accelerated(2, ring, 64, 10000, 32)
	cfg.Observer = o
	eng, err := New(cfg, &nullOut{})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1350)
	seq := uint64(0)
	tok := wire.Token{RingID: ring.ID}
	step := func() {
		seq++
		d := wire.Data{
			RingID: ring.ID, Seq: seq, Sender: 1, Round: 1,
			Service: evs.Agreed, Payload: payload,
		}
		eng.HandleData(&d)
		if seq%64 == 0 {
			tok.TokenSeq += 2
			tok.Seq = seq
			tok.Aru = seq
			eng.HandleToken(&tok)
		}
	}
	// Warm up past map growth, free-list priming, and scratch growth.
	for i := 0; i < 64*6; i++ {
		step()
	}
	// The seqbuf map occasionally allocates an overflow bucket even at a
	// bounded working set, so measure the total over many runs rather
	// than requiring every single run to be clean.
	if n := testing.AllocsPerRun(64*20, step); n != 0 {
		t.Fatalf("steady-state HandleData allocates %.2f times per op, want 0", n)
	}
}

func TestAllocFreeTokenRound(t *testing.T) {
	for name, observer := range observers {
		t.Run(name, func(t *testing.T) { testAllocFreeTokenRound(t, observer()) })
	}
}

func testAllocFreeTokenRound(t *testing.T, o *obs.RingObserver) {
	ring := ringOf(1)
	out := &nullOut{}
	const window = 32
	cfg := Accelerated(1, ring, window, 10000, 16)
	cfg.Observer = o
	eng, err := New(cfg, out)
	if err != nil {
		t.Fatal(err)
	}
	stamped := 0
	flushed := func(uint64) { stamped++ }
	payload := make([]byte, 1350)
	step := func() {
		for k := 0; k < window; k++ {
			if err := eng.Submit(payload, evs.Agreed); err != nil {
				t.Fatal(err)
			}
		}
		eng.HandleToken(&out.tok)
		eng.DrainSampledSent(flushed) // as the driver does after its wire flush
	}
	eng.HandleToken(NewInitialToken(ring.ID, 0))
	for i := 0; i < 8; i++ {
		step() // warm up: sendQ backing, msg scratch, free list
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("steady-state token round allocates %.2f times per op, want 0", n)
	}
	if traced := o != nil; traced != (stamped > 0) {
		t.Fatalf("traced=%v but %d sampled sends drained", traced, stamped)
	}
	if o != nil && (o.Msg.Total() == 0 || o.Flight.Total() == 0) {
		t.Fatalf("observer recorded nothing: %d stages, %d flight events", o.Msg.Total(), o.Flight.Total())
	}
}
