package core

import (
	"testing"

	"accelring/internal/evs"
	"accelring/internal/obs"
	"accelring/internal/wire"
)

// obsRig attaches a message tracer (sampling every seq) and a flight
// recorder to every engine of a harness.
type obsRig struct {
	tracers map[evs.ProcID]*obs.MsgTracer
	flights map[evs.ProcID]*obs.Recorder
}

func newObsHarness(t *testing.T, ring evs.Configuration) (*harness, *obsRig) {
	t.Helper()
	rig := &obsRig{
		tracers: make(map[evs.ProcID]*obs.MsgTracer),
		flights: make(map[evs.ProcID]*obs.Recorder),
	}
	h := newHarness(t, ring, func(self evs.ProcID) Config {
		cfg := Accelerated(self, ring, 5, 100, 3)
		rig.tracers[self] = obs.NewMsgTracer(1, 256)
		rig.flights[self] = obs.NewRecorder(256)
		cfg.Observer = &obs.RingObserver{Msg: rig.tracers[self], Flight: rig.flights[self]}
		return cfg
	})
	return h, rig
}

func stagesFor(tr *obs.MsgTracer, seq uint64) map[obs.Kind]int {
	out := make(map[obs.Kind]int)
	for _, ev := range tr.Snapshot(0) {
		if ev.Seq == seq {
			out[ev.Kind]++
		}
	}
	return out
}

// TestEngineMsgLifecycle drives a clean 3-node round and checks the full
// span: the origin records submit -> sent -> deliver, every other member
// records recv -> deliver, for the same (deterministically sampled) seq.
func TestEngineMsgLifecycle(t *testing.T) {
	ring := ringOf(1, 2, 3)
	h, rig := newObsHarness(t, ring)
	h.submit(1, evs.Agreed, "m1", "m2", "m3")
	h.round()
	h.round()
	h.assertTotalOrder()

	for seq := uint64(1); seq <= 3; seq++ {
		origin := stagesFor(rig.tracers[1], seq)
		if origin[obs.StageSubmit] != 1 {
			t.Errorf("seq %d at origin: submit recorded %d times, want 1", seq, origin[obs.StageSubmit])
		}
		if origin[obs.StageSentPre]+origin[obs.StageSentPost] != 1 {
			t.Errorf("seq %d at origin: sent stages = %v, want exactly one send", seq, origin)
		}
		if origin[obs.StageDeliver] != 1 {
			t.Errorf("seq %d at origin: deliver recorded %d times, want 1", seq, origin[obs.StageDeliver])
		}
		for _, id := range []evs.ProcID{2, 3} {
			got := stagesFor(rig.tracers[id], seq)
			if got[obs.StageRecv] != 1 || got[obs.StageDeliver] != 1 {
				t.Errorf("seq %d at member %d: stages = %v, want one recv and one deliver", seq, id, got)
			}
			if got[obs.StageSubmit] != 0 {
				t.Errorf("seq %d at member %d: submit recorded away from origin", seq, id)
			}
		}
	}

	// Every engine's black box saw the token and the delivery batch.
	for _, id := range ring.Members {
		var rx, tx, deliver bool
		for _, ev := range rig.flights[id].Snapshot(0) {
			switch ev.Kind {
			case obs.FlightTokenRx:
				rx = true
			case obs.FlightTokenTx:
				tx = true
			case obs.FlightDeliver:
				deliver = true
			}
		}
		if !rx || !tx || !deliver {
			t.Errorf("member %d flight recorder: token_rx=%v token_tx=%v deliver=%v, want all",
				id, rx, tx, deliver)
		}
	}
}

// TestEngineRetransmissionTracing drops the multicast toward one member
// and checks the repair shows up as spans: the victim records the rtr
// request and a recv via retransmission; some member records answering it.
func TestEngineRetransmissionTracing(t *testing.T) {
	ring := ringOf(1, 2, 3)
	h, rig := newObsHarness(t, ring)
	dropped := false
	h.drop = func(from, to evs.ProcID, d *wire.Data) bool {
		if from == 1 && to == 2 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	h.submit(1, evs.Agreed, "x")
	for i := 0; i < 9; i++ {
		h.hop()
	}
	h.assertTotalOrder()
	if !dropped {
		t.Fatal("drop hook never fired")
	}

	victim := stagesFor(rig.tracers[2], 1)
	if victim[obs.StageRtrRequest] == 0 {
		t.Errorf("victim recorded no rtr_request: %v", victim)
	}
	if victim[obs.StageRecvDup] == 0 {
		t.Errorf("victim's first copy should arrive flagged as a retransmission: %v", victim)
	}
	answered := 0
	for _, id := range ring.Members {
		answered += stagesFor(rig.tracers[id], 1)[obs.StageRetransmit]
	}
	if answered == 0 {
		t.Error("no member recorded answering the retransmission")
	}

	var sawReq, sawAns bool
	for _, id := range ring.Members {
		for _, ev := range rig.flights[id].Snapshot(0) {
			switch ev.Kind {
			case obs.FlightRetransReq:
				sawReq = true
				if ev.Seq != 1 || ev.Count < 1 {
					t.Errorf("rtr_req event = %+v", ev)
				}
			case obs.FlightRetransAns:
				sawAns = true
			}
		}
	}
	if !sawReq || !sawAns {
		t.Errorf("flight recorders: rtr_req=%v rtr_ans=%v, want both", sawReq, sawAns)
	}
}

// TestFlightEventImmuneToScratchReuse pins the aliasing regression from
// the zero-allocation decode path: Token.DecodeFrom reuses the Rtr
// backing array, so a recorded event that kept any reference into the
// token would change when the next frame is decoded over the same
// scratch. Flight events are scalar-only; re-decoding must not touch
// what was recorded.
func TestFlightEventImmuneToScratchReuse(t *testing.T) {
	ring := ringOf(1, 2)
	fr := obs.NewRecorder(16)
	cfg := Accelerated(1, ring, 5, 100, 3)
	cfg.Observer = &obs.RingObserver{Flight: fr}
	eng, err := New(cfg, &testOut{})
	if err != nil {
		t.Fatal(err)
	}

	// A token carrying retransmission requests, decoded into a scratch
	// Token exactly as a transport receive loop would.
	tok := NewInitialToken(ring.ID, 10)
	tok.TokenSeq, tok.Seq, tok.Aru, tok.Fcc = 7, 10, 10, 3
	tok.Rtr = []uint64{4, 5, 6}
	frame := tok.AppendTo(nil)

	var scratch wire.Token
	if err := scratch.DecodeFrom(frame); err != nil {
		t.Fatal(err)
	}
	eng.HandleToken(&scratch)

	var rx *obs.Event
	for _, ev := range fr.Snapshot(0) {
		if ev.Kind == obs.FlightTokenRx {
			cp := ev
			rx = &cp
		}
	}
	if rx == nil {
		t.Fatal("no token_rx event recorded")
	}

	// Overwrite the scratch with a very different token — the hot path
	// reuses the same Token (and Rtr backing) for the next frame.
	other := NewInitialToken(ring.ID, 999)
	other.TokenSeq, other.Seq, other.Aru, other.Fcc = 99, 999, 998, 50
	other.Rtr = []uint64{1111, 2222, 3333}
	if err := scratch.DecodeFrom(other.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	for i := range scratch.Rtr {
		scratch.Rtr[i] = 0xDEAD // and scribble over the shared backing
	}

	for _, ev := range fr.Snapshot(0) {
		if ev.Kind == obs.FlightTokenRx {
			if ev.Seq != rx.Seq || ev.Aru != rx.Aru || ev.Fcc != rx.Fcc || ev.Count != rx.Count {
				t.Fatalf("recorded event mutated by scratch reuse: %+v, want %+v", ev, *rx)
			}
			if ev.Seq != 10 || ev.Fcc != 3 || ev.Count != 3 {
				t.Fatalf("recorded event has wrong values: %+v", ev)
			}
		}
	}
}
