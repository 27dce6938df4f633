package obs

import (
	"reflect"
	"testing"
	"time"
)

// visit records one token visit's flight events the way the engine does.
func visit(r *Recorder, ring string, at time.Time, round, recvSeq uint64, newMsgs, pre, ans, req int) {
	r.Record(Event{Kind: FlightTokenRx, Ring: ring, At: at, Round: round, TokenSeq: uint32(round), Seq: recvSeq})
	if ans > 0 {
		r.Record(Event{Kind: FlightRetransAns, Ring: ring, At: at, Seq: 1, Count: ans})
	}
	if req > 0 {
		r.Record(Event{Kind: FlightRetransReq, Ring: ring, At: at, Seq: 2, Count: req})
	}
	r.Record(Event{
		Kind: FlightTokenTx, Ring: ring, At: at.Add(3 * time.Microsecond), Round: round, Pre: pre,
		Seq: recvSeq + uint64(newMsgs), Aru: recvSeq, Fcc: uint32(newMsgs), Count: req,
	})
}

// TestRoundsView pins how /debug/ring is derived: rx/tx pairs per ring
// label, retransmission traffic attributed to the visit it happened in,
// and everything that is not a complete visit ignored.
func TestRoundsView(t *testing.T) {
	r := NewRecorder(64)
	at := time.Unix(5, 0)
	// A visit whose token_rx was evicted: only its tail is in the buffer.
	r.Record(Event{Kind: FlightRetransAns, At: at, Count: 9})
	r.Record(Event{Kind: FlightTokenTx, At: at, Seq: 100})
	// Two rings interleaved in one shared recorder, as on a sharded node.
	visit(r, "shard0", at, 1, 10, 4, 3, 2, 0)
	r.Record(Event{Kind: FlightDeliver, Ring: "shard0", At: at, Seq: 14, Count: 4})
	visit(r, "shard1", at, 7, 50, 0, 0, 0, 1)
	// The membership machine re-sending the last token is not a visit.
	r.Record(Event{Kind: FlightTokenTx, Ring: "shard0", At: at, Note: "retransmit", Seq: 14})
	visit(r, "shard0", at.Add(time.Millisecond), 2, 14, 2, 2, 0, 0)
	// A visit still in progress: token_rx with no token_tx yet.
	r.Record(Event{Kind: FlightTokenRx, Ring: "shard1", At: at, Round: 8, Seq: 50})

	got := Rounds(r.Snapshot(0))
	want := map[string][]RoundTrace{
		"shard0": {
			{At: at, Round: 1, TokenSeq: 1, RecvSeq: 10, SentSeq: 14, Aru: 10, Fcc: 4,
				New: 4, Pre: 3, Post: 1, Retransmitted: 2, Hold: 3 * time.Microsecond},
			{At: at.Add(time.Millisecond), Round: 2, TokenSeq: 2, RecvSeq: 14, SentSeq: 16, Aru: 14, Fcc: 2,
				New: 2, Pre: 2, Hold: 3 * time.Microsecond},
		},
		"shard1": {
			{At: at, Round: 7, TokenSeq: 7, RecvSeq: 50, SentSeq: 50, Aru: 50,
				Requested: 1, Hold: 3 * time.Microsecond},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Rounds =\n%+v\nwant\n%+v", got, want)
	}
}

func TestRingObserverNil(t *testing.T) {
	var o *RingObserver
	o.OnRound(RoundTrace{Round: 1})
	o.OnDeliver("agreed", time.Millisecond)
	o.Record(Event{Kind: FlightState})
	if o.Stamp(StageRecv, 1, 0) || o.MsgTracer() != nil {
		t.Fatal("nil observer must trace nothing")
	}
	if !o.Now().IsZero() {
		t.Fatal("nil observer Now should be zero")
	}
}

// TestRingObserverStamps: the observer is the node's one stamping point —
// its clock, its ring label, its sampling gate.
func TestRingObserverStamps(t *testing.T) {
	clock := time.Unix(42, 0)
	o := &RingObserver{
		Label: "shard1", Clock: func() time.Time { return clock },
		Msg: NewMsgTracer(2, 8), Flight: NewRecorder(8),
	}
	if o.Stamp(StageRecv, 3, 0) || o.Stamp(StageRecv, 0, 0) {
		t.Fatal("unsampled seq stamped")
	}
	backdated := time.Unix(7, 0)
	if !o.Stamp(StageRecv, 4, 9) || !o.StampAt(StageDeliver, 4, 9, backdated, "safe") {
		t.Fatal("sampled seq not stamped")
	}
	o.Record(Event{Kind: FlightState, Note: "gather"})

	msgs, flight := o.Msg.Snapshot(0), o.Flight.Snapshot(0)
	if len(msgs) != 2 || !msgs[0].At.Equal(clock) || msgs[0].Round != 9 || msgs[0].Kind != StageRecv ||
		!msgs[1].At.Equal(backdated) || msgs[1].Note != "safe" {
		t.Fatalf("stamped stages = %+v", msgs)
	}
	if len(flight) != 1 || !flight[0].At.Equal(clock) || flight[0].Ring != "shard1" || flight[0].Note != "gather" {
		t.Fatalf("recorded flight events = %+v", flight)
	}
	// Without a flight recorder or tracer both calls are no-ops.
	bare := &RingObserver{}
	bare.Record(Event{Kind: FlightState})
	if bare.Stamp(StageRecv, 4, 0) {
		t.Fatal("observer without a tracer stamped")
	}
}

func TestRingObserverMetrics(t *testing.T) {
	reg := NewRegistry()
	o := &RingObserver{Reg: reg}
	o.OnRound(RoundTrace{Round: 1, SentSeq: 12, Aru: 10, Fcc: 5,
		New: 4, Pre: 3, Post: 1, Retransmitted: 2, Requested: 1,
		Hold: 3 * time.Microsecond})
	o.OnRound(RoundTrace{Round: 2, SentSeq: 20, Aru: 12, Fcc: 6, New: 2, Pre: 1, Post: 1})
	o.OnDeliver("agreed", 50*time.Microsecond)
	o.OnDeliver("agreed", 0)
	o.OnDeliver("safe", 0)

	if got := reg.Counter("ring.rounds").Value(); got != 2 {
		t.Fatalf("rounds = %d, want 2", got)
	}
	if got := reg.Counter("ring.sent_pre_token").Value(); got != 4 {
		t.Fatalf("sent_pre_token = %d, want 4", got)
	}
	if got := reg.Counter("ring.sent_post_token").Value(); got != 2 {
		t.Fatalf("sent_post_token = %d, want 2", got)
	}
	if got := reg.Counter("ring.retransmitted").Value(); got != 2 {
		t.Fatalf("retransmitted = %d, want 2", got)
	}
	if got := reg.Gauge("ring.seq").Value(); got != 20 {
		t.Fatalf("seq gauge = %d, want 20", got)
	}
	if got := reg.Gauge("ring.aru").Value(); got != 12 {
		t.Fatalf("aru gauge = %d, want 12", got)
	}
	if got := reg.Counter("ring.delivered.agreed").Value(); got != 2 {
		t.Fatalf("delivered.agreed = %d, want 2", got)
	}
	if got := reg.Counter("ring.delivered.safe").Value(); got != 1 {
		t.Fatalf("delivered.safe = %d, want 1", got)
	}
	if s := reg.Histogram("ring.delivery_ns.agreed", nil).Snapshot(); s.Count != 1 {
		t.Fatalf("delivery latency count = %d, want 1 (untimed deliveries not sampled)", s.Count)
	}
}
