package obs

import (
	"testing"
	"time"
)

// latRig is a tracer + aggregator over a virtual timeline: stage i of a
// span lands at base + offsets[i].
type latRig struct {
	reg *Registry
	t   *MsgTracer
	agg *LatencyAgg
}

func newLatRig(t *testing.T, scope string) *latRig {
	t.Helper()
	rig := &latRig{reg: NewRegistry(), t: NewMsgTracer(1, 1024)}
	rig.agg = NewLatencyAgg(rig.reg)
	rig.agg.AddTracer(scope, rig.t)
	return rig
}

var t0 = time.Unix(1000, 0)

// record stamps one stage at t0+off.
func (r *latRig) record(seq uint64, stage Kind, off time.Duration) {
	r.t.Record(Event{Seq: seq, Kind: stage, At: t0.Add(off)})
}

// snap returns the single-scope digest.
func (r *latRig) snap(t *testing.T) LatencyScopeSnapshot {
	t.Helper()
	snaps := r.agg.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("got %d scope snapshots, want 1", len(snaps))
	}
	return snaps[0]
}

func TestLatencyFoldFullPipeline(t *testing.T) {
	rig := newLatRig(t, "")
	// One sampled message through every milestone, 1ms apart.
	stages := []Kind{StagePack, StageSubmit, StageSentPre, StageBatchFlush,
		StageRecv, StageDeliver, StageMergeOut, StageFanout, StageWriterFlush,
		StageClientRecv}
	for i, st := range stages {
		rig.record(10, st, time.Duration(i)*time.Millisecond)
	}
	sc := rig.snap(t)
	if sc.SpansFolded != 1 {
		t.Fatalf("SpansFolded = %d, want 1", sc.SpansFolded)
	}
	want := []string{"pack_hold", "token_wait", "batch_wait", "wire", "ordering",
		"merge_hold", "fanout", "writer_flush", "client_wire"}
	for _, name := range want {
		st, ok := sc.Stages[name]
		if !ok {
			t.Fatalf("stage %q missing from digest %v", name, sc.Stages)
		}
		if st.Count != 1 || st.SumNs != float64(time.Millisecond) {
			t.Fatalf("stage %q = {count %d, sum %v}, want one 1ms delta", name, st.Count, st.SumNs)
		}
	}
	if got, want := sc.E2E.SumNs, float64(9*time.Millisecond); got != want {
		t.Fatalf("e2e sum = %v, want %v", got, want)
	}
}

// TestLatencySumToE2E pins the attribution invariant: because the stage
// deltas telescope, their sums equal the e2e sum exactly — in every
// configuration, including spans missing milestones.
func TestLatencySumToE2E(t *testing.T) {
	rig := newLatRig(t, "")
	// Span 10: bare ring (no packing, no daemon): submit, sent, recv, deliver.
	rig.record(10, StageSubmit, 0)
	rig.record(10, StageSentPost, 3*time.Millisecond)
	rig.record(10, StageRecv, 7*time.Millisecond)
	rig.record(10, StageDeliver, 20*time.Millisecond)
	// Span 20: daemon path without batching: milestones skip around.
	rig.record(20, StageSubmit, 0)
	rig.record(20, StageDeliver, 5*time.Millisecond)
	rig.record(20, StageFanout, 6*time.Millisecond)
	rig.record(20, StageWriterFlush, 10*time.Millisecond)
	sc := rig.snap(t)
	if sc.SpansFolded != 2 {
		t.Fatalf("SpansFolded = %d, want 2", sc.SpansFolded)
	}
	if sc.StageSumNs != sc.E2ESumNs {
		t.Fatalf("stage sum %v != e2e sum %v: attribution leaked time", sc.StageSumNs, sc.E2ESumNs)
	}
	if want := float64(30 * time.Millisecond); sc.E2ESumNs != want {
		t.Fatalf("e2e sum = %v, want %v", sc.E2ESumNs, want)
	}
	// The dropped-milestone rule: span 10's 13ms recv→deliver lands in
	// "ordering", span 20's 1ms deliver→fanout in "fanout".
	if d := sc.Stages["ordering"]; d.SumNs != float64(13*time.Millisecond+5*time.Millisecond) {
		t.Fatalf("ordering sum = %v, want 18ms", d.SumNs)
	}
}

func TestLatencyRefoldNeverDoubleCounts(t *testing.T) {
	rig := newLatRig(t, "")
	rig.record(10, StageSubmit, 0)
	rig.record(10, StageDeliver, time.Millisecond)
	first := rig.snap(t)
	again := rig.snap(t) // second fold over the same buffer
	if first.SpansFolded != 1 || again.SpansFolded != 1 {
		t.Fatalf("SpansFolded = %d then %d, want 1 and 1", first.SpansFolded, again.SpansFolded)
	}
	if again.E2E.Count != 1 {
		t.Fatalf("e2e count after refold = %d, want 1", again.E2E.Count)
	}
}

func TestLatencyDuplicateStampsKeepEarliest(t *testing.T) {
	rig := newLatRig(t, "")
	rig.record(10, StageSubmit, 0)
	// A writer-flush replay after reconnect re-records later; the fold
	// must keep the first flush.
	rig.record(10, StageWriterFlush, 2*time.Millisecond)
	rig.record(10, StageWriterFlush, 9*time.Millisecond)
	sc := rig.snap(t)
	if want := float64(2 * time.Millisecond); sc.E2E.SumNs != want {
		t.Fatalf("e2e sum = %v, want %v (earliest writer flush)", sc.E2E.SumNs, want)
	}
}

func TestLatencySendOnlySpanSettlesViaNewerSeq(t *testing.T) {
	rig := newLatRig(t, "")
	// Send-only span: this node never delivers seq 10 (another ring's
	// group), so it settles only once a newer seq reaches delivery.
	rig.record(10, StageSubmit, 0)
	rig.record(10, StageSentPre, time.Millisecond)
	if sc := rig.snap(t); sc.SpansFolded != 0 {
		t.Fatalf("unsettled span folded early: %+v", sc)
	}
	rig.record(20, StageDeliver, 5*time.Millisecond)
	if sc := rig.snap(t); sc.SpansFolded != 1 {
		t.Fatalf("SpansFolded = %d, want 1 (send-only span settled by seq 20)", sc.SpansFolded)
	}
}

func TestLatencySingleMilestoneSpanNoE2E(t *testing.T) {
	rig := newLatRig(t, "")
	rig.record(10, StageDeliver, time.Millisecond)
	sc := rig.snap(t)
	if sc.E2E.Count != 0 {
		t.Fatalf("single-milestone span produced an e2e sample: %+v", sc.E2E)
	}
}

func TestLatencyClockSkewClampsToZero(t *testing.T) {
	rig := newLatRig(t, "")
	rig.record(10, StageSubmit, 5*time.Millisecond)
	rig.record(10, StageDeliver, 3*time.Millisecond) // behind submit
	sc := rig.snap(t)
	if sc.E2E.SumNs != 0 || sc.Stages["ordering"].SumNs != 0 {
		t.Fatalf("negative delta not clamped: %+v", sc)
	}
	if sc.StageSumNs != sc.E2ESumNs {
		t.Fatalf("invariant broke under clamping: stage %v != e2e %v", sc.StageSumNs, sc.E2ESumNs)
	}
}

// TestLatencyOutOfOrderMilestoneKeepsInvariant pins the running-max rule:
// a later-pipeline milestone stamped by another goroutine slightly behind
// its predecessor contributes zero instead of inflating the stage sum
// past e2e.
func TestLatencyOutOfOrderMilestoneKeepsInvariant(t *testing.T) {
	rig := newLatRig(t, "")
	rig.record(10, StageSubmit, 0)
	rig.record(10, StageFanout, 5*time.Millisecond)
	// The writer goroutine stamps its flush a hair behind the fanout.
	rig.record(10, StageWriterFlush, 4*time.Millisecond)
	sc := rig.snap(t)
	if sc.StageSumNs != sc.E2ESumNs {
		t.Fatalf("stage sum %v != e2e sum %v under reordering", sc.StageSumNs, sc.E2ESumNs)
	}
	if want := float64(5 * time.Millisecond); sc.E2ESumNs != want {
		t.Fatalf("e2e sum = %v, want %v (running max)", sc.E2ESumNs, want)
	}
	if d := sc.Stages["writer_flush"]; d.Count != 1 || d.SumNs != 0 {
		t.Fatalf("behind-the-max milestone = %+v, want one zero delta", d)
	}
}

func TestLatencyScopedRegistration(t *testing.T) {
	rig := newLatRig(t, "shard1")
	rig.record(10, StageSubmit, 0)
	rig.record(10, StageDeliver, time.Millisecond)
	rig.agg.Fold()
	if v := rig.reg.Histogram("shard1.latency.e2e_ns", LatencyBuckets()).Snapshot().Count; v != 1 {
		t.Fatalf("scoped e2e histogram count = %d, want 1", v)
	}
	if h := rig.agg.E2E("shard1"); h == nil {
		t.Fatal("E2E(shard1) = nil")
	}
	if h := rig.agg.E2E("shard0"); h != nil {
		t.Fatal("E2E(shard0) should be nil for an unregistered scope")
	}
}

func TestLatencyNilSafe(t *testing.T) {
	var a *LatencyAgg
	a.AddTracer("", NewMsgTracer(1, 8))
	a.Fold()
	if a.Snapshot() != nil || a.E2E("") != nil {
		t.Fatal("nil LatencyAgg methods must return zero values")
	}
	if NewLatencyAgg(nil) != nil {
		t.Fatal("NewLatencyAgg(nil) must be nil (attribution off)")
	}
	// A live aggregator must tolerate nil tracers (tracing off).
	agg := NewLatencyAgg(NewRegistry())
	agg.AddTracer("", nil)
	agg.Fold()
	if n := len(agg.Snapshot()); n != 0 {
		t.Fatalf("nil tracer registered a scope: %d", n)
	}
}
