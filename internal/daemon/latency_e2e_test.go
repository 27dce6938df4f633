package daemon

import (
	"fmt"
	"testing"
	"time"

	"accelring/internal/client"
	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/obs"
)

// TestLatencyAttributionAcrossShards is the PR's acceptance test: drive a
// sampled message through a 2-shard daemon pair and assert (a) the span
// timeline carries the daemon-side lifecycle stages added for attribution
// (merge hold, fanout, writer flush) plus the client-side receive, and
// (b) the LatencyAgg invariant holds — per-stage sums equal the e2e sum
// exactly, so no latency is ever double-counted or dropped.
func TestLatencyAttributionAcrossShards(t *testing.T) {
	var regs []*obs.Registry
	daemons := startShardedDaemonsCfg(t, 2, 2, func(cfg *Config) {
		reg := obs.NewRegistry()
		regs = append(regs, reg)
		cfg.Obs = reg
		cfg.Ring.Observer = &obs.RingObserver{Reg: reg, Msg: obs.NewMsgTracer(1, 4096)}
	})

	// One group per ring so both rings carry traffic through the merger.
	gA, gB := "g-0", "g-1"
	if group.RingOf(gA, 2) == group.RingOf(gB, 2) {
		t.Fatal("test groups collapsed onto one ring")
	}

	ct := obs.NewMsgTracer(1, 4096)
	alice, err := client.DialWith(client.Config{
		Addr: daemons[0].Addr().String(), Name: "alice", Tracer: ct,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { alice.Close() })
	bob := dial(t, daemons[1], "bob")

	for _, g := range []string{gA, gB} {
		if err := alice.Join(g); err != nil {
			t.Fatal(err)
		}
		if err := bob.Join(g); err != nil {
			t.Fatal(err)
		}
		nextView(t, alice, g, 5*time.Second)
		nextView(t, bob, g, 5*time.Second)
	}
	// Views may arrive in either order per group; drain any stragglers
	// below via nextMessage's skip-non-message behavior.

	const perGroup = 5
	for i := 0; i < perGroup; i++ {
		for _, g := range []string{gA, gB} {
			if err := bob.Multicast(evs.Agreed, []byte(fmt.Sprintf("%s-%d", g, i)), g); err != nil {
				t.Fatal(err)
			}
		}
	}
	var seqs []uint64
	for i := 0; i < 2*perGroup; i++ {
		m := nextMessage(t, alice, 10*time.Second)
		if m.Seq != 0 {
			seqs = append(seqs, m.Seq)
		}
	}
	if len(seqs) == 0 {
		t.Fatal("no delivery carried a ring sequence")
	}

	// (a) Span timeline: some delivered seq must show the full daemon-side
	// stage set on daemon 0's per-ring tracers, and the client tracer must
	// have closed the span. Writer-flush stamps land after the write
	// syscall returns, so poll briefly.
	wantStages := []obs.Kind{obs.StageDeliver, obs.StageMergeOut, obs.StageFanout, obs.StageWriterFlush}
	hasStage := func(mt *obs.MsgTracer, seq uint64, stage obs.Kind) bool {
		for _, e := range mt.Snapshot(0) {
			if e.Seq == seq && e.Kind == stage {
				return true
			}
		}
		return false
	}
	fullSpan := func() bool {
		for _, seq := range seqs {
			for r := 0; r < 2; r++ {
				ok := true
				for _, st := range wantStages {
					ok = ok && hasStage(daemons[0].RingNode(r).Observer().MsgTracer(), seq, st)
				}
				if ok && hasStage(ct, seq, obs.StageClientRecv) {
					return true
				}
			}
		}
		return false
	}
	deadline := time.Now().Add(5 * time.Second)
	for !fullSpan() {
		if time.Now().After(deadline) {
			t.Fatal("no sampled span accumulated merge/fanout/writer_flush daemon stages plus client_recv")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// (b) Attribution invariant, per daemon: fold each daemon's per-ring
	// tracers into a LatencyAgg and check stage sums telescope to e2e.
	// Daemon 1 delivers and merges on its own schedule (alice's deliveries
	// only prove daemon 0 finished), so poll for the spans; the invariant
	// itself must hold on every fold, so it stays a hard failure.
	for i, d := range daemons {
		agg := obs.NewLatencyAgg(regs[i])
		for r := 0; r < 2; r++ {
			agg.AddTracer(fmt.Sprintf("shard%d", r), d.RingNode(r).Observer().MsgTracer())
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			folded := false
			for _, sc := range agg.Snapshot() {
				if sc.StageSumNs != sc.E2ESumNs {
					t.Fatalf("daemon %d %s: stage sum %v != e2e sum %v", i, sc.Scope, sc.StageSumNs, sc.E2ESumNs)
				}
				hasStages := true
				for _, stage := range []string{"merge_hold", "fanout"} {
					if _, ok := sc.Stages[stage]; !ok {
						hasStages = false
					}
				}
				if sc.SpansFolded > 0 && sc.E2E.Count > 0 && hasStages {
					folded = true
				}
			}
			if folded {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon %d folded no spans with e2e samples and merge/fanout stages", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
