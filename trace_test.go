package accelring

import (
	"errors"
	"fmt"
	"testing"
)

// TestTraceSamplingWiring opens a cluster with per-message tracing at
// sample rate 1 and checks that spans flow end to end through the
// facade: the sender records submit and deliver, a receiver records recv
// and deliver for the same seqs.
func TestTraceSamplingWiring(t *testing.T) {
	nodes := openCluster(t, 2, WithTraceSampling(1))
	for _, n := range nodes {
		if n.MsgTracer() == nil {
			t.Fatalf("node %v: MsgTracer() = nil with WithTraceSampling", n.ID())
		}
	}

	for _, n := range nodes {
		if err := n.Join("traced"); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		for {
			if v := nextEvent[*GroupView](t, n); v.Group == "traced" && len(v.Members) == 2 {
				break
			}
		}
	}
	for i := 0; i < 3; i++ {
		if err := nodes[0].Send(Agreed, []byte(fmt.Sprintf("m%d", i)), "traced"); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		for got := 0; got < 3; got++ {
			nextEvent[*Message](t, n)
		}
	}

	counts := func(n *Node) map[EventKind]int {
		out := make(map[EventKind]int)
		for _, ev := range n.MsgTracer().Snapshot(0) {
			out[ev.Kind]++
		}
		return out
	}
	sender := counts(nodes[0])
	if sender[StageSubmit] < 3 {
		t.Errorf("sender submits = %d, want >= 3 (%v)", sender[StageSubmit], sender)
	}
	if sender[StageDeliver] < 3 {
		t.Errorf("sender delivers = %d, want >= 3 (%v)", sender[StageDeliver], sender)
	}
	receiver := counts(nodes[1])
	if receiver[StageRecv] < 3 || receiver[StageDeliver] < 3 {
		t.Errorf("receiver recv=%d deliver=%d, want >= 3 each",
			receiver[StageRecv], receiver[StageDeliver])
	}

	// Deterministic sampling: both nodes traced the same seqs, so spans
	// merge across nodes.
	senderSeqs := make(map[uint64]bool)
	for _, ev := range nodes[0].MsgTracer().Snapshot(0) {
		if ev.Kind == StageDeliver {
			senderSeqs[ev.Seq] = true
		}
	}
	matched := 0
	for _, ev := range nodes[1].MsgTracer().Snapshot(0) {
		if ev.Kind == StageDeliver && senderSeqs[ev.Seq] {
			matched++
		}
	}
	if matched < 3 {
		t.Errorf("only %d delivered seqs traced on both nodes, want >= 3", matched)
	}
}

// TestTraceSamplingOffByDefault: no option, no tracer — the nil fast
// path the zero-alloc gates depend on.
func TestTraceSamplingOffByDefault(t *testing.T) {
	nodes := openCluster(t, 2)
	for _, n := range nodes {
		if tr := n.MsgTracer(); tr != nil {
			t.Fatalf("node %v: MsgTracer() = %v without WithTraceSampling", n.ID(), tr)
		}
		if trs := n.MsgTracers(); trs != nil {
			t.Fatalf("node %v: MsgTracers() = %v without WithTraceSampling", n.ID(), trs)
		}
	}
}

// TestTraceSamplingValidation: negative sampling is a config error.
func TestTraceSamplingValidation(t *testing.T) {
	cfg := Config{Self: 1}
	WithTraceSampling(-1)(&cfg)
	if err := cfg.Validate(); !errors.Is(err, ErrBadBufferSize) {
		t.Fatalf("negative TraceSampling: err = %v, want ErrBadBufferSize", err)
	}
}

// TestShardedTraceSampling: every ring of a sharded node gets its own
// tracer; MsgTracer() is ring 0's.
func TestShardedTraceSampling(t *testing.T) {
	nodes := openShardedCluster(t, 2, 2, WithTraceSampling(1))
	n := nodes[0]
	trs := n.MsgTracers()
	if len(trs) != 2 || trs[0] == nil || trs[1] == nil {
		t.Fatalf("MsgTracers() = %v, want 2 non-nil", trs)
	}
	if n.MsgTracer() != trs[0] {
		t.Fatal("MsgTracer() is not ring 0's tracer")
	}
	if trs[0] == trs[1] {
		t.Fatal("rings share one tracer")
	}
}
