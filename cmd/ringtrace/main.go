// Command ringtrace reproduces the paper's Figure 1: the execution
// schedule of three participants sending twenty messages under the
// original and the Accelerated Ring protocol (Personal window 5,
// Accelerated window 3). It prints an ASCII timeline per variant —
// message sequence numbers at their send instants, '*' marking the token
// send. Under the accelerated protocol the token visibly departs after
// two of each participant's five sends, and the whole 20-message run
// finishes earlier. `ringbench -figure fig1` prints the same runs as an
// event table.
//
// With -follow it runs the cluster with message-lifecycle tracing on
// every node and merges the sampled spans across the cluster: because
// sampling is deterministic in the sequence number, every node records
// the same messages, and the merged span shows one message's submit,
// pre/post-token multicast, first receive, retransmissions and delivery
// at every node on one virtual-time axis, ending in the end-to-end
// ordering latency.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"accelring/internal/bench"
	"accelring/internal/evs"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/simnet"
	"accelring/internal/simproc"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ringtrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ringtrace", flag.ContinueOnError)
	width := fs.Int("width", 100, "timeline width in columns")
	follow := fs.Bool("follow", false, "trace sampled message lifecycles across the cluster instead")
	sample := fs.Int("sample", 10, "with -follow: sample every Nth sequence number")
	nodes := fs.Int("nodes", 4, "cluster size (with -follow)")
	msgs := fs.Int("msgs", 200, "messages per node (with -follow)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *follow {
		return runFollow(*nodes, *msgs, *sample)
	}

	for _, variant := range []struct {
		name  string
		accel bool
	}{{"original Ring protocol", false}, {"Accelerated Ring protocol", true}} {
		events, err := bench.Fig1Trace(variant.accel)
		if err != nil {
			return err
		}
		fmt.Printf("== %s ==\n", variant.name)
		fmt.Print(renderTimeline(events, *width))
		fmt.Println()
	}
	fmt.Println("legend: digits = data message seq at its send instant, * = token send")
	fmt.Println("        (B sends 1-5, C sends 6-10, A sends 11-15 then 16-20; PW=5, AW=3)")
	return nil
}

// runFollow runs the simulated cluster with deterministic message
// sampling on every node and prints the merged cross-node span per
// sampled message. The observers run on the simulated clock, so the run
// stays deterministic and the timestamps are exact virtual times, counted
// from ring formation.
func runFollow(nodes, msgs, sample int) error {
	if sample < 1 {
		return fmt.Errorf("-sample must be at least 1")
	}
	tracers := make([]*obs.MsgTracer, nodes)
	for i := range tracers {
		// Deep enough to keep every stage of every sampled message.
		tracers[i] = obs.NewMsgTracer(sample, 8*msgs*nodes/sample+64)
	}
	c, err := simproc.NewCluster(simproc.Options{
		Fabric:  simnet.GigabitFabric(nodes),
		Profile: simproc.Daemon(),
		Ring:    ringnode.Accelerated(0, nil, 20, 200, 10),
		Observer: func(node int) *obs.RingObserver {
			return &obs.RingObserver{Msg: tracers[node]}
		},
	})
	if err != nil {
		return err
	}
	formed := simproc.Wall(c.Formed)
	for _, n := range c.Nodes {
		for i := 0; i < msgs; i++ {
			n.Submit(make([]byte, 1350), evs.Agreed)
		}
	}
	c.Sim.RunUntil(c.Formed + 30*simnet.Second)

	// Merge: the same seqs are sampled everywhere, so spans group by seq.
	// Each span keeps the earliest cluster-wide time per lifecycle
	// milestone, in pipeline order; milestones no node produced (no
	// packing, no daemon fan-out, no client tracer) render as columns only
	// when at least one span has them, so the table stays compact on a
	// bare ring and grows the daemon/client stages when they exist.
	milestones := []struct {
		name   string
		stages []obs.Kind
	}{
		{"pack", []obs.Kind{obs.StagePack}},
		{"submit", []obs.Kind{obs.StageSubmit}},
		{"sent", []obs.Kind{obs.StageSentPre, obs.StageSentPost}},
		{"batch-flush", []obs.Kind{obs.StageBatchFlush}},
		{"first-recv", []obs.Kind{obs.StageRecv}},
		{"merge", []obs.Kind{obs.StageMergeOut}},
		{"fanout", []obs.Kind{obs.StageFanout}},
		{"writer", []obs.Kind{obs.StageWriterFlush}},
		{"client", []obs.Kind{obs.StageClientRecv}},
	}
	slot := make(map[obs.Kind]int)
	for i, m := range milestones {
		for _, s := range m.stages {
			slot[s] = i
		}
	}
	type span struct {
		at                       []time.Time // earliest per milestone
		lastDeliver              time.Time
		recvs, delivers, retrans int
	}
	spans := make(map[uint64]*span)
	var seqs []uint64
	for _, t := range tracers {
		for _, ev := range t.Snapshot(0) {
			sp := spans[ev.Seq]
			if sp == nil {
				sp = &span{at: make([]time.Time, len(milestones))}
				spans[ev.Seq] = sp
				seqs = append(seqs, ev.Seq)
			}
			if i, ok := slot[ev.Kind]; ok {
				if sp.at[i].IsZero() || ev.At.Before(sp.at[i]) {
					sp.at[i] = ev.At
				}
			}
			switch ev.Kind {
			case obs.StageRecv:
				sp.recvs++
			case obs.StageRetransmit:
				sp.retrans++
			case obs.StageDeliver:
				sp.delivers++
				if ev.At.After(sp.lastDeliver) {
					sp.lastDeliver = ev.At
				}
			}
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	present := make([]bool, len(milestones))
	for _, sp := range spans {
		for i := range milestones {
			if !sp.at[i].IsZero() {
				present[i] = true
			}
		}
	}

	fmt.Printf("== message lifecycle, %d nodes, %d msgs/node, sampling 1/%d ==\n\n",
		nodes, msgs, sample)
	fmt.Printf("%8s", "seq")
	for i, m := range milestones {
		if present[i] {
			fmt.Printf("  %12s", m.name)
		}
	}
	fmt.Printf("  %9s  %4s  %12s\n", "delivered", "rtx", "e2e")
	at := func(t time.Time) string {
		if t.IsZero() {
			return "-"
		}
		return t.Sub(formed).String()
	}
	submitSlot := slot[obs.StageSubmit]
	var e2es []time.Duration
	for _, seq := range seqs {
		sp := spans[seq]
		e2e := "-"
		// End-to-end: submit to the final milestone the cluster produced —
		// last delivery on a bare ring, client receive behind daemons.
		end := sp.lastDeliver
		for i := len(milestones) - 1; i > submitSlot; i-- {
			if !sp.at[i].IsZero() && sp.at[i].After(end) {
				end = sp.at[i]
				break
			}
		}
		if !sp.at[submitSlot].IsZero() && !end.IsZero() {
			d := end.Sub(sp.at[submitSlot])
			e2es = append(e2es, d)
			e2e = d.String()
		}
		fmt.Printf("%8d", seq)
		for i := range milestones {
			if present[i] {
				fmt.Printf("  %12s", at(sp.at[i]))
			}
		}
		fmt.Printf("  %6d/%-2d  %4d  %12s\n", sp.delivers, nodes, sp.retrans, e2e)
	}
	if len(e2es) > 0 {
		sort.Slice(e2es, func(i, j int) bool { return e2es[i] < e2es[j] })
		fmt.Printf("\n%d sampled messages; end-to-end ordering latency: median=%v max=%v\n",
			len(seqs), e2es[len(e2es)/2], e2es[len(e2es)-1])
	} else {
		fmt.Printf("\n%d sampled messages (no complete submit→deliver span)\n", len(seqs))
	}
	return nil
}

// renderTimeline draws one lane per participant with send events placed
// proportionally to virtual time.
func renderTimeline(events []simproc.TraceEvent, width int) string {
	if len(events) == 0 {
		return "(no events)\n"
	}
	var maxNode simnet.NodeID
	var maxAt simnet.Time
	for _, ev := range events {
		if ev.Node > maxNode {
			maxNode = ev.Node
		}
		if ev.At > maxAt {
			maxAt = ev.At
		}
	}
	if maxAt == 0 {
		maxAt = 1
	}
	lanes := make([][]byte, maxNode+1)
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(".", width))
	}
	place := func(lane []byte, col int, s string) {
		// Shift right past earlier marks so labels never overwrite.
		for col < len(lane) && lane[col] != '.' {
			col++
		}
		for i := 0; i < len(s) && col+i < len(lane); i++ {
			lane[col+i] = s[i]
		}
	}
	for _, ev := range events {
		col := int(int64(ev.At) * int64(width-8) / int64(maxAt))
		switch ev.Kind {
		case "send-data":
			place(lanes[ev.Node], col, fmt.Sprintf("%d", ev.Seq))
		case "send-token":
			place(lanes[ev.Node], col, "*")
		}
	}
	var b strings.Builder
	for i, lane := range lanes {
		fmt.Fprintf(&b, "  %c |%s|\n", 'A'+i, lane)
	}
	fmt.Fprintf(&b, "     0%s┤ %v\n", strings.Repeat(" ", width-1), maxAt)
	return b.String()
}
