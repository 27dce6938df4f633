package bench

import (
	"fmt"

	"accelring/internal/evs"
	"accelring/internal/ringnode"
	"accelring/internal/simnet"
	"accelring/internal/simproc"
)

// fig1 reproduces the paper's Figure 1: the send schedule of three
// participants multicasting twenty messages under the original and the
// accelerated protocol (Personal window 5, Accelerated window 3). The
// table lists every send event in virtual-time order; under the
// accelerated protocol each participant's token send appears after two
// data messages, with three more following it carrying the post-token
// flag, while the token still carries the same seq values (5, 10, 15, 20).
func (s *Suite) fig1() (*Table, error) {
	t := &Table{
		ID:      "fig1",
		Title:   "Example execution: 3 participants, 20 messages, Personal window 5, Accelerated window 3",
		Columns: []string{"variant", "time", "participant", "event", "seq", "phase"},
		Notes: []string{
			"library prototype on the 1 GbE fabric; data messages are 1350 bytes",
			"compare: the accelerated token leaves after 2 of 5 sends but carries the identical seq",
		},
	}
	for _, variant := range []string{"original", "accelerated"} {
		events, err := fig1Trace(variant == "accelerated")
		if err != nil {
			return nil, err
		}
		for _, ev := range events {
			phase := "pre-token"
			if ev.PostToken {
				phase = "post-token"
			}
			if ev.Kind == "send-token" {
				phase = ""
			}
			t.AddRow(variant, ev.At.String(), fmt.Sprintf("%c", 'A'+int(ev.Node)),
				ev.Kind, fmt.Sprintf("%d", ev.Seq), phase)
		}
	}
	return t, nil
}

// Fig1Trace runs the Figure 1 scenario and returns the send events for
// the first 20 messages plus the token sends between them. Exposed for
// cmd/ringtrace's timeline rendering.
func Fig1Trace(accelerated bool) ([]simproc.TraceEvent, error) {
	return fig1Trace(accelerated)
}

// fig1Trace runs the Figure 1 scenario and returns the send events for the
// first 20 messages plus the token sends between them. Times and seqs count
// from the formed ring: its first seqs are the members' recovery markers.
func fig1Trace(accelerated bool) ([]simproc.TraceEvent, error) {
	ring := ringnode.Original(0, nil, 5, 100)
	if accelerated {
		ring = ringnode.Accelerated(0, nil, 5, 100, 3)
	}
	c, err := simproc.NewCluster(simproc.Options{
		Fabric: simnet.GigabitFabric(3), Profile: simproc.Library(), Ring: ring,
	})
	if err != nil {
		return nil, err
	}
	// Paper Figure 1: A sends 1-5 and 16-20, B sends 6-10, C sends 11-15.
	submit := func(node, count int) {
		for i := 0; i < count; i++ {
			c.Nodes[node].Submit(make([]byte, 1350), evs.Agreed)
		}
	}
	base := c.Nodes[0].Engine().High()
	var events []simproc.TraceEvent
	started := false
	for _, n := range c.Nodes {
		n.SetTrace(func(ev simproc.TraceEvent) {
			switch {
			case !started && ev.Node == 0 && ev.Kind == "recv-token":
				// The clients submit as the idle token reaches A.
				started = true
				submit(0, 5)
				submit(1, 5)
				submit(2, 5)
				// A's second batch arrives while the first round is in
				// flight.
				c.Sim.After(50*simnet.Microsecond, func() { submit(0, 5) })
			case started && (ev.Kind == "send-data" || ev.Kind == "send-token"):
				ev.At -= c.Formed
				ev.Seq -= base
				events = append(events, ev)
			}
		})
	}
	c.Sim.RunUntil(c.Formed + 10*simnet.Millisecond)

	// Keep events up to and including the send of message 20 — under the
	// accelerated protocol that is after the token carrying seq 20.
	cut := len(events)
	for i, ev := range events {
		if ev.Kind == "send-data" && ev.Seq == 20 {
			cut = i + 1
			break
		}
	}
	return events[:cut], nil
}
