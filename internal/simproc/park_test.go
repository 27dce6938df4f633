package simproc

import (
	"testing"
	"time"

	"accelring/internal/simnet"
)

// TestIdleRingParks: on virtual time an idle 3-node ring's leader parks
// every quiet token for as long as its rotation took, so the ring turns
// about half as often as it would without the park. Without it the
// leader passes the token on as soon as its receive completes: a round is
// one moving rotation plus that receive cost. With it the receive hides
// inside the park, so the fall is a little under 2x.
func TestIdleRingParks(t *testing.T) {
	opts := gigOpts(3, true)
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	runFor(c, 10*simnet.Millisecond) // past recovery's last rounds
	leader := c.Nodes[0]
	r0, st0 := leader.Engine().Counters().Rounds, leader.step.Status()
	const span = simnet.Second
	runFor(c, span)
	st := leader.step.Status()
	rounds := float64(leader.Engine().Counters().Rounds - r0)
	parked := st.TokenParked - st0.TokenParked
	perSec := rounds / time.Duration(span).Seconds()
	moving := rounds / (time.Duration(span) - parked).Seconds()
	unparked := 1 / (1/moving + time.Duration(opts.Profile.RecvTokenFixed).Seconds())
	t.Logf("%.0f rounds/s, %.0f without the park (%.2fx); %d parks, %v parked",
		perSec, unparked, unparked/perSec, st.TokenParks-st0.TokenParks, parked)
	if unparked/perSec < 1.75 {
		t.Fatalf("idle rounds fell only %.2fx", unparked/perSec)
	}
	for i, n := range c.Nodes[1:] {
		if p := n.step.Status().TokenParks; p != 0 {
			t.Fatalf("node %d (not the leader) parked %d times", i+2, p)
		}
	}
}
