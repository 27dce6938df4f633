package bench

import (
	"math"
	"math/rand"
	"testing"

	"accelring/internal/evs"
	"accelring/internal/ringnode"
	"accelring/internal/simnet"
	"accelring/internal/simproc"
)

func testCluster(t *testing.T) *simproc.Cluster {
	t.Helper()
	c, err := simproc.NewCluster(simproc.Options{
		Fabric:  simnet.GigabitFabric(3),
		Profile: simproc.Library(),
		Ring:    ringnode.Accelerated(0, nil, 20, 160, 15),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunRateApproximatesRate(t *testing.T) {
	c := testCluster(t)
	g := &generator{
		sim:         c.Sim,
		rng:         rand.New(rand.NewSource(7)),
		payloadSize: 200,
		service:     evs.Agreed,
	}
	const rate = 5000.0 // msgs/s
	horizon := 500 * simnet.Millisecond
	g.runRate(c.Nodes[0], rate, c.Formed+horizon)
	c.Sim.RunUntil(c.Formed + horizon + 50*simnet.Millisecond)
	got := float64(c.Nodes[0].Submitted())
	want := rate * float64(horizon) / 1e9
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("submitted %v messages, want about %v", got, want)
	}
}

func TestRunRateZeroIsNoop(t *testing.T) {
	c := testCluster(t)
	g := &generator{sim: c.Sim, rng: rand.New(rand.NewSource(1)), payloadSize: 64, service: evs.Agreed}
	g.runRate(c.Nodes[0], 0, c.Formed+simnet.Second)
	c.Sim.RunUntil(c.Formed + 10*simnet.Millisecond)
	if c.Nodes[0].Submitted() != 0 {
		t.Fatal("zero rate submitted messages")
	}
}

func TestRunSaturatingKeepsQueueFed(t *testing.T) {
	c := testCluster(t)
	g := &generator{sim: c.Sim, rng: rand.New(rand.NewSource(1)), payloadSize: 1350, service: evs.Agreed}
	for _, n := range c.Nodes {
		g.runSaturating(n, 20, 100*simnet.Microsecond, c.Formed+50*simnet.Millisecond)
	}
	c.Sim.RunUntil(c.Formed + 60*simnet.Millisecond)
	// Every node must have sent a personal window's worth many times over.
	for i, n := range c.Nodes {
		if sent := n.Engine().Counters().Sent; sent < 200 {
			t.Fatalf("node %d sent only %d messages under saturation", i, sent)
		}
	}
}

func TestPayloadsAreStamped(t *testing.T) {
	c := testCluster(t)
	g := &generator{sim: c.Sim, rng: rand.New(rand.NewSource(3)), payloadSize: 64, service: evs.Agreed}
	var stamps []simnet.Time
	c.SetDeliverHook(func(node simnet.NodeID, ev evs.Event, at simnet.Time) {
		m, ok := ev.(evs.Message)
		if node != 0 || !ok {
			return
		}
		ts := simproc.PayloadStamp(m.Payload)
		if ts < 0 || ts > at {
			t.Errorf("stamp %v outside [0, %v]", ts, at)
		}
		stamps = append(stamps, ts)
	})
	g.runRate(c.Nodes[1], 2000, c.Formed+50*simnet.Millisecond)
	c.Sim.RunUntil(c.Formed + 100*simnet.Millisecond)
	if len(stamps) == 0 {
		t.Fatal("no stamped deliveries")
	}
}

func TestSpreadRate(t *testing.T) {
	// 1 Gb/s of 1350-byte payloads over 8 nodes ≈ 11574 msgs/s/node.
	got := spreadRate(1e9, 1350, 8)
	if math.Abs(got-11574) > 1 {
		t.Fatalf("SpreadRate = %v", got)
	}
	if spreadRate(1e9, 0, 8) != 0 || spreadRate(1e9, 1350, 0) != 0 {
		t.Fatal("degenerate SpreadRate not zero")
	}
}
