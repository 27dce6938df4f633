package simnet

import (
	"testing"
	"time"

	"accelring/internal/faults"
	"accelring/internal/wire"
)

func sendOne(t *testing.T, inj *faults.Injector) (delivered int, st Stats) {
	t.Helper()
	sim := NewSim()
	var got int
	net, err := NewNetwork(sim, GigabitFabric(2), func(to NodeID, p *Packet) {
		got++
	})
	if err != nil {
		t.Fatal(err)
	}
	net.SetInjector(inj)
	net.Unicast(0, 1, &Packet{From: 0, Kind: wire.FrameData, Wire: 100})
	sim.RunUntil(Second)
	return got, net.Stats()
}

// TestNetworkInjector: the simulated switch must honor drop, duplicate,
// and delay decisions from the same injector type the transports accept,
// all in virtual time.
func TestNetworkInjector(t *testing.T) {
	var dropPlan faults.Plan
	dropPlan.Add(faults.Rule{Name: "drop", Model: faults.Loss{P: 1}})
	if got, st := sendOne(t, faults.New(1, dropPlan)); got != 0 || st.FilterDrops != 1 {
		t.Fatalf("drop rule: delivered=%d drops=%d", got, st.FilterDrops)
	}

	var dupPlan faults.Plan
	dupPlan.Add(faults.Rule{Name: "dup", Model: faults.Duplicate{P: 1, Copies: 2}})
	if got, st := sendOne(t, faults.New(1, dupPlan)); got != 3 || st.InjectedDups != 2 {
		t.Fatalf("dup rule: delivered=%d dups=%d", got, st.InjectedDups)
	}

	var delayPlan faults.Plan
	delayPlan.Add(faults.Rule{Name: "delay",
		Model: faults.Delay{Min: time.Millisecond, Max: time.Millisecond}})
	sim := NewSim()
	var at Time
	net, err := NewNetwork(sim, GigabitFabric(2), func(to NodeID, p *Packet) { at = sim.Now() })
	if err != nil {
		t.Fatal(err)
	}
	net.SetInjector(faults.New(1, delayPlan))
	net.Unicast(0, 1, &Packet{From: 0, Kind: wire.FrameData, Wire: 100})
	sim.RunUntil(Second)
	if at < Millisecond {
		t.Fatalf("delayed packet arrived at %v, want ≥ 1ms", at)
	}
	if st := net.Stats(); st.InjectedDelays != 1 {
		t.Fatalf("InjectedDelays=%d, want 1", st.InjectedDelays)
	}
}

// TestNetworkInjectorDeterministic: two identical simulations with the
// same seed must produce identical delivery schedules.
func TestNetworkInjectorDeterministic(t *testing.T) {
	run := func() []Time {
		var plan faults.Plan
		plan.Add(faults.Rule{Name: "loss", Model: faults.Loss{P: 0.3}})
		plan.Add(faults.Rule{Name: "delay", Model: faults.Delay{Max: 2 * time.Millisecond}})
		sim := NewSim()
		var arrivals []Time
		net, err := NewNetwork(sim, GigabitFabric(3), func(to NodeID, p *Packet) {
			arrivals = append(arrivals, sim.Now())
		})
		if err != nil {
			t.Fatal(err)
		}
		net.SetInjector(faults.New(5, plan))
		for i := 0; i < 50; i++ {
			net.Multicast(0, &Packet{From: 0, Kind: wire.FrameData, Wire: 500})
		}
		sim.RunUntil(Second)
		return arrivals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d packets", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
