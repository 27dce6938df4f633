package obs

import (
	"testing"
	"time"
)

// healthRig builds a detector over a synthetic registry, so each pathology
// can be staged by poking counters directly.
type healthRig struct {
	reg *Registry
	h   *Health
}

func newHealthRig(t *testing.T, cfg HealthConfig) *healthRig {
	t.Helper()
	rig := &healthRig{reg: NewRegistry()}
	rig.h = NewHealth(rig.reg, cfg)
	return rig
}

// pass runs one detector pass, returning the single-scope status.
func (r *healthRig) pass(t *testing.T) HealthStatus {
	t.Helper()
	sts := r.h.Check()
	if len(sts) != 1 {
		t.Fatalf("got %d statuses, want 1", len(sts))
	}
	return sts[0]
}

func TestHealthTokenStall(t *testing.T) {
	rig := newHealthRig(t, HealthConfig{})
	rounds := rig.reg.Counter("ring.rounds")

	rounds.Add(10)
	if st := rig.pass(t); !st.Healthy() {
		t.Fatalf("baseline pass must not flag: %+v", st)
	}
	// No rotation between passes on a ring that has rotated before.
	if st := rig.pass(t); !st.TokenStall || st.Healthy() {
		t.Fatalf("stalled ring not flagged: %+v", st)
	}
	rounds.Add(5)
	if st := rig.pass(t); st.TokenStall {
		t.Fatalf("rotating ring still flagged: %+v", st)
	}
	// A ring that never rotated (rounds == 0) is forming, not stalled.
	fresh := newHealthRig(t, HealthConfig{})
	fresh.pass(t)
	if st := fresh.pass(t); st.TokenStall {
		t.Fatalf("never-rotated ring flagged as stalled: %+v", st)
	}
}

func TestHealthAruStagnation(t *testing.T) {
	rig := newHealthRig(t, HealthConfig{})
	rounds := rig.reg.Counter("ring.rounds")
	rig.reg.Gauge("ring.aru").Set(50)
	rig.reg.Gauge("ring.seq").Set(80)

	rounds.Add(1)
	rig.pass(t)
	rounds.Add(5) // rounds advance, aru frozen below seq
	if st := rig.pass(t); !st.AruStagnation {
		t.Fatalf("frozen aru not flagged: %+v", st)
	}
	rounds.Add(5)
	rig.reg.Gauge("ring.aru").Set(80) // caught up to seq
	if st := rig.pass(t); st.AruStagnation {
		t.Fatalf("advancing aru still flagged: %+v", st)
	}
	rounds.Add(5) // aru == seq: idle ring, not stagnation
	if st := rig.pass(t); st.AruStagnation {
		t.Fatalf("idle ring flagged: %+v", st)
	}
}

func TestHealthRetransStorm(t *testing.T) {
	rig := newHealthRig(t, HealthConfig{RetransBudget: 100})
	rounds := rig.reg.Counter("ring.rounds")
	retr := rig.reg.Counter("ring.retransmitted")

	rounds.Add(1)
	rig.pass(t)
	rounds.Add(2)
	retr.Add(120) // 60/round >= 0.5 * 100
	st := rig.pass(t)
	if !st.RetransStorm {
		t.Fatalf("storm not flagged: %+v", st)
	}
	if st.RetransPerRound != 60 {
		t.Fatalf("RetransPerRound = %v, want 60", st.RetransPerRound)
	}
	rounds.Add(10)
	retr.Add(10) // 1/round: healthy repair traffic
	if st := rig.pass(t); st.RetransStorm {
		t.Fatalf("light retransmission flagged: %+v", st)
	}
	// Without a budget, storm detection is off.
	off := newHealthRig(t, HealthConfig{})
	off.reg.Counter("ring.rounds").Add(1)
	off.pass(t)
	off.reg.Counter("ring.rounds").Add(1)
	off.reg.Counter("ring.retransmitted").Add(1000)
	if st := off.pass(t); st.RetransStorm {
		t.Fatalf("storm flagged with no budget: %+v", st)
	}
}

func TestHealthSlowConsumer(t *testing.T) {
	rig := newHealthRig(t, HealthConfig{})
	rig.reg.Counter("ring.rounds").Add(1)
	rig.pass(t)
	rig.reg.Counter("ring.rounds").Add(1)
	rig.reg.Counter("daemon.slow_disconnects").Add(1)
	if st := rig.pass(t); !st.SlowConsumer {
		t.Fatal("slow-consumer disconnect not flagged")
	}
	rig.reg.Counter("ring.rounds").Add(1)
	if st := rig.pass(t); st.SlowConsumer {
		t.Fatal("flag did not clear after a quiet pass")
	}
}

func TestHealthBackpressure(t *testing.T) {
	rig := newHealthRig(t, HealthConfig{})
	rig.reg.Counter("ring.rounds").Add(1)
	rig.pass(t)
	rig.reg.Counter("ring.rounds").Add(1)
	rig.reg.Counter("daemon.tier_spill").Add(1)
	if st := rig.pass(t); !st.Backpressure || st.Healthy() {
		t.Fatalf("spill-tier growth not flagged: %+v", st)
	}
	rig.reg.Counter("ring.rounds").Add(1)
	rig.reg.Counter("daemon.tier_throttle").Add(1)
	if st := rig.pass(t); !st.Backpressure {
		t.Fatalf("throttle-tier growth not flagged: %+v", st)
	}
	rig.reg.Counter("ring.rounds").Add(1)
	if st := rig.pass(t); st.Backpressure {
		t.Fatalf("flag did not clear after a quiet pass: %+v", st)
	}
	if v := rig.reg.Gauge("health.backpressure").Value(); v != 0 {
		t.Fatalf("health.backpressure gauge = %d, want 0", v)
	}
}

func TestHealthScopesAndGauges(t *testing.T) {
	rig := &healthRig{reg: NewRegistry()}
	rig.h = NewHealth(rig.reg, HealthConfig{
		Scopes: []string{"shard0", "shard1"},
	})
	rig.reg.Counter("shard0.ring.rounds").Add(5)
	rig.reg.Counter("shard1.ring.rounds").Add(5)
	rig.h.Check()
	rig.reg.Counter("shard1.ring.rounds").Add(5) // only shard1 rotates
	sts := rig.h.Check()
	if len(sts) != 2 {
		t.Fatalf("got %d statuses, want 2", len(sts))
	}
	if !sts[0].TokenStall || sts[0].Ring != "shard0" {
		t.Fatalf("shard0 not flagged stalled: %+v", sts[0])
	}
	if sts[1].TokenStall {
		t.Fatalf("healthy shard1 flagged: %+v", sts[1])
	}
	// The verdicts export as scoped gauges for /metrics.
	if rig.reg.Gauge("shard0.health.token_stall").Value() != 1 {
		t.Error("shard0.health.token_stall gauge not set")
	}
	if rig.reg.Gauge("shard1.health.healthy").Value() != 1 {
		t.Error("shard1.health.healthy gauge not set")
	}
}

func TestHealthStatusRunsFirstCheck(t *testing.T) {
	h := NewHealth(NewRegistry(), HealthConfig{})
	if sts := h.Status(); len(sts) != 1 {
		t.Fatalf("Status before any Check = %+v", sts)
	}
}

func TestHealthNilSafe(t *testing.T) {
	var h *Health
	if h.Check() != nil || h.Status() != nil {
		t.Fatal("nil detector must return nil")
	}
	h.Start()
	h.Close()
}

func TestHealthStartOnChange(t *testing.T) {
	changes := make(chan HealthStatus, 16)
	reg := NewRegistry()
	h := NewHealth(reg, HealthConfig{
		interval: time.Millisecond,
		OnChange: func(st HealthStatus) { changes <- st },
	})
	reg.Counter("ring.rounds").Add(3) // rotated once, then wedged
	h.Start()
	h.Start() // idempotent
	defer h.Close()
	select {
	case st := <-changes:
		if !st.TokenStall {
			t.Fatalf("change without stall: %+v", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnChange never fired for a wedged ring")
	}
	h.Close()
	h.Close() // idempotent
}

func TestHealthCloseWithoutStart(t *testing.T) {
	done := make(chan struct{})
	go func() {
		NewHealth(NewRegistry(), HealthConfig{}).Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close without Start hung")
	}
}

// TestHealthMergeStall stages the cross-ring pathology: ring 1's merge
// frontier freezes while ring 0's keeps advancing, which means the global
// order is progressing on skips alone.
func TestHealthMergeStall(t *testing.T) {
	rig := &healthRig{reg: NewRegistry()}
	fl := NewRecorder(16)
	rig.h = NewHealth(rig.reg, HealthConfig{
		Scopes: []string{"shard0", "shard1"},
		Flight: fl,
	})
	front0 := rig.reg.Gauge("shard0.merge.frontier")
	front1 := rig.reg.Gauge("shard1.merge.frontier")
	check := func() map[string]HealthStatus {
		out := make(map[string]HealthStatus)
		for _, st := range rig.h.Check() {
			out[st.Ring] = st
		}
		return out
	}

	front0.Set(10)
	front1.Set(10)
	check() // baseline
	front0.Set(20)
	front1.Set(20) // both advance: healthy
	for scope, st := range check() {
		if st.MergeStall {
			t.Fatalf("%s flagged while both frontiers advance", scope)
		}
	}
	front0.Set(30) // shard1 frozen, shard0 moving
	sts := check()
	if !sts["shard1"].MergeStall {
		t.Fatalf("frozen shard1 frontier not flagged: %+v", sts["shard1"])
	}
	if sts["shard0"].MergeStall {
		t.Fatalf("advancing shard0 flagged: %+v", sts["shard0"])
	}
	if v := rig.reg.Gauge("shard1.health.merge_stall").Value(); v != 1 {
		t.Fatalf("shard1.health.merge_stall gauge = %d, want 1", v)
	}
	// The rising edge landed exactly one flight event.
	evs := fl.Snapshot(0)
	if len(evs) != 1 || evs[0].Kind != FlightSLO || evs[0].Ring != "shard1" || evs[0].Note != "merge_stall" {
		t.Fatalf("flight events = %+v, want one shard1 merge_stall", evs)
	}
	// Still stalled: flag stays, but no second event (edge-triggered).
	front0.Set(40)
	if sts := check(); !sts["shard1"].MergeStall {
		t.Fatal("stall flag dropped while still frozen")
	}
	if n := len(fl.Snapshot(0)); n != 1 {
		t.Fatalf("sustained stall re-recorded: %d events", n)
	}
	// Recovery clears the flag; a later re-freeze records a new edge.
	front1.Set(40)
	front0.Set(50)
	if sts := check(); sts["shard1"].MergeStall {
		t.Fatalf("recovered shard1 still flagged: %+v", sts["shard1"])
	}
	front0.Set(60)
	if sts := check(); !sts["shard1"].MergeStall {
		t.Fatal("re-frozen shard1 not re-flagged")
	}
	if n := len(fl.Snapshot(0)); n != 2 {
		t.Fatalf("re-freeze did not record a second edge: %d events", n)
	}
	// Both frozen together (no peer advanced): idle cluster, not a stall.
	if sts := check(); sts["shard1"].MergeStall || sts["shard0"].MergeStall {
		t.Fatal("idle cluster flagged as merge stall")
	}
}

// TestHealthSLOBurnFlight drives a full latency->SLO->health chain:
// sampled spans past the p99 target must flip the SLOBurn flag and land
// exactly one flight-recorder event on the rising edge.
func TestHealthSLOBurnFlight(t *testing.T) {
	reg := NewRegistry()
	tracer := NewMsgTracer(1, 1024)
	agg := NewLatencyAgg(reg)
	agg.AddTracer("", tracer)
	slo := NewSLO(reg, SLOConfig{TargetP99: 10 * time.Millisecond, minSamples: 1, window: 2})
	slo.Track("", agg.E2E(""))
	fl := NewRecorder(16)
	h := NewHealth(reg, HealthConfig{
		Latency: agg,
		SLO:     slo,
		Flight:  fl,
	})
	base := time.Unix(2000, 0)
	span := func(seq uint64, e2e time.Duration) {
		tracer.Record(Event{Seq: seq, Kind: StageSubmit, At: base})
		tracer.Record(Event{Seq: seq, Kind: StageDeliver, At: base.Add(e2e)})
	}
	check := func() HealthStatus {
		sts := h.Check()
		if len(sts) != 1 {
			t.Fatalf("got %d statuses, want 1", len(sts))
		}
		return sts[0]
	}

	check() // baseline pass (folds nothing, baselines the SLO)
	for seq := uint64(1); seq <= 20; seq++ {
		span(seq, 100*time.Millisecond) // 10x over target
	}
	st := check()
	if !st.SLOBurn || st.Healthy() {
		t.Fatalf("over-target spans did not raise SLOBurn: %+v", st)
	}
	if st.SLOP99Burn < 99 {
		t.Fatalf("SLOP99Burn = %v, want ~100 (every sample over budget)", st.SLOP99Burn)
	}
	if v := reg.Gauge("health.slo_burn").Value(); v != 1 {
		t.Fatalf("health.slo_burn gauge = %d, want 1", v)
	}
	evs := fl.Snapshot(0)
	if len(evs) != 1 || evs[0].Kind != FlightSLO || evs[0].Note != "slo_burn" {
		t.Fatalf("flight events = %+v, want one slo_burn", evs)
	}
	if check(); len(fl.Snapshot(0)) != 1 {
		t.Fatal("sustained burn re-recorded the rising edge")
	}
	// Two quiet passes slide the burst out of the SLO window.
	check()
	if st := check(); st.SLOBurn {
		t.Fatalf("SLOBurn did not clear after the window slid: %+v", st)
	}
}
