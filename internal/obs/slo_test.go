package obs

import (
	"testing"
	"time"
)

// sloRig: one tracked histogram under a registry, targets near the
// LatencyBuckets ladder so bucket-boundary classification is exact.
type sloRig struct {
	reg *Registry
	h   *Histogram
	s   *SLO
}

func newSLORig(t *testing.T, cfg SLOConfig) *sloRig {
	t.Helper()
	rig := &sloRig{reg: NewRegistry()}
	rig.h = rig.reg.Histogram("latency.e2e_ns", LatencyBuckets())
	rig.s = NewSLO(rig.reg, cfg)
	rig.s.Track("", rig.h)
	return rig
}

func (r *sloRig) pass(t *testing.T) SLOStatus {
	t.Helper()
	sts := r.s.Pass()
	if len(sts) != 1 {
		t.Fatalf("got %d statuses, want 1", len(sts))
	}
	return sts[0]
}

func TestSLOWithinTargetNoBreach(t *testing.T) {
	rig := newSLORig(t, SLOConfig{TargetP99: 10 * time.Millisecond})
	rig.pass(t) // baseline
	for i := 0; i < 100; i++ {
		rig.h.ObserveDuration(time.Millisecond)
	}
	st := rig.pass(t)
	if st.Breach || st.P99Burn != 0 {
		t.Fatalf("fast traffic breached: %+v", st)
	}
	if st.Samples != 100 {
		t.Fatalf("Samples = %d, want 100", st.Samples)
	}
}

func TestSLOBurnAndBreach(t *testing.T) {
	rig := newSLORig(t, SLOConfig{TargetP99: 10 * time.Millisecond})
	rig.pass(t)
	// 5 of 100 over target: 5% over / 1% budget = burn 5.0 >= factor 1.0.
	for i := 0; i < 95; i++ {
		rig.h.ObserveDuration(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		rig.h.ObserveDuration(100 * time.Millisecond)
	}
	st := rig.pass(t)
	if !st.Breach {
		t.Fatalf("5%% over-target traffic did not breach: %+v", st)
	}
	if st.P99Burn < 4.9 || st.P99Burn > 5.1 {
		t.Fatalf("P99Burn = %v, want ~5.0", st.P99Burn)
	}
	if v := rig.reg.Gauge("slo.breach").Value(); v != 1 {
		t.Fatalf("slo.breach gauge = %d, want 1", v)
	}
	if v := rig.reg.Gauge("slo.p99_burn_ppm").Value(); v < 4_900_000 || v > 5_100_000 {
		t.Fatalf("slo.p99_burn_ppm = %d, want ~5e6", v)
	}
}

func TestSLOMinSamplesGuardsIdleRings(t *testing.T) {
	rig := newSLORig(t, SLOConfig{TargetP99: 10 * time.Millisecond, minSamples: 10})
	rig.pass(t)
	// One slow message on an idle ring: burn is huge but samples are thin.
	rig.h.ObserveDuration(time.Second)
	if st := rig.pass(t); st.Breach {
		t.Fatalf("a single slow sample breached below minSamples: %+v", st)
	}
}

func TestSLOWindowRecovers(t *testing.T) {
	rig := newSLORig(t, SLOConfig{TargetP99: 10 * time.Millisecond, window: 2, minSamples: 1})
	rig.pass(t)
	for i := 0; i < 20; i++ {
		rig.h.ObserveDuration(time.Second)
	}
	if st := rig.pass(t); !st.Breach {
		t.Fatalf("slow burst did not breach: %+v", st)
	}
	// Two quiet passes slide the burst out of the window.
	for i := 0; i < 20; i++ {
		rig.h.ObserveDuration(time.Millisecond)
	}
	rig.pass(t)
	for i := 0; i < 20; i++ {
		rig.h.ObserveDuration(time.Millisecond)
	}
	if st := rig.pass(t); st.Breach {
		t.Fatalf("breach did not clear after the window slid: %+v", st)
	}
}

func TestSLOP999Rule(t *testing.T) {
	rig := newSLORig(t, SLOConfig{TargetP999: 100 * time.Millisecond})
	rig.pass(t)
	// 2 of 1000 over: 0.2% over / 0.1% budget = burn 2.0.
	for i := 0; i < 998; i++ {
		rig.h.ObserveDuration(time.Millisecond)
	}
	rig.h.ObserveDuration(time.Second)
	rig.h.ObserveDuration(time.Second)
	st := rig.pass(t)
	if !st.Breach || st.P999Burn < 1.9 || st.P999Burn > 2.1 {
		t.Fatalf("p999 burn = %v breach = %v, want ~2.0 true", st.P999Burn, st.Breach)
	}
	if st.P99Burn != 0 {
		t.Fatalf("p99 rule fired with no p99 target: %+v", st)
	}
}

func TestSLOScopedGauges(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("shard0.latency.e2e_ns", LatencyBuckets())
	s := NewSLO(reg, SLOConfig{TargetP99: 10 * time.Millisecond, minSamples: 1})
	s.Track("shard0", h)
	s.Pass()
	for i := 0; i < 20; i++ {
		h.ObserveDuration(time.Second)
	}
	sts := s.Pass()
	if len(sts) != 1 || sts[0].Scope != "shard0" || !sts[0].Breach {
		t.Fatalf("scoped pass = %+v, want one breaching shard0", sts)
	}
	if v := reg.Gauge("shard0.slo.breach").Value(); v != 1 {
		t.Fatalf("shard0.slo.breach = %d, want 1", v)
	}
}

func TestSLONilSafe(t *testing.T) {
	var s *SLO
	s.Track("", nil)
	if s.Pass() != nil {
		t.Fatal("nil SLO Pass must return nil")
	}
	// Nil registry: evaluation works, gauges are no-ops.
	h := NewRegistry().Histogram("x", LatencyBuckets())
	s2 := NewSLO(nil, SLOConfig{TargetP99: time.Millisecond, minSamples: 1})
	s2.Track("", h)
	s2.Pass()
	for i := 0; i < 20; i++ {
		h.ObserveDuration(time.Second)
	}
	if st := s2.Pass(); len(st) != 1 || !st[0].Breach {
		t.Fatalf("nil-registry SLO did not evaluate: %+v", st)
	}
}
