package obs

import (
	"sort"
	"sync"
	"time"
)

// SLO evaluation: burn-rate detection over latency histograms, the
// Google-SRE style "are we spending our error budget faster than we earn
// it" signal. An SLO tracks one cumulative latency histogram per scope
// (normally the latency.e2e_ns histogram LatencyAgg maintains), and each
// evaluation pass — driven by the Health detector loop — diffs the
// histogram against the previous pass, classifies the new samples as
// within or over the p99/p999 targets, and folds the result into a
// rolling window. The burn rate is the windowed over-target fraction
// divided by the target's error budget (1% for p99, 0.1% for p999): 1.0
// means latency is exactly on budget, >= the configured factor flips the
// scope's SLOBurn health flag and lands a flight-recorder event.

// sloWindow is how many evaluation passes the rolling window holds.
const sloWindow = 8

// sloMinSamples is the minimum windowed sample count before a breach can
// be declared, so a single slow message on an idle ring does not page
// anyone.
const sloMinSamples = 10

// SLOConfig parameterizes an SLO evaluator.
type SLOConfig struct {
	// TargetP99 is the p99 latency target. Zero disables the p99 rule.
	TargetP99 time.Duration
	// TargetP999 is the p999 latency target. Zero disables the p999 rule.
	TargetP999 time.Duration
	// BurnFactor is the burn rate at or above which a scope is breaching
	// (default 1.0: latency exactly on budget).
	BurnFactor float64

	// window and minSamples override sloWindow and sloMinSamples (tests).
	window     int
	minSamples uint64
}

// SLOStatus is one scope's state after an evaluation pass.
type SLOStatus struct {
	Scope string `json:"scope"`
	// P99Burn/P999Burn are the windowed burn rates (1.0 = on budget).
	P99Burn  float64 `json:"p99_burn"`
	P999Burn float64 `json:"p999_burn"`
	// Samples is the windowed sample count the rates were computed over.
	Samples uint64 `json:"samples"`
	// EstP99 is the current cumulative p99 estimate of the source
	// histogram, for dashboards.
	EstP99 time.Duration `json:"est_p99_ns"`
	// Breach reports whether either rule is burning at or past the
	// configured factor.
	Breach bool `json:"breach"`
}

// sloSample is one pass's classified delta.
type sloSample struct {
	total, over99, over999 uint64
}

type sloScope struct {
	h    *Histogram
	prev []uint64 // previous cumulative per-bucket counts

	window []sloSample
	wpos   int

	burn99G, burn999G, breachG, p99G *Gauge
}

// SLO evaluates latency targets per scope. All methods are nil-safe;
// construction with a nil registry still evaluates (gauges are no-ops).
type SLO struct {
	cfg SLOConfig
	reg *Registry

	mu     sync.Mutex
	scopes map[string]*sloScope
}

// NewSLO builds an evaluator. reg, when non-nil, receives per-scope
// slo.* gauges (burn rates in parts-per-million, breach flag, p99
// estimate).
func NewSLO(reg *Registry, cfg SLOConfig) *SLO {
	if cfg.window <= 0 {
		cfg.window = sloWindow
	}
	if cfg.BurnFactor <= 0 {
		cfg.BurnFactor = 1.0
	}
	if cfg.minSamples == 0 {
		cfg.minSamples = sloMinSamples
	}
	return &SLO{cfg: cfg, reg: reg, scopes: make(map[string]*sloScope)}
}

// Track evaluates h under scope ("" or "shardN", the Health scope
// convention) from the next Pass on. No-op on a nil SLO or histogram;
// re-tracking a scope replaces its source and resets its window.
func (s *SLO) Track(scope string, h *Histogram) {
	if s == nil || h == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scopes[scope] = &sloScope{
		h:        h,
		window:   make([]sloSample, s.cfg.window),
		burn99G:  s.reg.Gauge(scoped(scope, "slo.p99_burn_ppm")),
		burn999G: s.reg.Gauge(scoped(scope, "slo.p999_burn_ppm")),
		breachG:  s.reg.Gauge(scoped(scope, "slo.breach")),
		p99G:     s.reg.Gauge(scoped(scope, "slo.p99_ns")),
	}
}

// overCount returns how many of the delta samples exceeded target:
// total minus the samples in buckets whose upper bound fits under it.
// Classification is by bucket, so a target between two bounds counts
// the whole straddling bucket as over — pick targets near the ladder.
func overCount(h *Histogram, delta []uint64, target time.Duration) uint64 {
	var under, total uint64
	for i, n := range delta {
		total += n
		if i < len(h.bounds) && h.bounds[i] <= float64(target) {
			under += n
		}
	}
	return total - under
}

// Pass runs one evaluation over every tracked scope and returns the
// statuses sorted by scope. Call it at a fixed cadence (the Health loop
// does); the rolling window is denominated in passes.
func (s *SLO) Pass() []SLOStatus {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SLOStatus, 0, len(s.scopes))
	for scope, sc := range s.scopes {
		out = append(out, s.passScope(scope, sc))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scope < out[j].Scope })
	return out
}

func (s *SLO) passScope(scope string, sc *sloScope) SLOStatus {
	cur := make([]uint64, len(sc.h.counts))
	for i := range sc.h.counts {
		cur[i] = sc.h.counts[i].Load()
	}
	delta := make([]uint64, len(cur))
	for i := range cur {
		d := cur[i]
		if sc.prev != nil && i < len(sc.prev) && sc.prev[i] <= d {
			d -= sc.prev[i]
		}
		delta[i] = d
	}
	first := sc.prev == nil
	sc.prev = cur
	var smp sloSample
	if !first { // the first pass only baselines
		for _, n := range delta {
			smp.total += n
		}
		if s.cfg.TargetP99 > 0 {
			smp.over99 = overCount(sc.h, delta, s.cfg.TargetP99)
		}
		if s.cfg.TargetP999 > 0 {
			smp.over999 = overCount(sc.h, delta, s.cfg.TargetP999)
		}
	}
	sc.window[sc.wpos] = smp
	sc.wpos = (sc.wpos + 1) % len(sc.window)

	var win sloSample
	for _, w := range sc.window {
		win.total += w.total
		win.over99 += w.over99
		win.over999 += w.over999
	}
	st := SLOStatus{Scope: scope, Samples: win.total}
	if win.total > 0 {
		if s.cfg.TargetP99 > 0 {
			st.P99Burn = float64(win.over99) / float64(win.total) / 0.01
		}
		if s.cfg.TargetP999 > 0 {
			st.P999Burn = float64(win.over999) / float64(win.total) / 0.001
		}
	}
	st.EstP99 = time.Duration(sc.h.Quantile(0.99))
	if win.total >= s.cfg.minSamples {
		st.Breach = (s.cfg.TargetP99 > 0 && st.P99Burn >= s.cfg.BurnFactor) ||
			(s.cfg.TargetP999 > 0 && st.P999Burn >= s.cfg.BurnFactor)
	}
	sc.burn99G.Set(int64(st.P99Burn * 1e6))
	sc.burn999G.Set(int64(st.P999Burn * 1e6))
	sc.p99G.Set(int64(st.EstP99))
	if st.Breach {
		sc.breachG.Set(1)
	} else {
		sc.breachG.Set(0)
	}
	return st
}
