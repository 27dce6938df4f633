// Package obs is the observability layer: a zero-dependency (standard
// library only) metrics registry of atomic counters, gauges, and
// fixed-bucket histograms; one scalar Event and one bounded Recorder of
// them (recorder.go) that the protocol stack reports into through a
// RingObserver (trace.go); and an HTTP debug server exposing the registry,
// three views of the recorders' events, and pprof (http.go).
//
// Everything is nil-safe: methods on a nil *Registry, *Counter, *Gauge,
// *Histogram, *Recorder, or *RingObserver are no-ops, so instrumented
// code needs no "is observability on?" branches and the zero value costs
// nothing beyond an inlined nil check on the hot path.
package obs

import (
	"encoding/json"
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's value. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta. No-op on a nil gauge.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates samples into fixed buckets. Observation is
// lock-free; bucket bounds are immutable after creation.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// doublingBuckets returns exponential bucket bounds in nanoseconds: lo,
// 2·lo, 4·lo, ... up to hi.
func doublingBuckets(lo, hi time.Duration) []float64 {
	var b []float64
	for v := float64(lo); v <= float64(hi); v *= 2 {
		b = append(b, v)
	}
	return b
}

// DurationBuckets returns exponential bucket bounds in nanoseconds from
// 1µs to ~16s (doubling), suitable for latency histograms.
func DurationBuckets() []float64 { return doublingBuckets(time.Microsecond, 16*time.Second) }

// FineDurationBuckets returns exponential bucket bounds in nanoseconds
// from 100ns to ~1.7s (doubling). DurationBuckets starts at 1µs, which
// collapses the sim testbed's sub-µs HandleData times and µs-scale token
// rounds into one or two buckets; engine-level histograms use this finer
// ladder instead. Existing metric names are unchanged — only the bounds
// differ.
func FineDurationBuckets() []float64 {
	return doublingBuckets(100*time.Nanosecond, 2*time.Second)
}

// Observe records one sample. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration sample in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d)) }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket that holds it, the standard Prometheus
// histogram_quantile estimate. The first bucket interpolates from zero;
// a quantile landing in the +Inf bucket reports the highest finite
// bound. Returns 0 on a nil or empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) {
				// +Inf bucket: the best point estimate is the last
				// finite bound.
				if len(h.bounds) == 0 {
					return 0
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (h.bounds[i]-lo)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Count is the total number of samples.
	Count uint64 `json:"count"`
	// Sum is the sum of all samples.
	Sum float64 `json:"sum"`
	// Mean is Sum/Count (0 when empty).
	Mean float64 `json:"mean"`
	// Buckets hold one entry per bound plus a final +Inf bucket.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one histogram bucket: the count of samples at or
// below the upper bound (exclusive of earlier buckets).
type HistogramBucket struct {
	// Le is the bucket's inclusive upper bound; +Inf for the last bucket.
	Le float64 `json:"le"`
	// N is the number of samples that fell in this bucket.
	N uint64 `json:"n"`
}

// MarshalJSON renders +Inf bounds as the string "inf".
func (b HistogramBucket) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.Le, 1) {
		return json.Marshal(map[string]any{"le": "inf", "n": b.N})
	}
	return json.Marshal(map[string]any{"le": b.Le, "n": b.N})
}

// Snapshot returns a copy of the histogram's state, omitting empty
// buckets. It returns a zero snapshot for a nil histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sum.Load())
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, HistogramBucket{Le: le, N: n})
	}
	return s
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use and nil-safe: every accessor on a nil registry returns a
// nil metric whose methods are no-ops, so a nil *Registry is "observability
// off" with no further checks at instrumentation sites.
//
// Metric handles should be looked up once and cached; the lookup takes a
// lock, the cached handle's operations are a single atomic.
type Registry struct {
	start time.Time

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() any),
	}
}

// Counter returns the named counter, creating it on first use. It returns
// nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return getOrCreate(&r.mu, r.counters, name, func() *Counter { return &Counter{} })
}

// getOrCreate returns m[name], creating it with mk on first use: a read
// lock on the common path, the write lock (and a re-check) only to insert.
func getOrCreate[T any](mu *sync.RWMutex, m map[string]*T, name string, mk func() *T) *T {
	mu.RLock()
	v := m[name]
	mu.RUnlock()
	if v != nil {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	if v = m[name]; v == nil {
		v = mk()
		m[name] = v
	}
	return v
}

// Gauge returns the named gauge, creating it on first use. It returns nil
// (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return getOrCreate(&r.mu, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls ignore bounds). It returns nil on a nil
// registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return getOrCreate(&r.mu, r.hists, name, func() *Histogram { return newHistogram(bounds) })
}

// Publish registers a computed variable: fn is called at snapshot time and
// its (JSON-marshalable) result appears under name in /debug/vars. It
// replaces any previous function of the same name. No-op on a nil
// registry.
func (r *Registry) Publish(name string, fn func() any) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// metrics returns a copy of every name-to-metric map, so readers render
// (and call published functions) outside the registry lock.
func (r *Registry) metrics() (map[string]*Counter, map[string]*Gauge, map[string]*Histogram, map[string]func() any) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return maps.Clone(r.counters), maps.Clone(r.gauges), maps.Clone(r.hists), maps.Clone(r.funcs)
}

// Snapshot returns every metric's current value keyed by name, plus
// "uptime_seconds". Counters and gauges map to numbers, histograms to
// HistogramSnapshot, published functions to their result.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	counters, gauges, hists, funcs := r.metrics()
	for k, v := range counters {
		out[k] = v.Value()
	}
	for k, v := range gauges {
		out[k] = v.Value()
	}
	for k, v := range hists {
		out[k] = v.Snapshot()
	}
	for k, fn := range funcs {
		out[k] = fn()
	}
	out["uptime_seconds"] = time.Since(r.start).Seconds()
	return out
}
