package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Latency attribution: LatencyAgg folds the per-message lifecycle spans a
// MsgTracer records into per-stage latency histograms, answering "where
// did a slow message spend its time". A sampled message's span is reduced
// to its milestones in pipeline order —
//
//	pack → submit → sent → batch_flush → recv → deliver → merge →
//	fanout → writer_flush → client_recv
//
// — and the deltas between consecutive *present* milestones are observed
// into one histogram per stage, named after the work the time bought
// (pack_hold, token_wait, batch_wait, wire, ordering, merge_hold, fanout,
// writer_flush, client_wire). A milestone a deployment doesn't produce
// (no packing, no sharding, no client tracer) simply drops out and its
// neighbor's delta absorbs the gap, so the invariant below holds in every
// configuration:
//
//	sum over stage histograms == e2e histogram sum, exactly,
//
// because each folded span's deltas telescope to its own last−first.

// LatencyBuckets is the bucket ladder for latency-attribution
// histograms: 100ns to ~13s doubling, wide enough for both the virtual
// time testbed (sub-µs stages) and real-network tails.
func LatencyBuckets() []float64 {
	return doublingBuckets(100*time.Nanosecond, 16*time.Second)
}

// latencyMilestones lists a span's milestones in pipeline order: the
// stages that mark reaching each, and the name of the delta ENDING there —
// the stage histogram latency.stage.<delta>_ns holds the time from the
// previous present milestone to this one (pack is always a span's first
// milestone, so no delta ends at it).
var latencyMilestones = [...]struct {
	delta  string
	stages []Kind
}{
	{"", []Kind{StagePack}},
	{"pack_hold", []Kind{StageSubmit}},
	{"token_wait", []Kind{StageSentPre, StageSentPost}},
	{"batch_wait", []Kind{StageBatchFlush}},
	{"wire", []Kind{StageRecv}},
	{"ordering", []Kind{StageDeliver}},
	{"merge_hold", []Kind{StageMergeOut}},
	{"fanout", []Kind{StageFanout}},
	{"writer_flush", []Kind{StageWriterFlush}},
	{"client_wire", []Kind{StageClientRecv}},
}

const numMilestones = len(latencyMilestones)

// latencyMilestone maps a recorded kind to its slot in latencyMilestones,
// or -1 for kinds that are not span milestones (dup receipts and
// retransmission traffic shape the deltas but are not themselves steps
// every message takes; flight events are not stages at all).
func latencyMilestone(k Kind) int {
	for m := range latencyMilestones {
		for _, stage := range latencyMilestones[m].stages {
			if stage == k {
				return m
			}
		}
	}
	return -1
}

// latencySource is one tracer feeding the aggregator, with the scope
// prefix its histograms are registered under ("", "shard0.", ...).
type latencySource struct {
	scope string
	t     *MsgTracer

	stage [numMilestones]*Histogram
	e2e   *Histogram
	spans *Counter

	// folded remembers spans already observed so a refold of a snapshot
	// never double-counts; entries evict once their seq falls out of the
	// tracer's buffer (events for a folded seq can then never reappear).
	folded map[uint64]struct{}
}

// LatencyAgg folds MsgTracer spans into per-stage latency histograms
// registered on a Registry (so they flow to /debug/vars and /metrics,
// with shardN. scopes becoming {ring="N"} labels) and served in digested
// form at /debug/latency. All methods are nil-safe.
type LatencyAgg struct {
	reg *Registry

	mu      sync.Mutex
	sources []*latencySource
}

// NewLatencyAgg returns an aggregator registering its histograms on reg.
// A nil reg returns a nil aggregator (latency attribution off).
func NewLatencyAgg(reg *Registry) *LatencyAgg {
	if reg == nil {
		return nil
	}
	return &LatencyAgg{reg: reg}
}

// AddTracer folds spans from t under the given metric scope ("" for an
// unscoped node, "shard0".."shardN-1" per ring, "client" for a
// client-side tracer — the same scope convention Health uses). No-op on
// a nil aggregator or tracer; adding the same scope twice is allowed but
// the histograms are shared, so feed each scope from one tracer.
func (a *LatencyAgg) AddTracer(scope string, t *MsgTracer) {
	if a == nil || t == nil {
		return
	}
	src := &latencySource{
		scope:  scope,
		t:      t,
		e2e:    a.reg.Histogram(scoped(scope, "latency.e2e_ns"), LatencyBuckets()),
		spans:  a.reg.Counter(scoped(scope, "latency.spans_folded")),
		folded: make(map[uint64]struct{}),
	}
	for i, m := range latencyMilestones {
		if m.delta != "" {
			src.stage[i] = a.reg.Histogram(scoped(scope, "latency.stage."+m.delta+"_ns"), LatencyBuckets())
		}
	}
	a.mu.Lock()
	a.sources = append(a.sources, src)
	a.mu.Unlock()
}

// E2E returns the end-to-end latency histogram registered for scope
// (nil if the scope has no tracer), the natural SLO source.
func (a *LatencyAgg) E2E(scope string) *Histogram {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, src := range a.sources {
		if src.scope == scope {
			return src.e2e
		}
	}
	return nil
}

// Fold drains every source: each sampled seq whose span has settled is
// reduced to milestone deltas and observed exactly once. Cheap to call
// periodically (a health tick) or on demand (the /debug/latency
// handler); no-op on a nil aggregator.
func (a *LatencyAgg) Fold() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, src := range a.sources {
		src.fold()
	}
}

// span collects one seq's earliest event time per milestone.
type span struct {
	at [numMilestones]time.Time
}

// fold scans the tracer buffer once and folds settled spans.
func (src *latencySource) fold() {
	events := src.t.Snapshot(0)
	if len(events) == 0 {
		return
	}
	spans := make(map[uint64]*span)
	var maxSettled, minSeq uint64
	minSeq = ^uint64(0)
	for _, ev := range events {
		m := latencyMilestone(ev.Kind)
		if m < 0 || ev.At.IsZero() {
			continue
		}
		if ev.Seq < minSeq {
			minSeq = ev.Seq
		}
		sp := spans[ev.Seq]
		if sp == nil {
			sp = &span{}
			spans[ev.Seq] = sp
		}
		if sp.at[m].IsZero() || ev.At.Before(sp.at[m]) {
			sp.at[m] = ev.At
		}
		// Ordering-or-later stages mark the protocol done with the seq:
		// any OLDER seq's span can no longer grow its early stages.
		if m >= 5 && ev.Seq > maxSettled {
			maxSettled = ev.Seq
		}
	}
	// Drop fold-memory for seqs that left the buffer; their events are
	// gone and cannot be re-observed.
	for seq := range src.folded {
		if seq < minSeq {
			delete(src.folded, seq)
		}
	}
	for seq, sp := range spans {
		if _, done := src.folded[seq]; done {
			continue
		}
		// A span settles when it reached delivery (or beyond) itself, or
		// when a newer seq has — this tracer will record nothing more
		// for it (send-only nodes settle their spans this way).
		settled := seq < maxSettled
		for m := 5; m < numMilestones; m++ {
			if !sp.at[m].IsZero() {
				settled = true
				break
			}
		}
		if !settled {
			continue
		}
		src.folded[seq] = struct{}{}
		src.observe(sp)
	}
}

// observe folds one span: each present milestone's delta against the
// latest timestamp seen so far goes into its stage histogram, and the
// final running max minus the first milestone into e2e. Measuring
// against a running max (not the immediately preceding milestone) keeps
// the telescoping-sum invariant exact even when stamps from different
// goroutines land slightly out of order: a milestone behind the running
// max contributes zero and does not move the baseline.
func (src *latencySource) observe(sp *span) {
	first, count := -1, 0
	var runMax time.Time
	for m := 0; m < numMilestones; m++ {
		if sp.at[m].IsZero() {
			continue
		}
		count++
		if first < 0 {
			first = m
			runMax = sp.at[m]
			continue
		}
		d := sp.at[m].Sub(runMax)
		if d < 0 {
			d = 0
		} else {
			runMax = sp.at[m]
		}
		src.stage[m].ObserveDuration(d)
	}
	if count < 2 {
		return // single-milestone span: no deltas, no e2e
	}
	src.e2e.ObserveDuration(runMax.Sub(sp.at[first]))
	src.spans.Inc()
}

// LatencyStageSnapshot digests one stage histogram for /debug/latency.
type LatencyStageSnapshot struct {
	Count uint64  `json:"count"`
	SumNs float64 `json:"sum_ns"`
	P50Ns float64 `json:"p50_ns"`
	P99Ns float64 `json:"p99_ns"`
	MaxNs float64 `json:"max_ns,omitempty"`
}

// LatencyScopeSnapshot is one scope's digest.
type LatencyScopeSnapshot struct {
	Scope       string                          `json:"scope"`
	SpansFolded uint64                          `json:"spans_folded"`
	E2E         LatencyStageSnapshot            `json:"e2e"`
	Stages      map[string]LatencyStageSnapshot `json:"stages"`
	// StageSumNs and E2ESumNs restate the attribution invariant: the
	// stage sums telescope to the e2e sum.
	StageSumNs float64 `json:"stage_sum_ns"`
	E2ESumNs   float64 `json:"e2e_sum_ns"`
}

func digest(h *Histogram) LatencyStageSnapshot {
	s := h.Snapshot()
	d := LatencyStageSnapshot{
		Count: s.Count,
		SumNs: s.Sum,
		P50Ns: h.Quantile(0.50),
		P99Ns: h.Quantile(0.99),
	}
	if n := len(s.Buckets); n > 0 {
		// Upper bound of the highest non-empty bucket; like Quantile, the
		// +Inf bucket reports the last finite bound (JSON has no +Inf).
		d.MaxNs = math.Min(s.Buckets[n-1].Le, h.bounds[len(h.bounds)-1])
	}
	return d
}

// Snapshot folds pending spans and returns every scope's digest, sorted
// by scope. Nil on a nil aggregator.
func (a *LatencyAgg) Snapshot() []LatencyScopeSnapshot {
	if a == nil {
		return nil
	}
	a.Fold()
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]LatencyScopeSnapshot, 0, len(a.sources))
	for _, src := range a.sources {
		sc := LatencyScopeSnapshot{
			Scope:       src.scope,
			SpansFolded: src.spans.Value(),
			E2E:         digest(src.e2e),
			Stages:      make(map[string]LatencyStageSnapshot),
		}
		for i, h := range src.stage {
			if h == nil {
				continue
			}
			d := digest(h)
			if d.Count == 0 {
				continue
			}
			sc.Stages[latencyMilestones[i].delta] = d
			sc.StageSumNs += d.SumNs
		}
		sc.E2ESumNs = sc.E2E.SumNs
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scope < out[j].Scope })
	return out
}
