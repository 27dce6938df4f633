package obs

import (
	"sync"
	"time"
)

// RoundTrace is one structured record of a token visit at one participant:
// what the token carried when it arrived, what the participant put on it,
// and what the participant multicast around it. Field names follow the
// paper's terminology (§III-B): seq is the highest sequence number
// assigned on the ring, aru is the all-received-up-to line, fcc is the
// flow-control count of messages sent in the previous rotation.
type RoundTrace struct {
	// At is the token's arrival time (zero when the driver has no wall
	// clock, e.g. in the discrete-event simulator).
	At time.Time `json:"at,omitempty"`
	// Round is the token round number.
	Round uint64 `json:"round"`
	// TokenSeq is the token's deduplication sequence number.
	TokenSeq uint32 `json:"token_seq"`
	// RecvSeq is the token's seq field on arrival.
	RecvSeq uint64 `json:"recv_seq"`
	// SentSeq is the seq field placed on the outgoing token (RecvSeq plus
	// the new messages initiated this visit).
	SentSeq uint64 `json:"sent_seq"`
	// Aru is the aru placed on the outgoing token.
	Aru uint64 `json:"aru"`
	// Fcc is the flow-control count placed on the outgoing token.
	Fcc uint32 `json:"fcc"`
	// New is the number of new messages initiated this visit.
	New int `json:"new"`
	// Pre is how many of the new messages were multicast before passing
	// the token; Post is how many after (the accelerated share).
	Pre  int `json:"pre"`
	Post int `json:"post"`
	// Retransmitted is the number of retransmission requests answered.
	Retransmitted int `json:"retransmitted"`
	// Requested is the number of retransmission requests added to the
	// outgoing token.
	Requested int `json:"requested"`
	// Hold is the token hold time: token receipt to token send (zero
	// without a wall clock).
	Hold time.Duration `json:"hold_ns"`
}

// RingTracer records the last N RoundTraces in a bounded ring buffer. It
// is safe for concurrent use and nil-safe: Record on a nil tracer is a
// no-op.
type RingTracer struct {
	mu    sync.Mutex
	buf   []RoundTrace
	next  int
	total uint64
}

// DefaultTraceDepth is the ring-buffer size used when none is given.
const DefaultTraceDepth = 64

// NewRingTracer returns a tracer holding the last n rounds (n <= 0 uses
// DefaultTraceDepth).
func NewRingTracer(n int) *RingTracer {
	if n <= 0 {
		n = DefaultTraceDepth
	}
	return &RingTracer{buf: make([]RoundTrace, 0, n)}
}

// Record appends one round trace, evicting the oldest when full.
func (t *RingTracer) Record(tr RoundTrace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, tr)
	} else {
		t.buf[t.next] = tr
		t.next = (t.next + 1) % cap(t.buf)
	}
	t.total++
	t.mu.Unlock()
}

// Total returns the number of rounds recorded over the tracer's lifetime.
func (t *RingTracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot returns up to max of the most recent traces, oldest first
// (max <= 0 returns everything buffered). It returns nil on a nil tracer.
func (t *RingTracer) Snapshot(max int) []RoundTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.buf)
	out := make([]RoundTrace, 0, n)
	// t.next is the oldest element once the buffer has wrapped.
	for i := 0; i < n; i++ {
		out = append(out, t.buf[(t.next+i)%n])
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// RingObserver bundles the hooks the protocol stack reports into: a
// metrics registry, a round tracer, and an optional wall clock. Any field
// may be nil; a nil *RingObserver disables observation entirely. One
// observer serves every ring a participant installs over its lifetime —
// counters accumulate across membership changes, gauges reflect the
// current ring.
type RingObserver struct {
	// Reg receives counters, gauges, and histograms (nil: metrics off).
	Reg *Registry
	// Tracer receives one RoundTrace per token visit (nil: tracing off).
	Tracer *RingTracer
	// Clock supplies wall time for hold times and delivery latencies
	// (nil: durations are reported as zero). Simulated drivers leave it
	// nil to stay deterministic.
	Clock func() time.Time
	// Label, when non-empty, scopes every metric the protocol stack
	// reports through this observer: "shard1.ring.rounds" instead of
	// "ring.rounds". A sharded node gives each ring instance its own
	// label so per-ring series stay separable in one shared registry.
	// Must be set before the first report and never changed.
	Label string
	// Msg receives sampled per-message lifecycle events (nil: message
	// tracing off — the engine's zero-allocation fast path).
	Msg *MsgTracer
	// Flight receives compact black-box protocol events (nil: flight
	// recording off). Sharded nodes share one recorder across rings;
	// events carry the observer's Label in their Ring field.
	Flight *FlightRecorder

	once sync.Once
	m    *ringMetrics

	dmu       sync.RWMutex
	delivered map[string]*deliveryMetrics
}

// ringMetrics caches the hot-path metric handles so a token visit does no
// registry (map) lookups.
type ringMetrics struct {
	rounds, sentPre, sentPost, retransmitted, requested *Counter
	seq, aru, fcc                                       *Gauge
	hold                                                *Histogram
}

type deliveryMetrics struct {
	count   *Counter
	latency *Histogram
}

// Now returns the observer's wall time, or the zero time when it has no
// clock (or is nil).
func (o *RingObserver) Now() time.Time {
	if o == nil || o.Clock == nil {
		return time.Time{}
	}
	return o.Clock()
}

// MsgTracer returns the observer's message tracer; nil (tracing off) on
// a nil observer.
func (o *RingObserver) MsgTracer() *MsgTracer {
	if o == nil {
		return nil
	}
	return o.Msg
}

// Stamp records a lifecycle stage for seq at the observer's clock if its
// message tracer samples seq, and reports whether it did. False on a nil
// observer or tracer, and for seq 0 (no carrier sequence number).
func (o *RingObserver) Stamp(seq uint64, stage MsgStage) bool {
	if seq == 0 {
		return false
	}
	mt := o.MsgTracer()
	if !mt.Sampled(seq) {
		return false
	}
	mt.Record(MsgEvent{Seq: seq, Stage: stage, At: o.Now()})
	return true
}

// Recorder returns the observer's flight recorder; nil (recording off)
// on a nil observer.
func (o *RingObserver) Recorder() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.Flight
}

// MetricName scopes a metric name with the observer's label ("<label>.<base>"),
// or returns it unchanged when the observer is nil or unlabeled. The
// membership machine and other per-ring reporters route their registry
// names through this so a sharded node's rings never collide.
func (o *RingObserver) MetricName(base string) string {
	if o == nil || o.Label == "" {
		return base
	}
	return o.Label + "." + base
}

func (o *RingObserver) metrics() *ringMetrics {
	o.once.Do(func() {
		r := o.Reg
		o.m = &ringMetrics{
			rounds:        r.Counter(o.MetricName("ring.rounds")),
			sentPre:       r.Counter(o.MetricName("ring.sent_pre_token")),
			sentPost:      r.Counter(o.MetricName("ring.sent_post_token")),
			retransmitted: r.Counter(o.MetricName("ring.retransmitted")),
			requested:     r.Counter(o.MetricName("ring.rtr_requested")),
			seq:           r.Gauge(o.MetricName("ring.seq")),
			aru:           r.Gauge(o.MetricName("ring.aru")),
			fcc:           r.Gauge(o.MetricName("ring.fcc")),
			hold:          r.Histogram(o.MetricName("ring.token_hold_ns"), FineDurationBuckets()),
		}
	})
	return o.m
}

// OnRound records one token visit: the trace goes to the tracer, the
// aggregates to the registry. No-op on a nil observer.
func (o *RingObserver) OnRound(tr RoundTrace) {
	if o == nil {
		return
	}
	o.Tracer.Record(tr)
	if o.Reg == nil {
		return
	}
	m := o.metrics()
	m.rounds.Inc()
	m.sentPre.Add(uint64(tr.Pre))
	m.sentPost.Add(uint64(tr.Post))
	m.retransmitted.Add(uint64(tr.Retransmitted))
	m.requested.Add(uint64(tr.Requested))
	m.seq.Set(int64(tr.SentSeq))
	m.aru.Set(int64(tr.Aru))
	m.fcc.Set(int64(tr.Fcc))
	if tr.Hold > 0 {
		m.hold.ObserveDuration(tr.Hold)
	}
}

// OnDeliver records one application delivery of the given service level
// ("agreed", "safe", ...). latency is the local submit-to-delivery time
// for messages this participant initiated; pass 0 for messages received
// from others (counted, not timed). No-op on a nil observer.
func (o *RingObserver) OnDeliver(service string, latency time.Duration) {
	if o == nil || o.Reg == nil {
		return
	}
	o.dmu.RLock()
	d := o.delivered[service]
	o.dmu.RUnlock()
	if d == nil {
		o.dmu.Lock()
		if o.delivered == nil {
			o.delivered = make(map[string]*deliveryMetrics)
		}
		if d = o.delivered[service]; d == nil {
			d = &deliveryMetrics{
				count:   o.Reg.Counter(o.MetricName("ring.delivered." + service)),
				latency: o.Reg.Histogram(o.MetricName("ring.delivery_ns."+service), FineDurationBuckets()),
			}
			o.delivered[service] = d
		}
		o.dmu.Unlock()
	}
	d.count.Inc()
	if latency > 0 {
		d.latency.ObserveDuration(latency)
	}
}
