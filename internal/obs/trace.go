package obs

import (
	"sync"
	"time"
)

// RoundTrace is the /debug/ring rendering of a token visit at one
// participant (see Rounds), and what the engine hands OnRound for the
// registry's aggregates: what the token carried when it arrived, what the
// participant put on it, and what the participant multicast around it.
// Field names follow the paper's terminology (§III-B): seq is the highest
// sequence number assigned on the ring, aru is the all-received-up-to
// line, fcc is the flow-control count of messages sent in the previous
// rotation.
type RoundTrace struct {
	// At is the token's arrival time on the observer's clock (the
	// recorder's wall-clock stamp when the driver has none, e.g. in the
	// discrete-event simulator).
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
	// Hold is the token hold time: token receipt to token send.
	Hold time.Duration `json:"hold_ns"`
}

// Rounds renders the token visits among events — one recorder's snapshot,
// oldest first — as RoundTraces keyed by ring label. A visit is a
// token_rx, the rtr_ans/rtr_req the engine recorded while it held the
// token, and the token_tx that forwarded it; a visit whose token_rx has
// left the buffer is skipped. This is the /debug/ring view: the engine
// writes each visit's numbers once, as flight events.
func Rounds(events []Event) map[string][]RoundTrace {
	out := make(map[string][]RoundTrace)
	open := make(map[string]*RoundTrace)
	for _, ev := range events {
		tr := open[ev.Ring]
		switch {
		case ev.Kind == FlightTokenRx:
			open[ev.Ring] = &RoundTrace{At: ev.At, Round: ev.Round, TokenSeq: ev.TokenSeq, RecvSeq: ev.Seq}
		case tr == nil:
		case ev.Kind == FlightRetransAns:
			tr.Retransmitted += ev.Count
		case ev.Kind == FlightRetransReq:
			tr.Requested += ev.Count
		case ev.Kind == FlightTokenTx && ev.Note == "":
			tr.SentSeq, tr.Aru, tr.Fcc = ev.Seq, ev.Aru, ev.Fcc
			tr.New = int(ev.Seq - tr.RecvSeq)
			tr.Pre, tr.Post = ev.Pre, tr.New-ev.Pre
			tr.Hold = ev.At.Sub(tr.At)
			out[ev.Ring] = append(out[ev.Ring], *tr)
			delete(open, ev.Ring)
		}
	}
	return out
}

// RingObserver bundles the hooks the protocol stack reports into: a
// metrics registry, the node's clock, and its recorders. Any field may be
// nil; a nil *RingObserver disables observation entirely. One observer
// serves every ring a participant installs over its lifetime — counters
// accumulate across membership changes, gauges reflect the current ring.
type RingObserver struct {
	// Reg receives counters, gauges, and histograms (nil: metrics off).
	Reg *Registry
	// Clock is the node's one time source: hold times, delivery latencies
	// and the At of every event recorded through this observer. Nil
	// reports durations as zero (simulated drivers leave it nil to keep
	// their metrics deterministic) and leaves events to the recorder's
	// wall-clock stamp; a driver on a virtual clock installs it here.
	Clock func() time.Time
	// Label, when non-empty, scopes every metric the protocol stack
	// reports through this observer: "shard1.ring.rounds" instead of
	// "ring.rounds". A sharded node gives each ring instance its own
	// label so per-ring series stay separable in one shared registry.
	// Must be set before the first report and never changed.
	Label string
	// Msg receives sampled per-message lifecycle stages (nil: message
	// tracing off).
	Msg *MsgTracer
	// Flight receives black-box protocol events — token visits, state
	// transitions, retransmission traffic, deliveries (nil: recording
	// off). Sharded nodes share one recorder across rings; events carry
	// the observer's Label in their Ring field.
	Flight *Recorder

	once sync.Once
	m    *ringMetrics

	dmu       sync.RWMutex
	delivered map[string]*deliveryMetrics
}

// ringMetrics caches the hot-path metric handles so a token visit does no
// registry (map) lookups.
type ringMetrics struct {
	rounds, sentPre, sentPost, retransmitted, requested *Counter
	parks, parkedNs                                     *Counter
	seq, aru, fcc                                       *Gauge
	hold                                                *Histogram
}

type deliveryMetrics struct {
	count   *Counter
	latency *Histogram
}

// Now returns the observer's clock time, or the zero time when it has no
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

// Stamp records lifecycle stage kind of message seq, at the observer's
// clock, if its message tracer samples that seq, and reports whether it
// did; round is the token round the stage is tied to (0: none). False on
// a nil observer or tracer, and for seq 0. It takes scalars and inlines
// to two nil checks, so with tracing off the hot path builds no Event.
func (o *RingObserver) Stamp(kind Kind, seq, round uint64) bool {
	return o != nil && o.Msg != nil && o.stamp(kind, seq, round, time.Time{}, "")
}

// StampAt is Stamp for a stage with more to say: a backdated time (zero:
// now) and a Note.
func (o *RingObserver) StampAt(kind Kind, seq, round uint64, at time.Time, note string) bool {
	return o != nil && o.Msg != nil && o.stamp(kind, seq, round, at, note)
}

func (o *RingObserver) stamp(kind Kind, seq, round uint64, at time.Time, note string) bool {
	if !o.Msg.Sampled(seq) {
		return false
	}
	if at.IsZero() {
		at = o.Now()
	}
	o.Msg.Record(Event{At: at, Kind: kind, Seq: seq, Round: round, Note: note})
	return true
}

// Record adds ev to the observer's flight recorder, labelled with its
// ring and stamped with its clock. No-op on a nil observer or recorder.
func (o *RingObserver) Record(ev Event) {
	if o != nil && o.Flight != nil {
		o.record(ev)
	}
}

func (o *RingObserver) record(ev Event) {
	ev.Ring = o.Label
	if ev.At.IsZero() {
		ev.At = o.Now()
	}
	o.Flight.Record(ev)
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
		o.delivered = make(map[string]*deliveryMetrics)
		o.m = &ringMetrics{
			rounds:        r.Counter(o.MetricName("ring.rounds")),
			sentPre:       r.Counter(o.MetricName("ring.sent_pre_token")),
			sentPost:      r.Counter(o.MetricName("ring.sent_post_token")),
			retransmitted: r.Counter(o.MetricName("ring.retransmitted")),
			requested:     r.Counter(o.MetricName("ring.rtr_requested")),
			parks:         r.Counter(o.MetricName("ring.token_parks")),
			parkedNs:      r.Counter(o.MetricName("ring.token_parked_ns")),
			seq:           r.Gauge(o.MetricName("ring.seq")),
			aru:           r.Gauge(o.MetricName("ring.aru")),
			fcc:           r.Gauge(o.MetricName("ring.fcc")),
			hold:          r.Histogram(o.MetricName("ring.token_hold_ns"), FineDurationBuckets()),
		}
	})
	return o.m
}

// OnRound folds one token visit into the registry's aggregates. No-op on
// a nil observer.
func (o *RingObserver) OnRound(tr RoundTrace) {
	if o == nil || o.Reg == nil {
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

// OnPark counts one released park of the ring's token at its leader,
// held for d. No-op on a nil observer.
func (o *RingObserver) OnPark(d time.Duration) {
	if o == nil || o.Reg == nil {
		return
	}
	m := o.metrics()
	m.parks.Inc()
	m.parkedNs.Add(uint64(d))
}

// OnDeliver records one application delivery of the given service level
// ("agreed", "safe", ...). latency is the local submit-to-delivery time
// for messages this participant initiated; pass 0 for messages received
// from others (counted, not timed). No-op on a nil observer.
func (o *RingObserver) OnDeliver(service string, latency time.Duration) {
	if o == nil || o.Reg == nil {
		return
	}
	o.metrics() // makes the delivered map
	d := getOrCreate(&o.dmu, o.delivered, service, func() *deliveryMetrics {
		return &deliveryMetrics{
			count:   o.Reg.Counter(o.MetricName("ring.delivered." + service)),
			latency: o.Reg.Histogram(o.MetricName("ring.delivery_ns."+service), FineDurationBuckets()),
		}
	})
	d.count.Inc()
	if latency > 0 {
		d.latency.ObserveDuration(latency)
	}
}
