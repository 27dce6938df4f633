package obs

import (
	"sync"
	"time"
)

// HealthConfig configures a Health detector.
type HealthConfig struct {
	// Scopes lists the per-ring metric scopes to watch: "" for an
	// unlabeled single-ring node, "shard0".."shardN-1" for a sharded
	// one. Empty defaults to the single unlabeled scope.
	Scopes []string
	// RetransBudget is the per-round retransmission cap
	// (flowcontrol.Windows.RetransBudget, i.e. the global window). A
	// round answering >= stormFraction*RetransBudget retransmissions is
	// flagged as a storm. 0 disables storm detection.
	RetransBudget int
	// OnChange, when set, is called from the detector loop whenever a
	// scope's flag set differs from the previous pass (e.g. to log).
	OnChange func(HealthStatus)
	// Latency, when non-nil, is folded once per pass so the latency.*
	// histograms (and any SLO tracking them) stay current without a
	// second timer.
	Latency *LatencyAgg
	// SLO, when non-nil, runs one evaluation pass per check; a scope
	// whose burn rate breaches raises its SLOBurn flag. SLO scopes must
	// use the same names as Scopes.
	SLO *SLO
	// Flight, when non-nil, records a FlightSLO event on every rising
	// edge of SLOBurn or MergeStall, so a dump around a tail-latency
	// incident pins down when the burn started.
	Flight *Recorder

	interval time.Duration // detector-loop period of Start; tests shorten the 1s default
}

// stormFraction is the fraction of RetransBudget that counts as a storm.
const stormFraction = 0.5

// The (unscoped) daemon counters whose growth raises a scope's
// SlowConsumer flag — sessions disconnected for backpressure — and its
// Backpressure flag: sessions spilling or throttled, not yet disconnected.
var (
	slowConsumerCounters = []string{"daemon.slow_disconnects"}
	backpressureCounters = []string{"daemon.tier_spill", "daemon.tier_throttle"}
)

// HealthStatus is one scope's verdict from one detector pass. The boolean
// flags are also exported as <scope>.health.* gauges (0/1), which the
// Prometheus endpoint renders as accelring_health_*{ring="r"}.
type HealthStatus struct {
	// Ring is the metric scope ("" or "shardN").
	Ring string `json:"ring"`
	// CheckedAt is when the pass ran.
	CheckedAt time.Time `json:"checked_at"`

	// TokenStall: the ring has rotated the token before but did not
	// between the last two passes — a wedged or re-forming ring.
	TokenStall bool `json:"token_stall"`
	// AruStagnation: the token rotates but the all-received-up-to line
	// is stuck below the highest assigned seq — some participant is not
	// receiving (or not acknowledging) traffic.
	AruStagnation bool `json:"aru_stagnation"`
	// RetransStorm: retransmissions answered per round are near the
	// per-round retransmission budget — sustained loss or a lagging
	// receiver is consuming the ring's repair bandwidth.
	RetransStorm bool `json:"retrans_storm"`
	// SlowConsumer: the daemon disconnected at least one client for
	// backpressure since the last pass.
	SlowConsumer bool `json:"slow_consumer"`
	// Backpressure: at least one client session entered the spill or
	// throttle tier since the last pass — clients are falling behind,
	// though none has been disconnected for it yet.
	Backpressure bool `json:"backpressure"`
	// MergeStall: this ring's cross-ring merge frontier stopped
	// advancing while a peer ring's kept moving — the merge is emitting
	// on this ring's skips alone (or is about to block on it). Only
	// meaningful on sharded nodes exporting merge.frontier per scope.
	MergeStall bool `json:"merge_stall"`
	// SLOBurn: the scope's latency SLO burn rate is at or past the
	// configured factor (see HealthConfig.SLO).
	SLOBurn bool `json:"slo_burn"`

	// Rounds, Seq, Aru and RetransPerRound are the inputs behind the
	// flags, for the health endpoint and log lines.
	Rounds          uint64  `json:"rounds"`
	Seq             int64   `json:"seq"`
	Aru             int64   `json:"aru"`
	RetransPerRound float64 `json:"retrans_per_round"`
	// SLOP99Burn is the windowed p99 burn rate behind SLOBurn (0 with no
	// SLO configured).
	SLOP99Burn float64 `json:"slo_p99_burn,omitempty"`
}

// Healthy reports whether no flag is raised.
func (st HealthStatus) Healthy() bool { return st.flags() == [7]bool{} }

// flags packs the status booleans for change detection.
func (st HealthStatus) flags() [7]bool {
	return [7]bool{st.TokenStall, st.AruStagnation, st.RetransStorm,
		st.SlowConsumer, st.Backpressure, st.MergeStall, st.SLOBurn}
}

type healthSample struct {
	valid        bool
	rounds, retr uint64
	aru          int64
	slow         uint64
	back         uint64
	front        int64
	mergeStall   bool
	sloBurn      bool
}

// Health is the ring health detector: a periodic pass over the registry's
// ring/membership/daemon metrics that turns counter deltas into the four
// pathology flags above. Check may also be called directly (tests, HTTP
// handlers); all methods are safe for concurrent use and nil-safe.
type Health struct {
	reg *Registry
	cfg HealthConfig

	mu   sync.Mutex
	prev map[string]healthSample
	last []HealthStatus

	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewHealth returns a detector over reg. Start begins the periodic loop;
// Check runs a single pass synchronously. Returns a usable (idle)
// detector even for a nil registry.
func NewHealth(reg *Registry, cfg HealthConfig) *Health {
	if len(cfg.Scopes) == 0 {
		cfg.Scopes = []string{""}
	}
	if cfg.interval <= 0 {
		cfg.interval = time.Second
	}
	return &Health{
		reg:  reg,
		cfg:  cfg,
		prev: make(map[string]healthSample),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

func scoped(scope, base string) string {
	if scope == "" {
		return base
	}
	return scope + "." + base
}

// Check runs one detector pass over every scope, updates the health.*
// gauges, and returns the per-scope statuses. The first pass only
// establishes baselines (no flags can be raised without a delta). Nil on
// a nil detector.
func (h *Health) Check() []HealthStatus {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.checkLocked()
}

func (h *Health) checkLocked() []HealthStatus {
	now := time.Now()
	h.cfg.Latency.Fold()
	var slo map[string]SLOStatus
	if h.cfg.SLO != nil {
		slo = make(map[string]SLOStatus)
		for _, st := range h.cfg.SLO.Pass() {
			slo[st.Scope] = st
		}
	}
	var slow, back uint64
	for _, name := range slowConsumerCounters {
		slow += h.reg.Counter(name).Value()
	}
	for _, name := range backpressureCounters {
		back += h.reg.Counter(name).Value()
	}
	// Merge-stall needs a cross-scope view: one ring's frontier standing
	// still is only suspicious while another's moved this pass.
	fronts := make([]int64, len(h.cfg.Scopes))
	anyFrontAdvanced := false
	for i, scope := range h.cfg.Scopes {
		fronts[i] = h.reg.Gauge(scoped(scope, "merge.frontier")).Value()
		if prev := h.prev[scope]; prev.valid && fronts[i] > prev.front {
			anyFrontAdvanced = true
		}
	}
	out := make([]HealthStatus, 0, len(h.cfg.Scopes))
	for i, scope := range h.cfg.Scopes {
		cur := healthSample{
			valid:  true,
			rounds: h.reg.Counter(scoped(scope, "ring.rounds")).Value(),
			retr:   h.reg.Counter(scoped(scope, "ring.retransmitted")).Value(),
			aru:    h.reg.Gauge(scoped(scope, "ring.aru")).Value(),
			slow:   slow,
			back:   back,
			front:  fronts[i],
		}
		seq := h.reg.Gauge(scoped(scope, "ring.seq")).Value()
		st := HealthStatus{
			Ring:      scope,
			CheckedAt: now,
			Rounds:    cur.rounds,
			Seq:       seq,
			Aru:       cur.aru,
		}
		prev := h.prev[scope]
		if prev.valid {
			roundsDelta := cur.rounds - prev.rounds
			st.TokenStall = cur.rounds > 0 && roundsDelta == 0
			st.AruStagnation = roundsDelta > 0 && cur.aru == prev.aru && seq > cur.aru
			if roundsDelta > 0 {
				st.RetransPerRound = float64(cur.retr-prev.retr) / float64(roundsDelta)
				if h.cfg.RetransBudget > 0 &&
					st.RetransPerRound >= stormFraction*float64(h.cfg.RetransBudget) {
					st.RetransStorm = true
				}
			}
			st.SlowConsumer = cur.slow > prev.slow
			st.Backpressure = cur.back > prev.back
			// A scope that has merged before (front > 0) but did not move
			// while a peer did is stalling the global order.
			st.MergeStall = prev.front > 0 && cur.front == prev.front && anyFrontAdvanced
		}
		if s, ok := slo[scope]; ok {
			st.SLOBurn = s.Breach
			st.SLOP99Burn = s.P99Burn
		}
		if st.SLOBurn && !prev.sloBurn {
			h.cfg.Flight.Record(Event{At: now, Kind: FlightSLO, Ring: scope, Note: "slo_burn"})
		}
		if st.MergeStall && !prev.mergeStall {
			h.cfg.Flight.Record(Event{At: now, Kind: FlightSLO, Ring: scope, Note: "merge_stall"})
		}
		cur.mergeStall = st.MergeStall
		cur.sloBurn = st.SLOBurn
		h.prev[scope] = cur
		h.exportLocked(scope, st)
		out = append(out, st)
	}
	h.last = out
	return out
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (h *Health) exportLocked(scope string, st HealthStatus) {
	if h.reg == nil {
		return
	}
	h.reg.Gauge(scoped(scope, "health.token_stall")).Set(b2i(st.TokenStall))
	h.reg.Gauge(scoped(scope, "health.aru_stagnation")).Set(b2i(st.AruStagnation))
	h.reg.Gauge(scoped(scope, "health.retrans_storm")).Set(b2i(st.RetransStorm))
	h.reg.Gauge(scoped(scope, "health.slow_consumer")).Set(b2i(st.SlowConsumer))
	h.reg.Gauge(scoped(scope, "health.backpressure")).Set(b2i(st.Backpressure))
	h.reg.Gauge(scoped(scope, "health.merge_stall")).Set(b2i(st.MergeStall))
	h.reg.Gauge(scoped(scope, "health.slo_burn")).Set(b2i(st.SLOBurn))
	h.reg.Gauge(scoped(scope, "health.healthy")).Set(b2i(st.Healthy()))
	h.reg.Gauge(scoped(scope, "health.retrans_per_round")).Set(int64(st.RetransPerRound))
}

// Status returns the most recent pass's statuses, running a first pass if
// none has happened yet. Nil on a nil detector.
func (h *Health) Status() []HealthStatus {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.last == nil {
		return h.checkLocked()
	}
	out := make([]HealthStatus, len(h.last))
	copy(out, h.last)
	return out
}

// Start launches the periodic detector loop (one goroutine). Close stops
// it. No-op on a nil or already-started detector.
func (h *Health) Start() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.started {
		h.mu.Unlock()
		return
	}
	h.started = true
	h.mu.Unlock()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(h.cfg.interval)
		defer tick.Stop()
		prevFlags := make(map[string][7]bool)
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			for _, st := range h.Check() {
				if h.cfg.OnChange == nil {
					continue
				}
				flags := st.flags()
				if prevFlags[st.Ring] != flags {
					prevFlags[st.Ring] = flags
					h.cfg.OnChange(st)
				}
			}
		}
	}()
}

// Close stops the detector loop started by Start and waits for it to
// exit. Safe to call without Start and on a nil detector; idempotent.
func (h *Health) Close() {
	if h == nil {
		return
	}
	h.stopOnce.Do(func() { close(h.stop) })
	h.mu.Lock()
	started := h.started
	h.mu.Unlock()
	if started {
		<-h.done
	}
}
