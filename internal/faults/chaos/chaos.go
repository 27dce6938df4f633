// Package chaos is the invariant-checking chaos harness: it runs
// randomized, seed-replayable fault plans against a full multi-daemon
// cluster — one membership.Machine (membership + recovery + ordering
// engine) per participant, connected by a deterministic virtual-time
// network routed through the unified faults.Injector — and checks the
// Extended Virtual Synchrony delivery invariants after every run:
//
//  1. total-order — agreed delivery produces one total order: a slot
//     (configuration, sequence number) holds the same message at every
//     member that fills it, no member delivers the same message twice
//     within one incarnation, and any two members deliver the messages
//     they have in common in the same relative order;
//  2. safe-stability — a Safe message delivered in a regular
//     configuration (before the configuration's transitional marker) was
//     received by every member of it: every non-crashed member that
//     installed the configuration also delivers the message;
//  3. virtual-synchrony — members agree on each configuration's member
//     set, and members that come through the same transitional
//     configuration deliver exactly the same messages in the
//     configuration they left;
//  4. seq-regression — per member and configuration, delivered sequence
//     numbers are strictly increasing.
//
// A run is a pure function of its seed: the fault plan, the node count,
// the kill/restart/partition schedule, and every per-packet fault
// decision derive from it, so any violation replays exactly from the
// printed seed (see faults.ReplaySeed and the FAULTS_SEED override).
package chaos

import (
	"container/heap"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"accelring/internal/core"
	"accelring/internal/evs"
	"accelring/internal/faults"
	"accelring/internal/flowcontrol"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/stats"
)

const (
	// hopLatency is the virtual one-way frame latency; it keeps virtual
	// time advancing so an operational ring cannot spin at one instant.
	hopLatency = 200 * time.Microsecond
	// tickStep is the virtual membership-timer resolution.
	tickStep = 5 * time.Millisecond
	// tickPhase staggers each machine's timer phase and tickSkew its
	// timer period. With identical phases and periods the whole
	// cluster's membership timers fire at the same instants forever — a
	// lockstep symmetry no real deployment has (independent clocks
	// always skew and drift), under which competing gather rounds can
	// collide, expire, and retry in unison indefinitely. Distinct
	// periods make the relative phases precess, so no periodic orbit is
	// stable.
	tickPhase = 700 * time.Microsecond
	tickSkew  = 17 * time.Microsecond
	// restartPhase further shifts a restarted incarnation's timers.
	restartPhase = 311 * time.Microsecond
)

// Options parameterizes a chaos run. Zero fields derive from the seed.
type Options struct {
	// Seed determines everything about the run.
	Seed int64
	// Nodes is the cluster size (default: 4–6, seed-chosen).
	Nodes int
	// Steps is the number of fault-schedule steps (default: 10–17,
	// seed-chosen).
	Steps int
	// FlightDir, when non-empty (or via the CHAOS_FLIGHT_DIR environment
	// variable), receives one flight-recorder JSONL dump per process
	// incarnation — plus one for the network fault injector — whenever
	// the run ends with violations. Timestamps are the harness's virtual
	// clock, so dumps line up with the deterministic schedule. The dump
	// is a side effect only; the Result is identical with or without it.
	FlightDir string
	// ForceViolation plants an artificial "forced" violation at the end
	// of the run. It exists to exercise the violation → flight-dump path
	// end to end (the dumped events are the run's real recordings).
	ForceViolation bool
}

// Violation is one invariant breach.
type Violation struct {
	// Invariant names the broken check: formation, convergence,
	// total-order, safe-stability, virtual-synchrony, seq-regression.
	Invariant string
	// Detail describes the breach.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Result summarizes one chaos run. Two runs with equal Options are
// identical, including the Result.
type Result struct {
	Seed         int64
	Nodes, Steps int
	// Submitted counts accepted client submissions; Delivered counts
	// application message deliveries summed over members; Configs counts
	// regular configuration installs summed over members.
	Submitted, Delivered, Configs int
	// Faults holds the fault plan's per-rule counters.
	Faults []stats.FaultCounter
	// Violations holds every invariant breach (empty on a clean run).
	Violations []Violation
}

// memberLog is the delivery log of one process incarnation. A restarted
// participant is a fresh process and gets a fresh log; EVS guarantees are
// per incarnation.
type memberLog struct {
	id  evs.ProcID
	gen int
	// crashed marks incarnations the harness killed; invariants that
	// require eventual delivery exempt them.
	crashed bool
	events  []evs.Event
	// flight is the incarnation's black-box recorder (virtual-clock
	// timestamps), dumped as JSONL when the run ends with violations.
	flight *obs.Recorder
}

func (l *memberLog) name() string { return fmt.Sprintf("%d.%d", l.id, l.gen) }

// procOut adapts a machine's effects onto the harness network.
type procOut struct {
	h   *harness
	log *memberLog
}

func (o *procOut) Multicast(frame []byte) {
	cp := append([]byte(nil), frame...)
	for _, id := range o.h.ids {
		if id != o.log.id {
			o.h.send(o.log.id, id, false, cp)
		}
	}
}

func (o *procOut) Unicast(to evs.ProcID, frame []byte) {
	o.h.send(o.log.id, to, true, append([]byte(nil), frame...))
}

func (o *procOut) Deliver(ev evs.Event) {
	o.log.events = append(o.log.events, ev)
}

// envelope is one in-flight frame copy.
type envelope struct {
	at    time.Time
	seq   uint64
	to    evs.ProcID
	token bool
	frame []byte
}

type envHeap []*envelope

func (h envHeap) Len() int { return len(h) }
func (h envHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h envHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *envHeap) Push(x any)   { *h = append(*h, x.(*envelope)) }
func (h *envHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// harness is the deterministic virtual-time cluster: machines, a timed
// frame queue, and the fault injector. Everything runs on one goroutine;
// map iteration never decides anything (h.ids orders all fan-out).
type harness struct {
	rng        *rand.Rand
	start, now time.Time
	tickAt     map[evs.ProcID]time.Time

	ids      []evs.ProcID
	machines map[evs.ProcID]*membership.Machine
	gens     map[evs.ProcID]int
	cur      map[evs.ProcID]*memberLog
	logs     []*memberLog

	inj        *faults.Injector
	part       *faults.Partition
	faultStart time.Time
	faultsOn   bool

	// netFlight records the fault injector's actions; flightDir and
	// forceViolation carry the Options' flight-dump settings.
	netFlight      *obs.Recorder
	flightDir      string
	forceViolation bool

	queue     envHeap
	seq       uint64
	submitted int
}

func chaosTimeouts() membership.Timeouts {
	return membership.Timeouts{
		JoinInterval:    10 * time.Millisecond,
		Gather:          50 * time.Millisecond,
		Commit:          100 * time.Millisecond,
		TokenLoss:       200 * time.Millisecond,
		TokenRetransmit: 60 * time.Millisecond,
	}
}

func newHarness(rng *rand.Rand, n int) *harness {
	h := &harness{
		rng:      rng,
		start:    time.Unix(1000, 0),
		now:      time.Unix(1000, 0),
		machines: make(map[evs.ProcID]*membership.Machine),
		gens:     make(map[evs.ProcID]int),
		cur:      make(map[evs.ProcID]*memberLog),
		tickAt:   make(map[evs.ProcID]time.Time),
		part:     faults.NewPartition(),
	}
	h.netFlight = obs.NewRecorder(0)
	for i := 0; i < n; i++ {
		id := evs.ProcID(i + 1)
		h.ids = append(h.ids, id)
		h.addMachine(id)
	}
	return h
}

func (h *harness) addMachine(id evs.ProcID) {
	log := &memberLog{id: id, gen: h.gens[id]}
	log.flight = obs.NewRecorder(0)
	h.cur[id] = log
	h.logs = append(h.logs, log)
	m, err := membership.New(membership.Config{
		Self:            id,
		Windows:         flowcontrol.Windows{Personal: 5, Global: 100, Accelerated: 3},
		Priority:        core.PriorityAggressive,
		DelayedRequests: true,
		Timeouts:        chaosTimeouts(),
		// Flight recording only, on the harness's virtual clock: no
		// registry and no tracer, so the machines behave identically to
		// unobserved ones and the Result stays a pure function of the
		// seed.
		Observer: &obs.RingObserver{Flight: log.flight, Clock: func() time.Time { return h.now }},
	}, &procOut{h: h, log: log}, h.now)
	if err != nil {
		panic("chaos: " + err.Error())
	}
	h.machines[id] = m
	h.tickAt[id] = h.now.Add(tickStep +
		time.Duration(id)*tickPhase + time.Duration(h.gens[id])*restartPhase)
}

// kill stops a participant's process: its machine vanishes, its current
// incarnation is marked crashed, and in-flight frames to it are dropped at
// dispatch.
func (h *harness) kill(id evs.ProcID) {
	if log := h.cur[id]; log != nil {
		log.crashed = true
	}
	delete(h.machines, id)
	delete(h.cur, id)
	delete(h.tickAt, id)
}

// restart boots a fresh process for a killed participant.
func (h *harness) restart(id evs.ProcID) {
	h.gens[id]++
	h.addMachine(id)
}

func (h *harness) liveIDs() []evs.ProcID {
	var out []evs.ProcID
	for _, id := range h.ids {
		if h.machines[id] != nil {
			out = append(out, id)
		}
	}
	return out
}

// send routes one frame copy (or more, under duplication) through the
// injector onto the timed queue.
func (h *harness) send(from, to evs.ProcID, token bool, frame []byte) {
	if h.machines[from] == nil {
		return
	}
	if h.faultsOn {
		d := h.inj.Decide(h.now.Sub(h.faultStart), faults.Packet{
			From: from, To: to, Token: token, Size: len(frame), Frame: frame,
		})
		if d.Drop {
			return
		}
		h.enqueue(to, token, frame, hopLatency+d.Delay)
		for _, extra := range d.Extra {
			h.enqueue(to, token, frame, hopLatency+extra)
		}
		return
	}
	h.enqueue(to, token, frame, hopLatency)
}

func (h *harness) enqueue(to evs.ProcID, token bool, frame []byte, delay time.Duration) {
	h.seq++
	heap.Push(&h.queue, &envelope{
		at: h.now.Add(delay), seq: h.seq, to: to, token: token, frame: frame,
	})
}

func (h *harness) dispatch(env *envelope) {
	m := h.machines[env.to]
	if m == nil {
		return
	}
	if env.token {
		m.HandleTokenFrame(env.frame, h.now)
	} else {
		m.HandleDataFrame(env.frame, h.now)
	}
}

// advance runs the discrete-event loop for d of virtual time: frames
// dispatch at their arrival instants, each machine ticks every tickStep
// on its own phase.
func (h *harness) advance(d time.Duration) {
	end := h.now.Add(d)
	for {
		var tickID evs.ProcID
		var tickT time.Time
		for _, id := range h.ids {
			if h.machines[id] == nil {
				continue
			}
			if at := h.tickAt[id]; tickT.IsZero() || at.Before(tickT) {
				tickID, tickT = id, at
			}
		}
		tickNext := !tickT.IsZero() && (len(h.queue) == 0 || tickT.Before(h.queue[0].at))
		if tickNext {
			if tickT.After(end) {
				break
			}
			h.now = tickT
			h.machines[tickID].Tick(h.now)
			h.tickAt[tickID] = tickT.Add(tickStep + time.Duration(tickID)*tickSkew)
			continue
		}
		if len(h.queue) == 0 {
			break // nothing alive to tick, nothing in flight
		}
		env := heap.Pop(&h.queue).(*envelope)
		if env.at.After(end) {
			heap.Push(&h.queue, env)
			break
		}
		if env.at.After(h.now) {
			h.now = env.at
		}
		h.dispatch(env)
	}
	if end.After(h.now) {
		h.now = end
	}
}

// converged reports whether every live machine is operational on one
// shared ring containing exactly the live members.
func (h *harness) converged() bool {
	live := h.liveIDs()
	if len(live) == 0 {
		return true
	}
	ref := h.machines[live[0]].Ring()
	if h.machines[live[0]].State() != membership.StateOperational ||
		len(ref.Members) != len(live) {
		return false
	}
	have := make(map[evs.ProcID]bool, len(ref.Members))
	for _, id := range ref.Members {
		have[id] = true
	}
	for _, id := range live {
		if !have[id] {
			return false
		}
		if h.machines[id].State() != membership.StateOperational ||
			!h.machines[id].Ring().Equal(ref) {
			return false
		}
	}
	return true
}

func (h *harness) waitConverged(within time.Duration) bool {
	deadline := h.now.Add(within)
	for h.now.Before(deadline) {
		if h.converged() {
			return true
		}
		h.advance(25 * time.Millisecond)
	}
	return h.converged()
}

func (h *harness) submit(id evs.ProcID, svc evs.Service) {
	m := h.machines[id]
	if m == nil {
		return
	}
	payload := fmt.Sprintf("m-%d-%d", id, h.submitted+1)
	// Submission fails while the machine is reforming; real clients retry.
	if m.Submit([]byte(payload), svc) == nil {
		h.submitted++
	}
}

// randomPlan builds the seeded fault plan for a fault phase of the given
// duration: a random subset of loss / bursty loss / duplication /
// delay-reorder rules, each with a random activity window, plus the
// runtime-controlled partition (split and healed by the step schedule).
func randomPlan(rng *rand.Rand, n int, dur time.Duration, part *faults.Partition) faults.Plan {
	var plan faults.Plan
	window := func(r *faults.Rule) {
		a := time.Duration(rng.Int63n(int64(dur / 2)))
		b := a + dur/5 + time.Duration(rng.Int63n(int64(dur)))
		if b > dur {
			b = 0 // until the heal
		}
		r.After, r.Until = a, b
	}
	maybeTarget := func(r *faults.Rule) {
		if rng.Float64() < 0.3 {
			r.To = evs.ProcID(rng.Intn(n) + 1)
		}
	}
	if rng.Float64() < 0.7 {
		r := faults.Rule{Name: "loss", Model: faults.Loss{P: 0.05 + 0.25*rng.Float64()}}
		if rng.Float64() < 0.5 {
			r.Classes = faults.ClassData
		}
		window(&r)
		maybeTarget(&r)
		plan.Add(r)
	}
	if rng.Float64() < 0.5 {
		r := faults.Rule{Name: "burst", Model: &faults.GilbertElliott{
			PGoodBad: 0.005 + 0.02*rng.Float64(),
			PBadGood: 0.1 + 0.2*rng.Float64(),
			LossBad:  0.5 + 0.4*rng.Float64(),
		}}
		window(&r)
		plan.Add(r)
	}
	if rng.Float64() < 0.6 {
		r := faults.Rule{Name: "dup", Model: faults.Duplicate{
			P:      0.05 + 0.25*rng.Float64(),
			Copies: 1 + rng.Intn(2),
			Spread: time.Duration(rng.Intn(3)) * time.Millisecond,
		}}
		window(&r)
		plan.Add(r)
	}
	if rng.Float64() < 0.6 {
		r := faults.Rule{Name: "delay", Model: faults.Delay{
			Max: time.Duration(1+rng.Intn(5)) * time.Millisecond,
		}}
		window(&r)
		maybeTarget(&r)
		plan.Add(r)
	}
	plan.Add(faults.Rule{Name: "partition", Model: part})
	return plan
}

// Run executes one chaos run. It is deterministic: equal Options produce
// equal Results.
func Run(opts Options) *Result {
	res, _ := runForDebug(opts)
	return res
}

// runForDebug is Run, additionally exposing the harness so tests can
// inspect the raw delivery logs.
func runForDebug(opts Options) (*Result, *harness) {
	rng := rand.New(rand.NewSource(opts.Seed))
	n := opts.Nodes
	if n == 0 {
		n = 4 + rng.Intn(3)
	}
	steps := opts.Steps
	if steps == 0 {
		steps = 10 + rng.Intn(8)
	}
	res := &Result{Seed: opts.Seed, Nodes: n, Steps: steps}
	h := newHarness(rng, n)
	h.flightDir = opts.FlightDir
	if h.flightDir == "" {
		h.flightDir = os.Getenv("CHAOS_FLIGHT_DIR")
	}
	h.forceViolation = opts.ForceViolation

	// Phase 1: fault-free ring formation.
	if !h.waitConverged(10 * time.Second) {
		res.Violations = append(res.Violations,
			Violation{"formation", "initial ring did not form"})
		return finish(res, h), h
	}

	// Phase 2: the fault schedule. Step durations are drawn up front so
	// the plan's rule windows can span the whole phase.
	durs := make([]time.Duration, steps)
	var total time.Duration
	for i := range durs {
		durs[i] = time.Duration(50+rng.Intn(300)) * time.Millisecond
		total += durs[i]
	}
	h.inj = faults.New(opts.Seed, randomPlan(rng, n, total, h.part))
	h.faultStart = h.now
	h.inj.SetFlight(h.netFlight, h.faultStart)
	h.faultsOn = true

	for s := 0; s < steps; s++ {
		switch rng.Intn(8) {
		case 0: // kill one process (keep a workable majority of the ids)
			if live := h.liveIDs(); len(live) > 3 {
				h.kill(live[rng.Intn(len(live))])
			}
		case 1: // restart a killed process as a fresh incarnation
			var dead []evs.ProcID
			for _, id := range h.ids {
				if h.machines[id] == nil {
					dead = append(dead, id)
				}
			}
			if len(dead) > 0 {
				h.restart(dead[rng.Intn(len(dead))])
			}
		case 2: // split into two sides
			sides := make(map[evs.ProcID]int, len(h.ids))
			for _, id := range h.ids {
				sides[id] = rng.Intn(2)
			}
			h.part.Split(sides)
		case 3: // heal the partition
			h.part.Heal()
		default: // traffic burst, mixed Agreed/Safe
			for i := 0; i < 1+rng.Intn(4); i++ {
				svc := evs.Agreed
				if rng.Intn(2) == 0 {
					svc = evs.Safe
				}
				h.submit(h.ids[rng.Intn(n)], svc)
			}
		}
		h.advance(durs[s])
	}

	// Phase 3: stop all faults, let the survivors converge, then flush so
	// every pending recovery and safe delivery completes.
	h.faultsOn = false
	h.part.Heal()
	if !h.waitConverged(20 * time.Second) {
		detail := "live machines did not converge after heal:"
		for _, id := range h.liveIDs() {
			m := h.machines[id]
			detail += fmt.Sprintf(" %d=%v/%v", id, m.State(), m.Ring().ID)
		}
		res.Violations = append(res.Violations, Violation{"convergence", detail})
		return finish(res, h), h
	}
	h.advance(2 * time.Second)

	res.Violations = append(res.Violations, checkInvariants(h.logs)...)
	return finish(res, h), h
}

func finish(res *Result, h *harness) *Result {
	res.Submitted = h.submitted
	for _, log := range h.logs {
		for _, ev := range log.events {
			switch e := ev.(type) {
			case evs.Message:
				res.Delivered++
				_ = e
			case evs.ConfigChange:
				if !e.Transitional {
					res.Configs++
				}
			}
		}
	}
	if h.inj != nil {
		res.Faults = h.inj.Counters()
	}
	if h.forceViolation {
		res.Violations = append(res.Violations,
			Violation{"forced", "planted by Options.ForceViolation"})
	}
	sort.SliceStable(res.Violations, func(i, j int) bool {
		return res.Violations[i].Invariant < res.Violations[j].Invariant
	})
	if len(res.Violations) > 0 {
		dumpFlights(res.Seed, h)
	}
	return res
}

// dumpFlights writes every incarnation's flight recorder — and the
// network injector's — as JSONL into the configured dump directory, one
// file per recorder, named like the CHAOS_DUMP log dumps. Best effort: a
// write failure is reported on stderr, never fails the run, and the
// Result is untouched either way.
func dumpFlights(seed int64, h *harness) {
	if h.flightDir == "" {
		return
	}
	write := func(name string, f *obs.Recorder) {
		if f.Total() == 0 {
			return
		}
		path := filepath.Join(h.flightDir, fmt.Sprintf("chaos-flight-seed%d-%s.jsonl", seed, name))
		if err := f.DumpFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "chaos: flight dump:", err)
			return
		}
		fmt.Fprintln(os.Stderr, "chaos: flight recorder dumped to", path)
	}
	for _, log := range h.logs {
		write("node"+log.name(), log.flight)
	}
	write("net", h.netFlight)
}
