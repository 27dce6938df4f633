// Package chaos is the invariant-checking chaos harness: it runs
// randomized, seed-replayable fault plans against a full multi-daemon
// cluster — one membership.Machine (membership + recovery + ordering
// engine) per participant — on the repository's one virtual-time
// simulator: simnet.Sim schedules every frame arrival, machine timer and
// schedule step, and simnet.Network carries every frame through NIC
// serialization, the switch's per-port drop-tail buffers and the unified
// faults.Injector. It checks the Extended Virtual Synchrony delivery
// invariants after every run:
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
// The fault classes are process kill and restart, partition and heal,
// i.i.d. and bursty loss, duplication, delay/reorder, and — on the seeds
// whose fabric has a switch port buffer of only a few frames — drop-tail
// overrun at the receiver's port when senders overlap (Result.SwitchDrops).
//
// RunXRing puts several rings on the same simulator: all rings of a run
// share one clock, and each ring delivery reaches the node's production
// ordered-group core (groupcore.Core) at its virtual instant, interleaved
// with the other rings' deliveries exactly as the event order has them.
//
// A run is a pure function of its seed: the fabric, the fault plan, the
// node count, the kill/restart/partition schedule, and every per-packet
// fault decision derive from it, so any violation replays exactly from
// the printed seed (see faults.ReplaySeed and the FAULTS_SEED override).
package chaos

import (
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
	"accelring/internal/simnet"
	"accelring/internal/stats"
	"accelring/internal/wire"
)

const (
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

// epoch is the wall time of simulator time zero: the machines' clock is
// epoch + Sim.Now().
var epoch = time.Unix(1000, 0)

// chaosFabric draws a run's fabric from its seed. The links are slow and
// long, so a token hop costs about 200 µs of virtual time (two 45 µs
// serializations of its ~56 bytes at 10 Mb/s, two propagation delays and
// the switch) and an idle ring's token spins at a rate the run can afford.
// Two runs in three get a port buffer nothing here can fill; the third
// gets one of only a few frames (the largest, a six-member commit token,
// is 295 bytes and must still fit), so senders that overlap at a
// receiver's switch port — the accelerated ring's post-token multicasts
// against its successor's, a join storm — overrun it and frames are lost.
func chaosFabric(rng *rand.Rand, n int) simnet.Config {
	cfg := simnet.Config{
		Nodes:          n,
		LinkBitsPerSec: 1e7,
		PropDelay:      50 * simnet.Microsecond,
		SwitchLatency:  10 * simnet.Microsecond,
		PortBufBytes:   1 << 20,
	}
	if rng.Intn(3) == 0 {
		cfg.PortBufBytes = 300 + rng.Intn(300)
	}
	return cfg
}

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
	// Faults holds the fault plan's per-rule counters; SwitchDrops counts
	// the frames lost to drop-tail overrun at a full switch port.
	Faults      []stats.FaultCounter
	SwitchDrops uint64
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

// procOut adapts a machine's effects onto the simulated network.
type procOut struct {
	h   *harness
	log *memberLog
}

// packet wraps a copy of frame (the machine reuses its buffer) for the
// wire. kind is the frame's class, not its exact type: everything unicast
// rides the token channel, everything multicast the data channel, which is
// what the injector's class rules and the receiving socket go by.
func (o *procOut) packet(kind wire.FrameType, frame []byte) *simnet.Packet {
	return &simnet.Packet{
		From: simnet.NodeID(o.log.id - 1), Kind: kind,
		Wire: len(frame), Frame: append([]byte(nil), frame...),
	}
}

func (o *procOut) Multicast(frame []byte) {
	p := o.packet(wire.FrameData, frame)
	o.h.net.Multicast(p.From, p)
}

func (o *procOut) Unicast(to evs.ProcID, frame []byte) {
	p := o.packet(wire.FrameToken, frame)
	o.h.net.Unicast(p.From, simnet.NodeID(to-1), p)
}

func (o *procOut) Deliver(ev evs.Event) {
	o.log.events = append(o.log.events, ev)
	if o.h.onDeliver != nil {
		o.h.onDeliver(o.log.id, ev)
	}
}

// harness is one ring's deterministic virtual-time cluster: machines on a
// simulated fabric with the fault injector at its ingress; participant id
// runs on fabric host id-1. Everything runs on the simulator's one
// goroutine; map iteration never decides anything (h.ids orders fan-out).
type harness struct {
	rng *rand.Rand
	sim *simnet.Sim
	net *simnet.Network

	ids      []evs.ProcID
	machines map[evs.ProcID]*membership.Machine
	gens     map[evs.ProcID]int
	cur      map[evs.ProcID]*memberLog
	logs     []*memberLog
	// onDeliver, when set, sees every delivery of every member at its
	// virtual instant (RunXRing feeds the node's ordered-group core here).
	onDeliver func(id evs.ProcID, ev evs.Event)

	inj  *faults.Injector
	part *faults.Partition

	// netFlight records the fault injector's actions; flightDir and
	// forceViolation carry the Options' flight-dump settings.
	netFlight      *obs.Recorder
	flightDir      string
	forceViolation bool

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

// newHarness builds an n-machine ring on sim (shared by all rings of a
// run), on a fabric drawn from rng.
func newHarness(sim *simnet.Sim, rng *rand.Rand, n int) *harness {
	h := &harness{
		rng:       rng,
		sim:       sim,
		machines:  make(map[evs.ProcID]*membership.Machine),
		gens:      make(map[evs.ProcID]int),
		cur:       make(map[evs.ProcID]*memberLog),
		part:      faults.NewPartition(),
		netFlight: obs.NewRecorder(0),
	}
	net, err := simnet.NewNetwork(sim, chaosFabric(rng, n), h.receive)
	if err != nil {
		panic("chaos: " + err.Error())
	}
	h.net = net
	for i := 0; i < n; i++ {
		id := evs.ProcID(i + 1)
		h.ids = append(h.ids, id)
		h.addMachine(id)
	}
	return h
}

func (h *harness) now() time.Time { return epoch.Add(time.Duration(h.sim.Now())) }

func (h *harness) addMachine(id evs.ProcID) {
	log := &memberLog{id: id, gen: h.gens[id], flight: obs.NewRecorder(0)}
	h.cur[id] = log
	h.logs = append(h.logs, log)
	m, err := membership.New(membership.Config{
		Self:            id,
		Windows:         flowcontrol.Windows{Personal: 5, Global: 100, Accelerated: 3},
		Priority:        core.PriorityAggressive,
		DelayedRequests: true,
		Timeouts:        chaosTimeouts(),
		// Flight recording only, on the simulator's clock: no registry
		// and no tracer, so the machines behave identically to unobserved
		// ones and the Result stays a pure function of the seed.
		Observer: &obs.RingObserver{Flight: log.flight, Clock: h.now},
	}, &procOut{h: h, log: log}, h.now())
	if err != nil {
		panic("chaos: " + err.Error())
	}
	h.machines[id] = m
	every := simnet.Time(tickStep + time.Duration(id)*tickSkew)
	var tick func()
	tick = func() {
		if h.cur[id] != log {
			return // this incarnation was killed: its timer dies with it
		}
		m.Tick(h.now())
		h.sim.After(every, tick)
	}
	h.sim.After(simnet.Time(tickStep+
		time.Duration(id)*tickPhase+time.Duration(h.gens[id])*restartPhase), tick)
}

// receive is the fabric's delivery callback: a frame that survived the
// queues and the injector reaches the process now running on the host, if
// any — frames to a killed host find nobody.
func (h *harness) receive(to simnet.NodeID, p *simnet.Packet) {
	m := h.machines[evs.ProcID(to+1)]
	if m == nil {
		return
	}
	if p.Kind == wire.FrameToken {
		m.HandleTokenFrame(p.Frame, h.now())
	} else {
		m.HandleDataFrame(p.Frame, h.now())
	}
}

// kill stops a participant's process: its machine vanishes, its current
// incarnation is marked crashed, and frames and timers still in flight
// for it are dropped when they fire.
func (h *harness) kill(id evs.ProcID) {
	if log := h.cur[id]; log != nil {
		log.crashed = true
	}
	delete(h.machines, id)
	delete(h.cur, id)
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

// startFaults installs the seeded fault plan for a fault phase of the
// given duration; its rule windows count from now.
func (h *harness) startFaults(seed int64, dur time.Duration) {
	h.inj = faults.New(seed, randomPlan(h.rng, len(h.ids), dur, h.part))
	h.inj.SetFlight(h.netFlight, h.now())
	h.net.SetInjector(h.inj, nil)
}

// stopFaults ends the fault phase: no injector, no partition.
func (h *harness) stopFaults() {
	h.net.SetInjector(nil, nil)
	h.part.Heal()
}

func (h *harness) advance(d time.Duration) { advance(h.sim, d) }

// advance runs the simulator — every ring on it — for d of virtual time.
func advance(sim *simnet.Sim, d time.Duration) { sim.RunUntil(sim.Now() + simnet.Time(d)) }

// waitFor advances sim in slices of step until cond holds or within has
// passed, and reports whether it held.
func waitFor(sim *simnet.Sim, within, step time.Duration, cond func() bool) bool {
	for deadline := sim.Now() + simnet.Time(within); sim.Now() < deadline; advance(sim, step) {
		if cond() {
			return true
		}
	}
	return cond()
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

// states renders every live machine's phase and ring, for a violation.
func (h *harness) states() (out string) {
	for _, id := range h.liveIDs() {
		m := h.machines[id]
		out += fmt.Sprintf(" %d=%v/%v", id, m.State(), m.Ring().ID)
	}
	return out
}

func (h *harness) waitConverged(within time.Duration) bool {
	return waitFor(h.sim, within, 25*time.Millisecond, h.converged)
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

// shape fills in what a run's Options left to the seed: the cluster size
// and the fault schedule's step durations — drawn up front, with their
// total, so the plan's rule windows can span the whole fault phase.
func shape(rng *rand.Rand, nodes, steps int) (n int, durs []time.Duration, total time.Duration) {
	if nodes == 0 {
		nodes = 4 + rng.Intn(3)
	}
	if steps == 0 {
		steps = 10 + rng.Intn(8)
	}
	durs = make([]time.Duration, steps)
	for i := range durs {
		durs[i] = time.Duration(50+rng.Intn(300)) * time.Millisecond
		total += durs[i]
	}
	return nodes, durs, total
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
	n, durs, total := shape(rng, opts.Nodes, opts.Steps)
	steps := len(durs)
	res := &Result{Seed: opts.Seed, Nodes: n, Steps: steps}
	h := newHarness(simnet.NewSim(), rng, n)
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

	// Phase 2: the fault schedule.
	h.startFaults(opts.Seed, total)

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
	h.stopFaults()
	if !h.waitConverged(20 * time.Second) {
		res.Violations = append(res.Violations, Violation{"convergence",
			"live machines did not converge after heal:" + h.states()})
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
	res.SwitchDrops = h.net.Stats().SwitchDrops
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
