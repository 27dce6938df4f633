// Package chaos is the invariant-checking chaos harness: it runs
// randomized, seed-replayable fault plans against a full multi-daemon
// cluster — one ringnode step (membership, recovery, packing and the
// ordering engine: the production protocol code) per participant, hosted
// by internal/simproc — on the repository's one virtual-time simulator:
// simnet.Sim schedules every frame arrival, timer tick, step input and
// schedule step, and simnet.Network carries every frame through NIC
// serialization, the switch's per-port drop-tail buffers and the unified
// faults.Injector. It checks the Extended Virtual Synchrony delivery
// invariants after every run:
//
//  1. total-order — agreed delivery produces one total order: a slot
//     (configuration, sequence number, position within a packed bundle)
//     holds the same message at every member that fills it, no member
//     delivers the same message twice within one incarnation, and any two
//     members deliver the messages they have in common in the same
//     relative order;
//  2. safe-stability — a Safe message delivered in a regular
//     configuration (before the configuration's transitional marker) was
//     received by every member of it: every non-crashed member that
//     installed the configuration also delivers the message;
//  3. virtual-synchrony — members agree on each configuration's member
//     set, and members that come through the same transitional
//     configuration deliver exactly the same messages in the
//     configuration they left;
//  4. seq-regression — per member and configuration, delivered sequence
//     numbers never decrease, and positions within one seq's bundle
//     strictly increase.
//
// The fault classes are process kill and restart, partition and heal,
// i.i.d. and bursty loss, duplication, delay/reorder, drop-tail overrun at
// a receiver's switch port on the seeds whose fabric has a port buffer of
// only a few frames (Result.SwitchDrops), and receive-socket overrun on
// the seeds whose hosts read data slower than their link delivers it into
// a socket of only a few frames (Result.SockDrops). A seed-chosen half of
// Run's clusters pack small messages into bundles.
//
// RunXRing puts several rings on the same simulator: all rings of a run
// share one clock, and each ring delivery reaches the node's production
// ordered-group core (groupcore.Core) at its virtual instant, interleaved
// with the other rings' deliveries exactly as the event order has them.
//
// A run is a pure function of its seed: the fabric, the hosts, the fault
// plan, the node count, the kill/restart/partition schedule, and every
// per-packet fault decision derive from it, so any violation replays
// exactly from the printed seed (see faults.ReplaySeed and the
// FAULTS_SEED override).
package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"accelring/internal/evs"
	"accelring/internal/faults"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/simnet"
	"accelring/internal/simproc"
	"accelring/internal/stats"
	"accelring/internal/wire"
)

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

// chaosHost draws a run's host model from its seed. Modeled wire sizes are
// the frames' encoded sizes. Two runs in three get cost-free cores and a
// data socket nothing here can fill; the third gets a core slower than its
// link — reading a data frame costs more than the 40–120 µs the frame
// takes to arrive — and a data socket of only a few frames (the largest,
// a recovery flood of a packed bundle, must still fit), so data arriving
// back to back — a multicast burst, a join storm — overruns the socket and
// is lost there (Result.SockDrops).
func chaosHost(rng *rand.Rand) (prof simproc.Profile, dataSock int) {
	prof = simproc.Profile{HeaderBytes: wire.DataOverhead, TokenBytes: (&wire.Token{}).EncodedLen()}
	if rng.Intn(3) == 0 {
		prof.RecvDataFixed = simnet.Time(150+rng.Intn(150)) * simnet.Microsecond
		prof.RecvTokenFixed = 20 * simnet.Microsecond
		prof.SendFixed = 5 * simnet.Microsecond
		dataSock = 400 + rng.Intn(400)
	}
	return prof, dataSock
}

// Options parameterizes a chaos run.
type Options struct {
	// Seed determines everything about the run: 4–6 nodes, 10–17
	// fault-schedule steps and everything they do.
	Seed int64
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
	// Submitted counts client submissions queued at a live process
	// (which hands them to its step once it can take them); Delivered counts
	// application message deliveries summed over members; Configs counts
	// regular configuration installs summed over members.
	Submitted, Delivered, Configs int
	// Faults holds the fault plan's per-rule counters; SwitchDrops counts
	// the frames lost to drop-tail overrun at a full switch port and
	// SockDrops those lost to overrun at a full receive socket.
	Faults                 []stats.FaultCounter
	SwitchDrops, SockDrops uint64
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
	// pos holds each message's position within its packing bundle, the
	// messages of one bundle sharing a seq (0 when unpacked; entries past
	// the end read 0).
	pos []int
	// flight is the incarnation's black-box recorder (virtual-clock
	// timestamps), dumped as JSONL when the run ends with violations.
	flight *obs.Recorder
}

func (l *memberLog) name() string { return fmt.Sprintf("%d.%d", l.id, l.gen) }

func (l *memberLog) posAt(i int) int {
	if i < len(l.pos) {
		return l.pos[i]
	}
	return 0
}

// harness is one ring's deterministic virtual-time cluster: simulated
// hosts running the production ringnode step on a simulated fabric with
// the fault injector at its ingress; participant id runs on fabric host
// id-1. Everything runs on the simulator's one goroutine; map iteration
// never decides anything.
type harness struct {
	rng *rand.Rand
	c   *simproc.Cluster

	// cur holds each host's latest incarnation, logs every incarnation.
	cur  []*memberLog
	logs []*memberLog
	// packed marks a run whose members pack: a bundle's messages share a
	// seq and are delivered back to back.
	packed bool
	// onDeliver, when set, sees every delivery of every member at its
	// virtual instant (RunXRing feeds the node's ordered-group core here).
	onDeliver func(id evs.ProcID, ev evs.Event)

	inj  *faults.Injector
	part *faults.Partition
	// netFlight records the fault injector's actions.
	netFlight *obs.Recorder

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

// newHarness builds an n-process ring on sim (shared by all rings of a
// run), with a fabric and host model drawn from rng; packed enables
// adaptive packing on every member.
func newHarness(sim *simnet.Sim, rng *rand.Rand, n int, packed bool) *harness {
	h := &harness{
		rng:       rng,
		cur:       make([]*memberLog, n),
		packed:    packed,
		part:      faults.NewPartition(),
		netFlight: obs.NewRecorder(0),
	}
	ring := ringnode.Accelerated(0, nil, 5, 100, 3)
	ring.Timeouts = chaosTimeouts()
	if packed {
		ring.Packing = true
	}
	opts := simproc.Options{Fabric: chaosFabric(rng, n), Ring: ring, Observer: h.boot}
	opts.Profile, opts.DataSockBytes = chaosHost(rng)
	c, err := simproc.Boot(sim, opts)
	if err != nil {
		panic("chaos: " + err.Error())
	}
	c.SetDeliverHook(h.deliver)
	h.c = c
	return h
}

// boot is the cluster's observer factory, called once per process boot: it
// opens the incarnation's delivery log and its flight recorder, on the
// simulated clock the host installs. There is no registry and no tracer,
// so the steps behave identically to unobserved ones and the Result stays
// a pure function of the seed.
func (h *harness) boot(i int) *obs.RingObserver {
	log := &memberLog{id: evs.ProcID(i + 1), flight: obs.NewRecorder(0)}
	if prev := h.cur[i]; prev != nil {
		log.gen = prev.gen + 1
	}
	h.cur[i] = log
	h.logs = append(h.logs, log)
	return &obs.RingObserver{Flight: log.flight}
}

// deliver is the cluster's delivery hook: it appends to the incarnation's
// log, numbering each message's position within its bundle.
func (h *harness) deliver(node simnet.NodeID, ev evs.Event, _ simnet.Time) {
	log := h.cur[node]
	pos := 0
	if m, ok := ev.(evs.Message); ok && h.packed && len(log.events) > 0 {
		k := len(log.events) - 1
		if prev, ok := log.events[k].(evs.Message); ok && prev.Config == m.Config && prev.Seq == m.Seq {
			pos = log.pos[k] + 1
		}
	}
	log.events = append(log.events, ev)
	log.pos = append(log.pos, pos)
	if h.onDeliver != nil {
		h.onDeliver(log.id, ev)
	}
}

// node returns participant id's running process, or nil.
func (h *harness) node(id evs.ProcID) *simproc.Node { return h.c.Nodes[id-1] }

// kill stops a participant's process: its current incarnation is marked
// crashed, and frames and timers still in flight for it are dropped.
func (h *harness) kill(id evs.ProcID) {
	if h.node(id) != nil {
		h.cur[id-1].crashed = true
		h.c.Kill(int(id - 1))
	}
}

// restart boots a fresh process for a killed participant.
func (h *harness) restart(id evs.ProcID) {
	if err := h.c.Restart(int(id - 1)); err != nil {
		panic("chaos: " + err.Error())
	}
}

// ids returns the participants whose process is alive, or those whose is
// not.
func (h *harness) ids(alive bool) []evs.ProcID {
	var out []evs.ProcID
	for i, n := range h.c.Nodes {
		if (n != nil) == alive {
			out = append(out, evs.ProcID(i+1))
		}
	}
	return out
}

// startFaults installs the seeded fault plan for a fault phase of the
// given duration; its rule windows count from now.
func (h *harness) startFaults(seed int64, dur time.Duration) {
	h.inj = faults.New(seed, randomPlan(h.rng, len(h.c.Nodes), dur, h.part))
	h.inj.SetFlight(h.netFlight, simproc.Wall(h.c.Sim.Now()))
	h.c.Net.SetInjector(h.inj)
}

// stopFaults ends the fault phase: no injector, no partition.
func (h *harness) stopFaults() {
	h.c.Net.SetInjector(nil)
	h.part.Heal()
}

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

// waitConverged advances sim until every ring of hs has converged or
// within has passed. It returns the rings still reforming, with each live
// process's phase and ring, for a violation ("" once converged).
func waitConverged(sim *simnet.Sim, within time.Duration, hs ...*harness) (stuck string) {
	if waitFor(sim, within, 25*time.Millisecond, func() bool {
		for _, h := range hs {
			if !h.c.Converged() {
				return false
			}
		}
		return true
	}) {
		return ""
	}
	for r, h := range hs {
		if !h.c.Converged() {
			stuck += fmt.Sprintf(" ring %d{", r)
			for _, id := range h.ids(true) {
				m := h.node(id).Machine()
				stuck += fmt.Sprintf(" %d=%v/%v", id, m.State(), m.Ring().ID)
			}
			stuck += " }"
		}
	}
	return stuck
}

// submit queues one client message at a live participant's process, which
// holds it until the step can take it.
func (h *harness) submit(id evs.ProcID, svc evs.Service) {
	if n := h.node(id); n != nil {
		h.submitted++
		n.Submit([]byte(fmt.Sprintf("m-%d-%d", id, h.submitted)), svc)
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

// shape draws a run's cluster size and the fault schedule's step
// durations — up front, with their total, so the plan's rule windows can
// span the whole fault phase.
func shape(rng *rand.Rand) (n int, durs []time.Duration, total time.Duration) {
	n = 4 + rng.Intn(3)
	durs = make([]time.Duration, 10+rng.Intn(8))
	for i := range durs {
		durs[i] = time.Duration(50+rng.Intn(300)) * time.Millisecond
		total += durs[i]
	}
	return n, durs, total
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
	n, durs, total := shape(rng)
	steps := len(durs)
	res := &Result{Seed: opts.Seed, Nodes: n, Steps: steps}
	h := newHarness(simnet.NewSim(), rng, n, rng.Intn(2) == 0)

	// Phase 1: fault-free ring formation.
	if stuck := waitConverged(h.c.Sim, 10*time.Second, h); stuck != "" {
		res.Violations = append(res.Violations,
			Violation{"formation", "initial ring did not form:" + stuck})
		return finish(res, h, opts), h
	}

	// Phase 2: the fault schedule.
	h.startFaults(opts.Seed, total)

	for s := 0; s < steps; s++ {
		switch rng.Intn(8) {
		case 0: // kill one process (keep a workable majority of the ids)
			if live := h.ids(true); len(live) > 3 {
				h.kill(live[rng.Intn(len(live))])
			}
		case 1: // restart a killed process as a fresh incarnation
			if dead := h.ids(false); len(dead) > 0 {
				h.restart(dead[rng.Intn(len(dead))])
			}
		case 2: // split into two sides
			sides := make(map[evs.ProcID]int, n)
			for id := evs.ProcID(1); int(id) <= n; id++ {
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
				h.submit(evs.ProcID(rng.Intn(n)+1), svc)
			}
		}
		advance(h.c.Sim, durs[s])
	}

	// Phase 3: stop all faults, let the survivors converge, then flush so
	// every pending recovery and safe delivery completes.
	h.stopFaults()
	if stuck := waitConverged(h.c.Sim, 20*time.Second, h); stuck != "" {
		res.Violations = append(res.Violations, Violation{"convergence",
			"live processes did not converge after heal:" + stuck})
		return finish(res, h, opts), h
	}
	advance(h.c.Sim, 2*time.Second)

	res.Violations = append(res.Violations, checkInvariants(h.logs)...)
	return finish(res, h, opts), h
}

// finish fills in the Result's counters and, per opts, plants the forced
// violation and dumps the flight recorders of a run with violations.
func finish(res *Result, h *harness, opts Options) *Result {
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
	res.SwitchDrops = h.c.Net.Stats().SwitchDrops
	res.SockDrops = h.c.SockDrops
	if opts.ForceViolation {
		res.Violations = append(res.Violations,
			Violation{"forced", "planted by Options.ForceViolation"})
	}
	sort.SliceStable(res.Violations, func(i, j int) bool {
		return res.Violations[i].Invariant < res.Violations[j].Invariant
	})
	if dir := opts.FlightDir; len(res.Violations) > 0 {
		if dir == "" {
			dir = os.Getenv("CHAOS_FLIGHT_DIR")
		}
		dumpFlights(dir, res.Seed, h)
	}
	return res
}

// dumpFlights writes every incarnation's flight recorder — and the
// network injector's — as JSONL into the configured dump directory, one
// file per recorder, named like the CHAOS_DUMP log dumps. Best effort: a
// write failure is reported on stderr, never fails the run, and the
// Result is untouched either way.
func dumpFlights(dir string, seed int64, h *harness) {
	if dir == "" {
		return
	}
	write := func(name string, f *obs.Recorder) {
		if f.Total() == 0 {
			return
		}
		path := filepath.Join(dir, fmt.Sprintf("chaos-flight-seed%d-%s.jsonl", seed, name))
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
