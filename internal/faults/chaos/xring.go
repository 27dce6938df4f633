package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/groupcore"
	"accelring/internal/ringnode"
	"accelring/internal/simnet"
)

// paceEvery is settle's poll step: how often it checks that every live
// merger has drained. The cores themselves need no timer — a blocked
// merge claims its skips at the delivery that blocked it.
const paceEvery = 10 * time.Millisecond

// ringSeed derives ring r's private seed from the master seed, so every
// ring gets an independent but replay-stable fault stream.
func ringSeed(seed int64, r int) int64 {
	return seed*1_000_003 + int64(r+1)*7919
}

// XRingOptions parameterizes a cross-ring merge chaos run: one harness
// cluster per ring, each on its own fabric with its own seeded fault plan,
// all on one simulator and so one clock; every node runs the production
// ordered-group core (groupcore.Core — the very code a sharded daemon
// runs, driven here under virtual time) over all of its per-ring delivery
// streams — including the skip claims a blocked merge orders, a live
// group migration triggered mid-stream, and a split/heal of the
// migration's source ring while the migration is in flight.
type XRingOptions struct {
	// Seed determines everything about the run: 4–6 nodes per ring, 10–17
	// fault-schedule steps, 3–5 client groups spread across the rings, and
	// everything they do.
	Seed int64
	// Shards is the ring count (default 2).
	Shards int
}

// XRingResult summarizes one cross-ring chaos run. Two runs with equal
// Options are identical, including the Result.
type XRingResult struct {
	Seed                 int64
	Shards, Nodes, Steps int
	Groups               []string
	// MigratedGroup / MigratedTo describe the migration the schedule
	// triggered (MigratedGroup is always set; the Begin may still be lost
	// to faults, in which case MigrationsClosed is 0 and the route stays).
	MigratedGroup string
	MigratedTo    int
	// MigrationsClosed is the maximum per-node migration close count over
	// live nodes. Counts may legitimately differ across nodes: when a
	// Begin straddles a partition and the run repairs it by re-issuing the
	// Migrate, members that ordered the original Begin close twice while
	// the other component closes only the repair. What must agree — and is
	// checked — is the route every node ends with.
	MigrationsClosed int
	// PerRing holds each ring's own Result (per-ring EVS invariants
	// included, with ring-derived seeds).
	PerRing []*Result
	// Submitted and Delivered aggregate application traffic over the
	// rings (control envelopes — skips, acks, Begins — excluded from
	// Submitted, included in the raw per-ring Delivered).
	Submitted, Delivered int
	// GlobalLogs is each node's globally ordered message-payload stream,
	// indexed like the node ids; the determinism regression compares two
	// runs' logs byte for byte.
	GlobalLogs [][]string
	// Violations flattens every breach: each ring's EVS violations plus
	// the cross-ring checks — identical global order, zero loss, and
	// exactly-once delivery through the migration.
	Violations []Violation
}

// xnode is one daemon-equivalent: a groupcore.Core fed by the node's
// process on every ring, with the node as both of the core's seams — its
// Submitter (onto the harness processes) and its Sink (the globally ordered
// output). Nodes are never restarted (a fresh merger's slot numbering
// would only re-level at the next announcement round — the guarantee is
// per incarnation).
type xnode struct {
	x    *xrun
	id   evs.ProcID
	dead bool
	core *groupcore.Core
	// fedAt holds the virtual instant of every ring delivery handed to
	// the core, in hand-over order.
	fedAt []simnet.Time
	// global is the node's globally ordered delivery stream (message
	// payloads; config changes are per-ring and excluded from cross-node
	// comparison since partitioned components legitimately see different
	// view sequences).
	global []string
	// migClosed counts Migrated callbacks.
	migClosed int
}

var errNoProcess = errors.New("chaos: node has no process on that ring")

// Submit implements groupcore.Submitter through the node's process on the
// ring, which queues the payload until its step can take it, and poisons
// it once the ring is done with it where the real host recycles it.
func (n *xnode) Submit(ring int, payload []byte, svc evs.Service) error {
	p := n.x.hs[ring].node(n.id)
	if p == nil {
		return errNoProcess
	}
	p.Submit(payload, svc)
	return nil
}

// Message implements groupcore.Sink: deliveries append to the node's
// global log. Nobody joins groups here, so the delivery set is empty and
// ignored — the order itself is what the run checks.
func (n *xnode) Message(_ int, env *group.Envelope, _ evs.Service, _ uint64, _ []group.ClientID) {
	if env.Kind == group.OpMessage {
		n.global = append(n.global, string(env.Payload))
	}
}

func (n *xnode) View(string, []group.ClientID, group.ClientID) {}
func (n *xnode) Config(int, evs.ConfigChange)                  {}
func (n *xnode) Rejected(group.ClientID, group.OpKind, error)  {}
func (n *xnode) Migrated(string, int, int)                     { n.migClosed++ }

// xrun is the running state of one cross-ring chaos run.
type xrun struct {
	res *XRingResult
	// sim schedules every ring: the run has one clock.
	sim    *simnet.Sim
	hs     []*harness
	nodes  []*xnode
	msgSeq uint32
	// split tracks which rings currently have a partition installed, so
	// the migration only triggers while its source ring is whole.
	split []bool
}

func (x *xrun) violate(inv, detail string) {
	x.res.Violations = append(x.res.Violations, Violation{inv, detail})
}

// onRingEvent hands one ring delivery to the node's core at the instant
// the step made it, through the entry point the production ring
// goroutine's callbacks call (groupcore.Host). Emission happens inline,
// and so do the control envelopes it submits.
func (n *xnode) onRingEvent(ring int, ev evs.Event) {
	switch e := ev.(type) {
	case evs.Message:
		// The core ignores foreign payloads; here every payload is ours,
		// so one that does not decode is a violation.
		if _, err := group.DecodeEnvelope(e.Payload); err != nil {
			n.x.violate("decode", fmt.Sprintf("node %d ring %d: %v", n.id, ring, err))
			return
		}
		n.fedAt = append(n.fedAt, n.x.sim.Now())
		n.core.OnRingMessage(ring, e)
	case evs.ConfigChange:
		n.fedAt = append(n.fedAt, n.x.sim.Now())
		n.core.OnRingConfig(ring, e)
	}
}

// waitConverged waits until every ring has converged. On failure it
// records what as a violation naming the rings still reforming.
func (x *xrun) waitConverged(within time.Duration, inv, what string) bool {
	stuck := waitConverged(x.sim, within, x.hs...)
	if stuck != "" {
		x.violate(inv, what+":"+stuck)
	}
	return stuck == ""
}

// settle runs until every live merger has stayed drained (no queued
// items) for a few consecutive poll steps. If the virtual-time budget
// runs out first, that is a merge-liveness violation naming what stalled
// and every live merger's pending state.
func (x *xrun) settle(budget time.Duration, what string) bool {
	quiet := 0
	ok := waitFor(x.sim, budget, paceEvery, func() bool {
		if !x.quiescent() {
			quiet = 0
			return false
		}
		quiet++
		return quiet >= 5
	})
	if !ok {
		detail := what + ":"
		for _, n := range x.liveNodes() {
			detail += fmt.Sprintf(" node%d{pending=%d", n.id, n.core.Merger().Pending())
			for r := range x.hs {
				detail += fmt.Sprintf(" f%d=%d", r, n.core.Merger().Frontier(r))
			}
			detail += "}"
		}
		x.violate("merge-liveness", detail)
	}
	return ok
}

func (x *xrun) quiescent() bool {
	for _, n := range x.liveNodes() {
		if n.core.Merger().Pending() > 0 {
			return false
		}
	}
	return true
}

func (x *xrun) liveNodes() []*xnode {
	var out []*xnode
	for _, n := range x.nodes {
		if !n.dead {
			out = append(out, n)
		}
	}
	return out
}

// killNode stops one node everywhere: its processes die on every ring
// and its core is no longer driven.
func (x *xrun) killNode(n *xnode) {
	n.dead = true
	for _, h := range x.hs {
		h.kill(n.id)
	}
}

// submitMsg routes one tagged application message by the SENDER's own
// routing table — mid-migration, different nodes may transiently route
// the same group differently, and each sender's view is the authoritative
// one for its own traffic (that is the semantics the daemon gives its
// clients). Returns whether the submission was accepted.
func (x *xrun) submitMsg(n *xnode, g, phase string, svc evs.Service) bool {
	ring := n.core.RingOfGroup(g)
	if x.hs[ring].node(n.id) == nil {
		return false
	}
	x.msgSeq++
	env := group.Envelope{
		Kind:    group.OpMessage,
		Sender:  group.ClientID{Daemon: n.id, Local: x.msgSeq},
		Groups:  []string{g},
		Payload: []byte(fmt.Sprintf("%s/%s-%d-%d", g, phase, n.id, x.msgSeq)),
	}
	if n.core.Submit(ring, &env, svc) != nil {
		return false
	}
	x.hs[ring].submitted++
	return true
}

// burst submits base to base+3 application messages, each from a seeded
// live node to a seeded group, sender-routed, mixed Agreed/Safe, and
// returns how many were accepted.
func (x *xrun) burst(rng *rand.Rand, base int, phase string) (accepted int) {
	for k := base + rng.Intn(4); k > 0; k-- {
		g := x.res.Groups[rng.Intn(len(x.res.Groups))]
		svc := evs.Agreed
		if rng.Intn(2) == 0 {
			svc = evs.Safe
		}
		if live := x.liveNodes(); len(live) > 0 &&
			x.submitMsg(live[rng.Intn(len(live))], g, phase, svc) {
			accepted++
		}
	}
	return accepted
}

// splitRing installs a seeded two-sided partition on one ring.
func (x *xrun) splitRing(r int, rng *rand.Rand) {
	sides := make(map[evs.ProcID]int, len(x.nodes))
	for i, n := range x.nodes {
		// Guarantee both sides are nonempty, then randomize the rest.
		if i < 2 {
			sides[n.id] = i
		} else {
			sides[n.id] = rng.Intn(2)
		}
	}
	x.hs[r].part.Split(sides)
	x.split[r] = true
}

func (x *xrun) healRing(r int) {
	x.hs[r].part.Heal()
	x.split[r] = false
}

// checkEqualStreams verifies that every live node produced the identical
// stream, reporting the first divergence.
func (x *xrun) checkEqualStreams(inv string, streams map[evs.ProcID][]string) {
	live := x.liveNodes()
	if len(live) < 2 {
		return
	}
	ref := streams[live[0].id]
	for _, n := range live[1:] {
		got := streams[n.id]
		for i := 0; i < min(len(ref), len(got)); i++ {
			if ref[i] != got[i] {
				x.violate(inv, fmt.Sprintf(
					"nodes %d and %d diverge at global position %d: %q vs %q",
					live[0].id, n.id, i, ref[i], got[i]))
				return
			}
		}
		if len(ref) != len(got) {
			x.violate(inv, fmt.Sprintf(
				"nodes %d and %d delivered %d vs %d messages",
				live[0].id, n.id, len(ref), len(got)))
			return
		}
	}
}

// RunXRing executes one cross-ring merge chaos run. It is deterministic:
// equal Options produce equal Results, including every node's global log.
func RunXRing(opts XRingOptions) *XRingResult { return finishXRing(runXRing(opts)) }

// runXRing is RunXRing up to the result's summary fields, exposing the
// run's state so tests can inspect it.
func runXRing(opts XRingOptions) *xrun {
	rng := rand.New(rand.NewSource(opts.Seed))
	shards := opts.Shards
	if shards == 0 {
		shards = 2
	}
	n, durs, total := shape(rng)
	steps := len(durs)
	ngroups := 3 + rng.Intn(3)
	res := &XRingResult{Seed: opts.Seed, Shards: shards, Nodes: n, Steps: steps}
	for g := 0; g < ngroups; g++ {
		res.Groups = append(res.Groups, fmt.Sprintf("g-%d", g))
	}

	x := &xrun{res: res, sim: simnet.NewSim(), split: make([]bool, shards)}
	for i := 0; i < n; i++ {
		node := &xnode{x: x, id: evs.ProcID(i + 1)}
		node.core = groupcore.New(groupcore.Config{
			Shards: shards, Self: node.id, Submit: node, Sink: node,
		})
		x.nodes = append(x.nodes, node)
	}
	for r := 0; r < shards; r++ {
		r := r
		h := newHarness(x.sim, rand.New(rand.NewSource(ringSeed(opts.Seed, r))), n, false)
		h.onDeliver = func(id evs.ProcID, ev evs.Event) { x.nodes[id-1].onRingEvent(r, ev) }
		// The core's merger reads payloads past the delivery, in the
		// ring's frames, as the production host's does.
		h.c.SetHolder(func(node simnet.NodeID) ringnode.Holder { return x.nodes[node].core.Holder(r) })
		x.hs = append(x.hs, h)
		res.PerRing = append(res.PerRing, &Result{Seed: ringSeed(opts.Seed, r), Nodes: n, Steps: steps})
	}

	// Phase 1: fault-free formation of every ring, then a converged burst
	// that every node must deliver in the identical global order.
	if !x.waitConverged(10*time.Second, "formation", "rings did not form") {
		return x
	}
	burstA := x.burst(rng, 4, "a")
	if !x.settle(20*time.Second, "converged burst did not drain") {
		return x
	}
	streams := make(map[evs.ProcID][]string)
	for _, node := range x.nodes {
		streams[node.id] = node.global
	}
	x.checkEqualStreams("global-order", streams)
	if got := len(x.nodes[0].global); got != burstA {
		x.violate("global-loss", fmt.Sprintf(
			"converged burst: %d accepted, %d delivered globally", burstA, got))
	}

	// Pick the migration before the fault phase: the group, its source
	// ring (the routing hash's choice), and the neighbouring target.
	gM := res.Groups[rng.Intn(ngroups)]
	migFrom := group.RingOf(gM, shards)
	migTo := (migFrom + 1) % shards
	res.MigratedGroup, res.MigratedTo = gM, migTo
	migStep := steps / 2
	if migStep+3 >= steps {
		migStep = steps - 4
	}
	migSubmitted := false
	submitBegin := func() {
		// The lowest live node initiates; any node could. Triggered only
		// while the source ring is whole, so the Begin orders ring-wide
		// before the scheduled split lands on it.
		live := x.liveNodes()
		if len(live) == 0 || x.split[migFrom] {
			return
		}
		if _, err := live[0].core.BeginMigrate(gM, migFrom, migTo); err == nil {
			migSubmitted = true
		}
	}

	// Phase 2: the shared fault schedule — independent per-ring fault
	// plans, whole-node kills, ring splits and heals, group traffic — with
	// the migration forced mid-stream and its source ring split and healed
	// while the migration is in flight.
	for r, h := range x.hs {
		h.startFaults(ringSeed(opts.Seed, r), total)
	}

	for s := 0; s < steps; s++ {
		switch {
		case s == migStep && migStep >= 0:
			submitBegin()
		case s == migStep+1 && migStep >= 0:
			x.splitRing(migFrom, rng)
		case s == migStep+3 && migStep >= 0:
			x.healRing(migFrom)
		default:
			switch rng.Intn(8) {
			case 0: // kill one whole node (keep a workable majority)
				if live := x.liveNodes(); len(live) > 3 {
					x.killNode(live[rng.Intn(len(live))])
				}
			case 1:
				// A quiet step where Run would restart a process: nodes
				// here never restart (see xnode).
			case 2: // split one ring
				x.splitRing(rng.Intn(shards), rng)
			case 3: // heal one ring
				x.healRing(rng.Intn(shards))
			default:
				x.burst(rng, 1, "x")
			}
		}
		// Keep traffic flowing at the migrating group through the handoff
		// window, so the buffer-and-replay path is actually exercised.
		if migStep >= 0 && s >= migStep && s <= migStep+3 {
			if live := x.liveNodes(); len(live) > 0 {
				x.submitMsg(live[rng.Intn(len(live))], gM, "x", evs.Agreed)
				if !migSubmitted && s > migStep {
					submitBegin()
				}
			}
		}
		advance(x.sim, durs[s])
	}

	// Phase 3: stop all faults, converge every ring, drain the merge, and
	// make sure a migration actually ran even on seeds whose schedule kept
	// the source ring split through the whole window.
	for r, h := range x.hs {
		h.stopFaults()
		x.split[r] = false
	}
	if !x.waitConverged(20*time.Second, "convergence", "live processes did not converge after heal") {
		return x
	}
	if !x.settle(30*time.Second, "post-heal drain") {
		return x
	}
	if !migSubmitted {
		submitBegin()
		advance(x.sim, time.Second)
		if !x.settle(20*time.Second, "fallback migration drain") {
			return x
		}
	}

	// A Begin that straddled the forced partition leaves damage the merge
	// layer cannot repair by itself: the component that never ordered the
	// Begin keeps the old route, and a member that ordered it but whose
	// required acks closed in the OTHER component stays open forever (the
	// closed members have nothing left to re-announce). The operator's
	// remedy for both is re-issuing the Migrate on the group's old ring:
	// not-yet-flipped members run the normal flow, already-closed members
	// join the drain with no-op flips, and stuck-open members supersede
	// their original Begin — everyone leaves closed with one agreed route.
	// The harness plays the operator here, exactly once.
	if live := x.liveNodes(); len(live) > 1 {
		damaged := false
		for _, node := range live {
			if node.core.RingOfGroup(gM) != live[0].core.RingOfGroup(gM) || node.core.Merger().Migrating(gM) {
				damaged = true
				break
			}
		}
		if damaged {
			// Always on the OLD ring, whatever the issuing node's own route
			// says by now — which is why this is BeginMigrate with an
			// explicit source rather than the route-following Migrate.
			submitted := false
			for _, node := range live {
				if _, err := node.core.BeginMigrate(gM, migFrom, migTo); err == nil {
					submitted = true
					break
				}
			}
			if !submitted {
				x.violate("migration", fmt.Sprintf(
					"routes for %q diverged and no live node could submit the repair Begin", gM))
			}
			advance(x.sim, time.Second)
			if !x.settle(20*time.Second, "repair migration drain") {
				return x
			}
		}
	}

	// The migration must have settled to one agreed outcome everywhere:
	// one route for the group (after the repair, if one was needed) and no
	// migration left open. Close COUNTS may differ legitimately — a
	// repair-joining member closes both the original and the repair — so
	// the result records the maximum.
	if live := x.liveNodes(); len(live) > 0 {
		ref := live[0].core.RingOfGroup(gM)
		for _, node := range live {
			res.MigrationsClosed = max(res.MigrationsClosed, node.migClosed)
			if got := node.core.RingOfGroup(gM); got != ref {
				x.violate("migration", fmt.Sprintf(
					"nodes %d and %d route %q to rings %d vs %d after heal",
					live[0].id, node.id, gM, ref, got))
			}
			if node.core.Merger().Migrating(gM) {
				x.violate("migration", fmt.Sprintf(
					"migration of %q still open at node %d after heal", gM, node.id))
			}
		}
	}

	// Epilogue: a post-heal burst every live node must deliver in the
	// identical global order, with nothing lost and nothing duplicated —
	// the re-leveling guarantee after the frontier announcement round.
	burstE := x.burst(rng, 4, "e")
	if !x.settle(20*time.Second, "epilogue burst did not drain") {
		return x
	}

	epilogue := make(map[evs.ProcID][]string)
	for _, node := range x.liveNodes() {
		for _, p := range node.global {
			if strings.Contains(p, "/e-") {
				epilogue[node.id] = append(epilogue[node.id], p)
			}
		}
	}
	x.checkEqualStreams("global-order", epilogue)
	if live := x.liveNodes(); len(live) > 0 {
		if got := len(epilogue[live[0].id]); got != burstE {
			x.violate("global-loss", fmt.Sprintf(
				"epilogue burst: %d accepted, %d delivered globally", burstE, got))
		}
	}
	// Exactly-once across the whole run, migration handoff included: no
	// payload may appear twice in any node's global stream.
	for _, node := range x.nodes {
		seen := make(map[string]bool, len(node.global))
		for _, p := range node.global {
			if seen[p] {
				x.violate("global-dup", fmt.Sprintf(
					"node %d delivered %q twice", node.id, p))
				break
			}
			seen[p] = true
		}
	}

	// Per-ring EVS invariants still hold underneath the merge.
	advance(x.sim, 2*time.Second)
	for r, h := range x.hs {
		for _, v := range checkInvariants(h.logs) {
			res.PerRing[r].Violations = append(res.PerRing[r].Violations, v)
			x.violate(v.Invariant, fmt.Sprintf("ring %d: %s", r, v.Detail))
		}
	}
	return x
}

func finishXRing(x *xrun) *XRingResult {
	res := x.res
	for r, h := range x.hs {
		finish(res.PerRing[r], h, Options{})
		res.Submitted += res.PerRing[r].Submitted
		res.Delivered += res.PerRing[r].Delivered
	}
	res.GlobalLogs = make([][]string, len(x.nodes))
	for i, n := range x.nodes {
		res.GlobalLogs[i] = n.global
	}
	return res
}
