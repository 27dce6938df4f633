package faults

import (
	"fmt"
	"sync"
	"time"

	"math/rand"

	"accelring/internal/obs"
	"accelring/internal/stats"
)

// Injector applies a Plan's rules to packets. It is safe for concurrent
// use; every decision is made under one lock so stateful models and the
// per-rule random streams stay consistent.
//
// The injector has two clocks. Paths with a virtual clock (simnet, the
// chaos harness) call Decide with their own elapsed time, keeping runs
// fully deterministic. The real-time path (transport.Hub) calls
// DecideWall, which measures elapsed wall time since New.
type Injector struct {
	seed int64

	mu     sync.Mutex
	rules  []Rule
	rngs   []*rand.Rand
	counts []stats.FaultCounter
	fl     *obs.Recorder
	epoch  time.Time // Decide's elapsed time counts from here; stamps fl's events

	wallStart time.Time
}

// New builds an injector for plan. Each rule gets an independent random
// stream derived from seed and the rule's index, so decisions are a pure
// function of (seed, packet sequence) per rule.
func New(seed int64, plan Plan) *Injector {
	in := &Injector{
		seed:      seed,
		rules:     append([]Rule(nil), plan.Rules...),
		rngs:      make([]*rand.Rand, len(plan.Rules)),
		counts:    make([]stats.FaultCounter, len(plan.Rules)),
		wallStart: time.Now(),
	}
	for i := range in.rules {
		// Distinct, seed-determined stream per rule: splitmix-style odd
		// multipliers keep streams uncorrelated across small indices.
		in.rngs[i] = rand.New(rand.NewSource(seed*0x9E3779B9 + int64(i)*0x85EBCA6B + 1))
		name := in.rules[i].Name
		if name == "" {
			name = fmt.Sprintf("rule%d", i)
		}
		in.counts[i].Rule = name
	}
	return in
}

// Seed returns the injector's seed.
func (in *Injector) Seed() int64 { return in.seed }

// SetFlight installs a black-box recorder that gets one event per rule
// hit — drop, duplication, or delay — with the rule's name (nil clears),
// stamped epoch plus the elapsed time Decide was given: the driver's own
// clock, virtual or wall. No-op on a nil injector.
func (in *Injector) SetFlight(f *obs.Recorder, epoch time.Time) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.fl, in.epoch = f, epoch
	in.mu.Unlock()
}

// Decide evaluates the plan against p at elapsed time now and returns the
// combined decision. Rules apply in plan order; once a rule drops the
// packet, later rules are skipped.
func (in *Injector) Decide(now time.Duration, p Packet) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	var d Decision
	for i := range in.rules {
		r := &in.rules[i]
		if !r.matches(now, p) {
			continue
		}
		c := &in.counts[i]
		c.Matched++
		prevDelay, prevExtra := d.Delay, len(d.Extra)
		d = r.Model.Apply(in.rngs[i], p, d)
		if d.Drop {
			c.Dropped++
			d.Delay, d.Extra = 0, nil
			in.recordHit(now, c.Rule, "drop", p)
			break
		}
		if n := len(d.Extra) - prevExtra; n > 0 {
			c.Duplicated += uint64(n)
			in.recordHit(now, c.Rule, "dup", p)
		}
		if d.Delay > prevDelay {
			c.Delayed++
			in.recordHit(now, c.Rule, "delay", p)
		}
	}
	return d
}

// recordHit notes one fault-injection action in the flight recorder.
// Called with in.mu held.
func (in *Injector) recordHit(now time.Duration, rule, effect string, p Packet) {
	if in.fl == nil {
		return
	}
	note := rule + ":" + effect
	if p.Token {
		note += ":token"
	}
	in.fl.Record(obs.Event{Kind: obs.FlightFault, At: in.epoch.Add(now), Note: note, Seq: uint64(p.From), Aru: uint64(p.To)})
}

// DecideWall is Decide with elapsed wall-clock time since New, for
// real-time packet paths.
func (in *Injector) DecideWall(p Packet) Decision {
	return in.Decide(time.Since(in.wallStart), p)
}

// RestartClock resets the wall clock rule windows are measured against,
// e.g. after a setup phase that should not consume the windows.
func (in *Injector) RestartClock() {
	in.mu.Lock()
	in.wallStart = time.Now()
	in.mu.Unlock()
}

// Counters returns a snapshot of the per-rule activity counters.
func (in *Injector) Counters() []stats.FaultCounter {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]stats.FaultCounter(nil), in.counts...)
}
