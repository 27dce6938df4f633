// Package faults is the unified fault-injection subsystem: a deterministic,
// seed-replayable engine that decides, per packet, whether a frame is
// dropped, delayed, or duplicated. One Injector serves both injectable
// packet paths in the repository — the simnet discrete-event switch and
// the in-memory transport Hub — so experiments, examples, and chaos tests
// all exercise the same code. The real UDP transport has no fault shim:
// its loss is the network's own.
//
// Fault behavior is declared as a Plan of Rules. A Rule selects packets
// (by sender, receiver, frame class, custom predicate, and an activity
// window) and applies a Model: i.i.d. loss, bursty Gilbert–Elliott loss,
// duplication, delay/jitter (which reorders), or a runtime-controlled
// Partition (symmetric sides plus asymmetric one-way link cuts). Rules
// compose in plan order; an earlier drop short-circuits later rules.
//
// Every Rule draws from its own random stream derived from the Injector
// seed, so a run's fault pattern is a pure function of (seed, packet
// sequence). The chaos harness (internal/faults/chaos) exploits this to
// replay any failing run from its printed seed; see Seeds and ReplaySeed
// for the FAULTS_SEED test override.
package faults

import (
	"math/rand"
	"sync"
	"time"

	"accelring/internal/evs"
)

// Class selects frame classes a rule applies to, as a bitmask.
type Class uint8

const (
	// ClassData matches data-channel frames (multicasts: application data
	// and membership joins/commits sent to all).
	ClassData Class = 1 << iota
	// ClassToken matches token-channel frames (unicasts).
	ClassToken

	// ClassAll matches every frame.
	ClassAll = ClassData | ClassToken
)

// Packet is the injector's view of one frame about to be delivered (or
// sent) on some path. Frame is read-only.
type Packet struct {
	// From and To identify the link's endpoints.
	From, To evs.ProcID
	// Token reports the frame class (token channel vs data channel).
	Token bool
	// Size is the frame (or modeled wire) size in bytes.
	Size int
	// Frame is the encoded frame, for content-sensitive predicates.
	Frame []byte
}

// Class returns the packet's frame class as a bitmask value.
func (p Packet) Class() Class {
	if p.Token {
		return ClassToken
	}
	return ClassData
}

// Decision is the injector's verdict for one packet. The zero value means
// "deliver one copy immediately".
type Decision struct {
	// Drop discards the packet (Extra copies created by earlier rules are
	// discarded with it).
	Drop bool
	// Delay defers the primary copy's delivery. Deliveries are not
	// re-serialized afterwards, so delayed packets reorder.
	Delay time.Duration
	// Extra holds the delivery delays of duplicated copies.
	Extra []time.Duration
}

// Model is one fault behavior. Apply folds the model's effect for packet p
// into d and returns the result. rng is the owning rule's private
// deterministic stream; Apply runs under the Injector's lock, so stateful
// models need no extra synchronization of their per-rule state.
type Model interface {
	Apply(rng *rand.Rand, p Packet, d Decision) Decision
}

// Rule applies a Model to the packets selected by its match clauses.
type Rule struct {
	// Name labels the rule in counters (defaults to "rule<i>").
	Name string
	// From and To restrict the rule to one sender / one receiver; zero
	// matches any.
	From, To evs.ProcID
	// Classes restricts the frame classes; zero means ClassAll.
	Classes Class
	// After and Until bound the rule's activity window, measured from the
	// injector's start. Zero After means "from the beginning"; zero Until
	// means "forever".
	After, Until time.Duration
	// Match, when set, is an additional custom predicate.
	Match func(p Packet) bool
	// Model is the fault behavior applied to matched packets.
	Model Model
}

func (r *Rule) matches(now time.Duration, p Packet) bool {
	if now < r.After || (r.Until > 0 && now >= r.Until) {
		return false
	}
	if r.From != 0 && r.From != p.From {
		return false
	}
	if r.To != 0 && r.To != p.To {
		return false
	}
	if c := r.Classes; c != 0 && c&p.Class() == 0 {
		return false
	}
	return r.Match == nil || r.Match(p)
}

// Plan is an ordered set of fault rules.
type Plan struct {
	Rules []Rule
}

// Add appends a rule and returns the plan for chaining.
func (pl *Plan) Add(r Rule) *Plan {
	pl.Rules = append(pl.Rules, r)
	return pl
}

// Loss drops each matched packet independently with probability P.
type Loss struct {
	// P is the drop probability in [0, 1].
	P float64
}

// Apply implements Model.
func (l Loss) Apply(rng *rand.Rand, _ Packet, d Decision) Decision {
	if rng.Float64() < l.P {
		d.Drop = true
	}
	return d
}

// GilbertElliott is the classic two-state bursty-loss model: the link
// flips between a good and a bad state with per-packet transition
// probabilities, and drops with a state-dependent probability. It models
// the correlated loss bursts of overflowing switch buffers, which i.i.d.
// loss cannot reproduce. The zero state is good.
type GilbertElliott struct {
	// PGoodBad and PBadGood are the per-packet transition probabilities.
	PGoodBad, PBadGood float64
	// LossGood and LossBad are the drop probabilities in each state
	// (typically LossGood ≈ 0, LossBad ≫ 0).
	LossGood, LossBad float64

	bad bool
}

// Apply implements Model. GilbertElliott is stateful; use one value per
// rule and pass it by pointer.
func (g *GilbertElliott) Apply(rng *rand.Rand, _ Packet, d Decision) Decision {
	if g.bad {
		if rng.Float64() < g.PBadGood {
			g.bad = false
		}
	} else if rng.Float64() < g.PGoodBad {
		g.bad = true
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	if rng.Float64() < p {
		d.Drop = true
	}
	return d
}

// Duplicate re-delivers matched packets: with probability P it creates
// Copies extra copies, each delayed uniformly within Spread (zero Spread
// duplicates back-to-back).
type Duplicate struct {
	// P is the duplication probability in [0, 1].
	P float64
	// Copies is the number of extra copies per duplication (default 1).
	Copies int
	// Spread bounds each copy's extra delivery delay.
	Spread time.Duration
}

// Apply implements Model.
func (du Duplicate) Apply(rng *rand.Rand, _ Packet, d Decision) Decision {
	if rng.Float64() >= du.P {
		return d
	}
	n := du.Copies
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		delay := d.Delay
		if du.Spread > 0 {
			delay += time.Duration(rng.Int63n(int64(du.Spread)))
		}
		d.Extra = append(d.Extra, delay)
	}
	return d
}

// Delay defers each matched packet by a uniform random duration in
// [Min, Max]. Because copies are not re-serialized, delayed packets
// overtake undelayed ones — UDP reordering.
type Delay struct {
	Min, Max time.Duration
}

// Apply implements Model.
func (dl Delay) Apply(rng *rand.Rand, _ Packet, d Decision) Decision {
	delay := dl.Min
	if span := dl.Max - dl.Min; span > 0 {
		delay += time.Duration(rng.Int63n(int64(span) + 1))
	}
	if delay > 0 {
		d.Delay += delay
	}
	return d
}

// Partition drops packets crossing a partition: symmetric sides (packets
// cross only within a side) plus asymmetric one-way link cuts. It is
// mutable at runtime — tests and the chaos harness split and heal the
// network while traffic flows — and safe for concurrent use.
type Partition struct {
	mu      sync.Mutex
	side    map[evs.ProcID]int
	blocked map[[2]evs.ProcID]bool
}

// NewPartition returns a healed partition (everything connected).
func NewPartition() *Partition { return &Partition{} }

// Split assigns each participant a side; packets cross only between
// participants on the same side. Participants absent from the map are on
// side zero. The map is copied.
func (pa *Partition) Split(sides map[evs.ProcID]int) {
	cp := make(map[evs.ProcID]int, len(sides))
	for id, s := range sides {
		cp[id] = s
	}
	pa.mu.Lock()
	pa.side = cp
	pa.mu.Unlock()
}

// Heal reconnects everything: sides collapse to one and all one-way
// blocks are lifted.
func (pa *Partition) Heal() {
	pa.mu.Lock()
	pa.side = nil
	pa.blocked = nil
	pa.mu.Unlock()
}

// Block cuts the directed link from → to (asymmetric loss: from's packets
// never reach to, while to's packets still reach from).
func (pa *Partition) Block(from, to evs.ProcID) {
	pa.mu.Lock()
	if pa.blocked == nil {
		pa.blocked = make(map[[2]evs.ProcID]bool)
	}
	pa.blocked[[2]evs.ProcID{from, to}] = true
	pa.mu.Unlock()
}

// Unblock lifts a directed cut.
func (pa *Partition) Unblock(from, to evs.ProcID) {
	pa.mu.Lock()
	delete(pa.blocked, [2]evs.ProcID{from, to})
	pa.mu.Unlock()
}

// Apply implements Model.
func (pa *Partition) Apply(_ *rand.Rand, p Packet, d Decision) Decision {
	pa.mu.Lock()
	cross := pa.side[p.From] != pa.side[p.To] || pa.blocked[[2]evs.ProcID{p.From, p.To}]
	pa.mu.Unlock()
	if cross {
		d.Drop = true
	}
	return d
}
