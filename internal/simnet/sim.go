// Package simnet is a discrete-event network simulator used to reproduce
// the paper's performance study. It models the testbed's essential
// resources: per-host NICs that serialize packets at line rate, a
// store-and-forward switch with per-output-port drop-tail buffers,
// propagation delay, and per-receiver loss injection. Virtual time is
// nanosecond-resolution and fully deterministic.
package simnet

import (
	"container/heap"
	"fmt"
)

// Time is virtual time in nanoseconds since simulation start.
type Time int64

// Common durations in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

type event struct {
	at  Time
	seq uint64 // FIFO tie-break for simultaneous events
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return e
}

// Sim is the discrete-event scheduler. Events scheduled for the same
// instant run in scheduling order. Sim is not safe for concurrent use; the
// whole simulation is single-threaded and deterministic.
type Sim struct {
	now    Time
	events eventHeap
	seq    uint64
}

// NewSim returns an empty simulation at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn to run at the given virtual time. Scheduling in the past
// (before Now) is a programming error and panics: it would silently break
// causality.
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("simnet: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	heap.Push(&s.events, event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Pending returns the number of scheduled events.
func (s *Sim) Pending() int { return len(s.events) }

// Step runs the next event. It returns false if no events remain.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(event)
	s.now = e.at
	e.fn()
	return true
}

// RunUntil executes every event scheduled at or before deadline, in
// order, and leaves the clock at the deadline whether or not later events
// are pending: a caller that steps in slices and acts between them acts
// at the instant it asked for, never in the past.
func (s *Sim) RunUntil(deadline Time) {
	for len(s.events) > 0 && s.events[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Drain runs events until none remain or the event budget is exhausted.
// It returns the number of events executed. A zero or negative budget
// means no limit.
func (s *Sim) Drain(budget int) int {
	n := 0
	for s.Step() {
		n++
		if budget > 0 && n >= budget {
			break
		}
	}
	return n
}
