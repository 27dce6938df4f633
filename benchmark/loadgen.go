package main

import (
	"math/rand"
	"time"
)

// clock is the generator's view of time, as an offset from the pass's
// origin, so the loops can be driven by a fake in tests.
type clock interface {
	Now() time.Duration
	Sleep(d time.Duration)
}

// sink takes one generated message and blocks for as long as the system
// under test makes the sender wait.
type sink interface {
	Send(id uint64, groupIdx int) error
}

// item is one scheduled open-loop message.
type item struct {
	due      time.Duration
	groupIdx int
}

// sendRec is the generator's boundary span around one Send call.
type sendRec struct {
	due, start, end time.Duration
	groupIdx        uint8
	failed          bool
}

// connSeed gives each connection its own deterministic random stream.
func connSeed(seed int64, conn int) int64 { return seed*1000003 + int64(conn)*7919 + 1 }

// schedule draws one connection's open-loop arrivals one at a time:
// exponential gaps at rate messages per second (a Poisson process) and a
// weighted group choice per message. It is a pure function of its seed,
// and drawing on demand keeps a pass's worth of arrivals off the heap the
// system under test shares.
type schedule struct {
	rng     *rand.Rand
	rate    float64
	weights []int
	sum     int
	t       float64 // seconds
}

func newSchedule(seed int64, conn int, rate float64, weights []int) *schedule {
	s := &schedule{rng: rand.New(rand.NewSource(connSeed(seed, conn))), rate: rate, weights: weights}
	for _, w := range weights {
		s.sum += w
	}
	return s
}

func (s *schedule) next() item {
	s.t += s.rng.ExpFloat64() / s.rate
	g, pick := 0, s.rng.Intn(s.sum)
	for pick >= s.weights[g] {
		pick -= s.weights[g]
		g++
	}
	return item{due: time.Duration(s.t * float64(time.Second)), groupIdx: g}
}

// runOpen sends every message due before until, none skipped: a message
// whose due time has passed goes out at once, so after a stall the
// backlog is sent back to back and each message keeps its own due time.
// Latency is later taken from due, which charges the stall to every
// message it delayed (no coordinated omission).
func runOpen(clk clock, sched *schedule, until time.Duration, snk sink, record func(sendRec)) {
	for id := uint64(0); ; id++ {
		it := sched.next()
		if it.due >= until {
			return
		}
		if now := clk.Now(); now < it.due {
			clk.Sleep(it.due - now)
		}
		start := clk.Now()
		err := snk.Send(id, it.groupIdx)
		record(sendRec{due: it.due, start: start, end: clk.Now(), groupIdx: uint8(it.groupIdx), failed: err != nil})
	}
}

// runClosed sends one message per credit until the clock passes until
// or stop closes (which also ends a sender whose credits were lost with
// undelivered messages). The subscriber side returns a credit when it
// sees one of this sender's own messages delivered, so credits bound the
// messages in flight. A closed-loop message is due when its Send starts.
func runClosed(clk clock, until time.Duration, credits <-chan struct{}, stop <-chan struct{}, snk sink, record func(sendRec)) {
	for id := uint64(0); ; id++ {
		select {
		case <-credits:
		case <-stop:
			return
		}
		start := clk.Now()
		if start >= until {
			return
		}
		err := snk.Send(id, 0)
		record(sendRec{due: start, start: start, end: clk.Now(), failed: err != nil})
	}
}

// wallClock is the real clock, measured from a fixed origin.
type wallClock struct{ origin time.Time }

func (c wallClock) Now() time.Duration    { return time.Since(c.origin) }
func (c wallClock) Sleep(d time.Duration) { time.Sleep(d) }
