package bench

import (
	"math/rand"

	"accelring/internal/evs"
	"accelring/internal/simnet"
	"accelring/internal/simproc"
)

// generator injects the benchmark traffic of the paper's evaluation into
// one simulated cluster node: fixed-size payloads at a fixed rate (for the
// latency-vs-throughput profiles) or as fast as flow control allows (for
// maximum-throughput measurements).
type generator struct {
	sim *simnet.Sim
	// rng drives Poisson arrival jitter. Required.
	rng *rand.Rand
	// payloadSize is the application payload per message (1350 or 8850 in
	// the paper). Must be at least 8 to carry the latency stamp.
	payloadSize int
	service     evs.Service
}

// runRate starts a Poisson stream of msgsPerSec submissions at the node,
// stopping at the given virtual time. Each payload is stamped with its
// injection time for latency measurement.
func (g *generator) runRate(node *simproc.Node, msgsPerSec float64, until simnet.Time) {
	if msgsPerSec <= 0 {
		return
	}
	meanGap := 1e9 / msgsPerSec // ns
	var tick func()
	tick = func() {
		if g.sim.Now() >= until {
			return
		}
		payload := make([]byte, g.payloadSize)
		simproc.StampPayload(payload, g.sim.Now())
		node.Submit(payload, g.service)
		g.sim.After(max(1, simnet.Time(g.rng.ExpFloat64()*meanGap)), tick)
	}
	// Desynchronize senders with a random initial phase.
	g.sim.After(simnet.Time(g.rng.ExpFloat64()*meanGap), tick)
}

// runSaturating keeps the node's client queue topped up so the protocol
// sends as fast as flow control allows: batch submissions are scheduled at
// the refill interval until the given virtual time.
func (g *generator) runSaturating(node *simproc.Node, batch int, every simnet.Time, until simnet.Time) {
	var tick func()
	tick = func() {
		if g.sim.Now() >= until {
			return
		}
		for i := 0; i < batch; i++ {
			payload := make([]byte, g.payloadSize)
			simproc.StampPayload(payload, g.sim.Now())
			node.Submit(payload, g.service)
		}
		g.sim.After(every, tick)
	}
	g.sim.After(0, tick)
}

// spreadRate divides an aggregate payload goodput (bits/s) into a
// per-node message rate for the given payload size.
func spreadRate(aggregateBps float64, payloadBytes, nodes int) float64 {
	if nodes == 0 || payloadBytes == 0 {
		return 0
	}
	return aggregateBps / 8 / float64(payloadBytes) / float64(nodes)
}
