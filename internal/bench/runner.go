// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation on the simulated testbed. Each figure is a sweep
// of Runs; a Run builds a simulated cluster, offers load, measures delivery
// latency and goodput over a warm measurement window, and returns a Result.
package bench

import (
	"fmt"
	"math/rand"

	"accelring/internal/core"
	"accelring/internal/evs"
	"accelring/internal/ringnode"
	"accelring/internal/simnet"
	"accelring/internal/simproc"
	"accelring/internal/stats"
	"accelring/internal/wire"
)

// Protocol selects the ordering protocol variant under test.
type Protocol int

const (
	// OriginalRing is the Totem-style baseline.
	OriginalRing Protocol = iota + 1
	// AcceleratedRing is the paper's contribution.
	AcceleratedRing
)

func (p Protocol) String() string {
	if p == AcceleratedRing {
		return "accel"
	}
	return "orig"
}

// Windows bundles the flow-control parameters of one run.
type Windows struct {
	Personal, Global, Accelerated int
}

// RunConfig fully describes one measurement point.
type RunConfig struct {
	// Fabric is the simulated network.
	Fabric simnet.Config
	// Profile is the implementation cost model.
	Profile simproc.Profile
	// Protocol selects original vs accelerated.
	Protocol Protocol
	// Windows are the flow-control parameters.
	Windows Windows
	// Service is the delivery level measured.
	Service evs.Service
	// PayloadBytes is the application payload size (1350 or 8850).
	PayloadBytes int
	// OfferedMbps is the aggregate clean-payload injection rate in Mbit/s.
	// Zero means saturating senders (maximum-throughput measurement).
	OfferedMbps float64
	// Warmup and Measure bound the measurement window in virtual time.
	// Zero values default to 50 ms and 200 ms.
	Warmup, Measure simnet.Time
	// DrainGrace is extra virtual time to let in-flight messages finish.
	// Defaults to 100 ms.
	DrainGrace simnet.Time
	// Seed drives workload jitter and loss.
	Seed int64
	// LossPct makes every node drop this percentage of received data
	// packets, independently (the paper's §IV-A4 experiments).
	LossPct float64
	// LossDistance, when positive, makes each node drop LossPct of the
	// data sent by the node LossDistance positions before it on the ring
	// (Figure 13). LossPct must be set too.
	LossDistance int

	// priorityOverride forces a token-priority method regardless of the
	// protocol variant (ablation studies only).
	priorityOverride core.PriorityMethod
	// requestsOverride forces the retransmission-request rule (ablation
	// studies only).
	requestsOverride requestRule
}

// requestRule optionally overrides the retransmission-request horizon.
type requestRule int

const (
	requestDefault requestRule = iota
	// requestImmediate pairs any variant with the original protocol's
	// request-on-sight rule.
	requestImmediate
	// requestDelayed pairs any variant with the accelerated protocol's
	// one-round-late rule.
	requestDelayed
)

func (c *RunConfig) defaults() {
	if c.Warmup == 0 {
		c.Warmup = 50 * simnet.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 200 * simnet.Millisecond
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = 100 * simnet.Millisecond
	}
}

// Result is one measured point.
type Result struct {
	// GoodputMbps is the clean-payload throughput actually ordered and
	// delivered during the measurement window.
	GoodputMbps float64
	// MeanLatencyUs is the mean delivery latency (client to client) in
	// microseconds, over all receivers.
	MeanLatencyUs float64
	// Worst5Us is the mean of the worst 5% of latencies per sender,
	// averaged across senders (the paper's dashed lines).
	Worst5Us float64
	// P99Us is the 99th-percentile latency.
	P99Us float64
	// Delivered is the number of measured deliveries.
	Delivered int
	// Retransmissions counts retransmissions sent during the whole run.
	Retransmissions uint64
	// SwitchDrops and SockDrops count congestion losses during the run.
	SwitchDrops, SockDrops uint64
	// Rounds is the token rounds completed at node 0 during the whole run.
	Rounds uint64
}

// Run executes one measurement point and returns its Result.
func Run(cfg RunConfig) (Result, error) {
	cfg.defaults()
	opts := clusterOptions(cfg)
	c, err := simproc.NewCluster(opts)
	if err != nil {
		return Result{}, fmt.Errorf("bench: %w", err)
	}
	installLoss(c, cfg)

	// Every window counts from the instant the ring formed.
	n := len(c.Nodes)
	wStart := c.Formed + cfg.Warmup
	wEnd := wStart + cfg.Measure

	// Measurement hooks.
	var all stats.Latency
	perSender := make(map[evs.ProcID]*stats.Latency)
	seqSeen := make(map[uint64]struct{})
	var payloadBytes uint64
	hop := cfg.Profile.ClientHop
	c.SetDeliverHook(func(node simnet.NodeID, ev evs.Event, at simnet.Time) {
		m, ok := ev.(evs.Message)
		if !ok {
			return
		}
		// Goodput counts deliveries completed inside the window (a
		// saturated system delivers messages injected long before).
		if node == 0 && at >= wStart && at < wEnd {
			if _, dup := seqSeen[m.Seq]; !dup {
				seqSeen[m.Seq] = struct{}{}
				payloadBytes += uint64(len(m.Payload))
			}
		}
		// Latency tracks messages injected inside the window.
		ts := simproc.PayloadStamp(m.Payload)
		if ts < wStart || ts >= wEnd {
			return
		}
		lat := int64(at + hop - ts)
		all.Add(lat)
		rec := perSender[m.Sender]
		if rec == nil {
			rec = &stats.Latency{}
			perSender[m.Sender] = rec
		}
		rec.Add(lat)
	})

	// Workload.
	until := wEnd
	for i, node := range c.Nodes {
		gen := &generator{
			sim:         c.Sim,
			rng:         rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			payloadSize: cfg.PayloadBytes,
			service:     cfg.Service,
		}
		if cfg.OfferedMbps > 0 {
			rate := spreadRate(cfg.OfferedMbps*1e6, cfg.PayloadBytes, n)
			gen.runRate(node, rate, until)
		} else {
			// Saturating: refill a personal window every half of the time
			// a fully loaded round takes on the wire (2× oversubscribed,
			// enough to never starve without flooding the client queue).
			batch := cfg.Windows.Personal
			roundWire := float64(batch*cfg.PayloadBytes*8*n) / cfg.Fabric.LinkBitsPerSec * 1e9
			every := simnet.Time(roundWire / 2)
			if every < 10*simnet.Microsecond {
				every = 10 * simnet.Microsecond
			}
			gen.runSaturating(node, batch, every, until)
		}
	}

	c.Sim.RunUntil(wEnd + cfg.DrainGrace)

	var res Result
	res.Delivered = all.Count()
	res.MeanLatencyUs = all.Mean() / 1e3
	res.P99Us = float64(all.Percentile(99)) / 1e3
	if len(perSender) > 0 {
		var sum float64
		for _, rec := range perSender {
			sum += rec.WorstMean(0.05)
		}
		res.Worst5Us = sum / float64(len(perSender)) / 1e3
	}
	res.GoodputMbps = stats.Mbps(stats.Rate(payloadBytes, int64(cfg.Measure)))
	netStats := c.Net.Stats()
	res.SwitchDrops = netStats.SwitchDrops
	res.SockDrops = c.SockDrops
	for _, node := range c.Nodes {
		res.Retransmissions += node.Engine().Counters().Retransmitted
	}
	res.Rounds = c.Nodes[0].Engine().Counters().Rounds
	return res, nil
}

func clusterOptions(cfg RunConfig) simproc.Options {
	w := cfg.Windows
	ring := ringnode.Original(0, nil, w.Personal, w.Global)
	if cfg.Protocol == AcceleratedRing {
		ring = ringnode.Accelerated(0, nil, w.Personal, w.Global, w.Accelerated)
	}
	if cfg.priorityOverride != 0 {
		ring.Priority = cfg.priorityOverride
	}
	switch cfg.requestsOverride {
	case requestImmediate:
		ring.DelayedRequests = false
	case requestDelayed:
		ring.DelayedRequests = true
	}
	return simproc.Options{Fabric: cfg.Fabric, Profile: cfg.Profile, Ring: ring}
}

// installLoss wires the configured loss model into the fabric's ingress.
func installLoss(c *simproc.Cluster, cfg RunConfig) {
	if cfg.LossPct <= 0 {
		return
	}
	n := len(c.Nodes)
	if cfg.LossDistance > 0 {
		// Positional loss: node i drops LossPct of data sent by the node
		// LossDistance positions before it in ring order.
		d := cfg.LossDistance
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x10c5))
		c.Net.SetIngressFilter(func(to simnet.NodeID, p *simnet.Packet) bool {
			if p.Kind == wire.FrameToken {
				// The paper's loss experiments drop only data messages:
				// token loss is rare (separate socket) and handled by
				// membership, which is identical for both protocols.
				return false
			}
			loser := int(to)
			sender := (loser - d + n) % n
			if int(p.From) != sender {
				return false
			}
			return rng.Float64()*100 < cfg.LossPct
		})
		return
	}
	// Uniform loss: every node drops LossPct of received data packets,
	// independently. A datagram spanning multiple network frames (payloads
	// above the 1500-byte MTU, kernel-fragmented per §IV-A3) is lost if
	// ANY of its frames is lost, so its effective drop probability is
	// 1-(1-p)^frames.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x10c5))
	c.Net.SetIngressFilter(func(to simnet.NodeID, p *simnet.Packet) bool {
		if p.Kind == wire.FrameToken {
			return false
		}
		frames := (p.Wire + 1499) / 1500
		pSurvive := 1.0
		for i := 0; i < frames; i++ {
			pSurvive *= 1 - cfg.LossPct/100
		}
		return rng.Float64() >= pSurvive
	})
}
