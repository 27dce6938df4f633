package main

import (
	"fmt"
	"net"
	"time"

	"accelring/internal/client"
	"accelring/internal/daemon"
	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/transport"
)

const (
	numDaemons = 3
	numClients = 2 // one on daemon 1, one on daemon 2; daemon 3 is a client-less ring member

	// The traced pass samples one message in traceEvery, the cadence
	// ringdaemon -trace-sample documents; the buffer is deep enough that a
	// fold every traceFoldEvery loses no span at saturation.
	traceEvery     = 64
	traceDepth     = 4096
	traceFoldEvery = 100 * time.Millisecond
)

// stack is the system under test: the real daemons at their default
// configuration on loopback UDP, and two client connections over TCP.
type stack struct {
	wl      workload
	daemons []*daemon.Daemon
	udps    []*transport.UDP // every ring endpoint of every daemon
	clients []*client.Client
	subs    []*subscriber

	fill []byte // the payload fill block generators copy from and subscribers verify against

	// A traced stack hands the daemons registries and message tracers.
	traced bool
	regs   []*obs.Registry // one per daemon, as separate processes would have
	agg    *obs.LatencyAgg // set by foldSpans

	base     time.Time     // start of construction; every time of a pass is an offset from it
	setup    time.Duration // base -> both clients see the full view of every group
	formRing time.Duration // base -> every ring holds all daemons
}

// startStack brings the whole system up and returns once both clients
// have joined every group of the workload and seen each other there.
// span is how long a pass the delivery logs must hold (zero: set-up only).
func startStack(wl workload, traced bool, fill []byte, span time.Duration) (*stack, error) {
	s := &stack{wl: wl, traced: traced, fill: fill, base: time.Now()}
	ok := false
	defer func() {
		if !ok {
			s.stop()
			s.free()
		}
	}()

	if wl.shards > 1 && group.RingOf(wl.groups[0], wl.shards) == group.RingOf(wl.groups[1], wl.shards) {
		return nil, fmt.Errorf("groups %v hash onto one ring", wl.groups)
	}

	// endpoints[i][r] is daemon i's socket pair on ring r; every ring is
	// its own fully cross-wired unicast mesh.
	endpoints := make([][]*transport.UDP, numDaemons)
	for i := range endpoints {
		for r := 0; r < wl.shards; r++ {
			u, err := transport.NewUDP(transport.UDPConfig{
				Self:   evs.ProcID(i + 1),
				Listen: transport.UDPPeer{Data: "127.0.0.1:0", Token: "127.0.0.1:0"},
			})
			if err != nil {
				return nil, fmt.Errorf("open udp: %w", err)
			}
			endpoints[i] = append(endpoints[i], u)
			s.udps = append(s.udps, u)
		}
	}
	for i := range endpoints {
		for r, u := range endpoints[i] {
			for j := range endpoints {
				if i == j {
					continue
				}
				if err := u.AddPeer(evs.ProcID(j+1), endpoints[j][r].LocalAddrs()); err != nil {
					return nil, fmt.Errorf("add peer: %w", err)
				}
			}
		}
	}

	// One tracer for a whole single ring, so a span crosses daemons (the
	// wire stage needs the send and the receive in one buffer). A sharded
	// daemon derives its own per-ring tracers from the template.
	var ringTracer *obs.MsgTracer
	if traced {
		ringTracer = obs.NewMsgTracer(traceEvery, traceDepth)
	}
	for i := 0; i < numDaemons; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		id := evs.ProcID(i + 1)
		cfg := daemon.Config{Listener: ln}
		if wl.shards > 1 {
			mine := endpoints[i]
			cfg.Ring = ringnode.Accelerated(id, nil, 20, 160, 15)
			cfg.Shards = wl.shards
			cfg.NewTransport = func(ring int) (transport.Transport, error) { return mine[ring], nil }
		} else {
			cfg.Ring = ringnode.Accelerated(id, endpoints[i][0], 20, 160, 15)
		}
		if traced {
			reg := obs.NewRegistry()
			s.regs = append(s.regs, reg)
			cfg.Obs = reg
			cfg.Ring.Observer = &obs.RingObserver{Reg: reg, Msg: ringTracer}
		}
		d, err := daemon.Start(cfg)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("start daemon %d: %w", id, err)
		}
		s.daemons = append(s.daemons, d)
	}
	if err := waitFormed(s.nodes(), 15*time.Second); err != nil {
		return nil, err
	}
	s.formRing = time.Since(s.base)

	for i := 0; i < numClients; i++ {
		ccfg := client.Config{Addr: s.daemons[i].Addr().String(), Name: fmt.Sprintf("bench%d", i)}
		if traced {
			// The client closes the spans its own daemon opened. It can
			// hold one tracer, so on the sharded workload it follows the
			// ring of the first (heavier) group.
			ccfg.Tracer = s.daemons[i].RingNode(group.RingOf(wl.groups[0], wl.shards)).Observer().MsgTracer()
		}
		c, err := client.DialWith(ccfg)
		if err != nil {
			return nil, fmt.Errorf("dial daemon %d: %w", i+1, err)
		}
		s.clients = append(s.clients, c)
		log, err := newReclog(recvRecSize, span, logRate)
		if err != nil {
			c.Close()
			return nil, err
		}
		s.subs = append(s.subs, newSubscriber(i, c, wl, s.base, fill, log))
	}
	for _, c := range s.clients {
		for _, g := range wl.groups {
			if err := c.Join(g); err != nil {
				return nil, fmt.Errorf("join %s: %w", g, err)
			}
		}
	}
	for _, sub := range s.subs {
		if err := sub.waitViews(numClients, 15*time.Second); err != nil {
			return nil, err
		}
	}
	s.setup = time.Since(s.base)

	ok = true
	return s, nil
}

// foldSpans folds the program's sampled spans into one set of stage
// histograms, from now until stop closes. Every tracer feeds the same
// unscoped histograms: the stage figures describe the stack, not one
// daemon.
func (s *stack) foldSpans(stop <-chan struct{}) {
	s.agg = obs.NewLatencyAgg(obs.NewRegistry())
	seen := make(map[*obs.MsgTracer]bool)
	for _, n := range s.nodes() {
		if mt := n.Observer().MsgTracer(); !seen[mt] {
			seen[mt] = true
			s.agg.AddTracer("", mt)
		}
	}
	tick := time.NewTicker(traceFoldEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.agg.Fold()
		case <-stop:
			s.agg.Fold()
			return
		}
	}
}

// waitFormed blocks until every node is operational in a ring of all the
// daemons.
func waitFormed(nodes []*ringnode.Node, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, n := range nodes {
		for st := n.Status(); st.State != membership.StateOperational || len(st.Ring.Members) != numDaemons; st = n.Status() {
			if time.Now().After(deadline) {
				return fmt.Errorf("rings did not form within %v", timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// nodes returns every ring node of the stack, daemon-major.
func (s *stack) nodes() []*ringnode.Node {
	var out []*ringnode.Node
	for _, d := range s.daemons {
		for r := 0; r < s.wl.shards; r++ {
			out = append(out, d.RingNode(r))
		}
	}
	return out
}

// stop closes the clients, then the daemons (which close their sockets),
// and waits for every subscriber goroutine to end.
func (s *stack) stop() {
	for _, c := range s.clients {
		c.Close()
	}
	for _, sub := range s.subs {
		<-sub.done
	}
	for _, d := range s.daemons {
		d.Stop()
	}
	// A daemon owns its endpoints once started; close the ones a failed
	// start-up never handed over. Close is idempotent.
	for _, u := range s.udps {
		u.Close()
	}
}

// free releases the subscribers' delivery logs of a stopped stack.
func (s *stack) free() {
	for _, sub := range s.subs {
		sub.log.free()
	}
}
