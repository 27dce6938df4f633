package main

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"accelring/internal/client"
	"accelring/internal/core"
	"accelring/internal/daemon"
	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/membership"
	"accelring/internal/pack"
	"accelring/internal/ringnode"
	"accelring/internal/session"
	"accelring/internal/shard/merge"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// The ladder times each layer's public functions alone, a fixed number
// of times, with the workload's own message shape. A rung is not a model
// of the layer inside the stack — no contention, warm caches — it is the
// floor under the layer's share of cpu_us_per_msg and allocs_per_msg, and
// the first place a change to that layer shows.

// rungSpec is one rung: what it is called, how many messages it
// processes (-quick divides that by 20; the whole ladder is sized to take
// about three seconds), which metrics it yields, and whether the
// workload's traffic enters the layer at all.
type rungSpec struct {
	name       string
	iters      int
	ns, allocs string              // metric names; allocs may be empty, and a shared name is summed
	applies    func(workload) bool // nil: always
	run        func(wl workload, n int) (ns, allocs float64, err error)
}

var ladder = []rungSpec{
	{name: "core.handle_data", iters: 400000, ns: "core.handle_data_ns", allocs: "core.ladder_allocs", run: timed(rungHandleData)},
	{name: "core.token_round", iters: 400000, ns: "core.token_round_ns", allocs: "core.ladder_allocs", run: timed(rungTokenRound)},
	{name: "wire", iters: 400000, ns: "wire.data_roundtrip_ns", allocs: "wire.data_roundtrip_allocs", run: timed(rungWire)},
	// Only a payload several of which fit one bundle can be packed.
	{name: "pack", iters: 400000, ns: "pack.add_flush_each_ns", run: timed(rungPack),
		applies: func(wl workload) bool { return wl.size*2 <= pack.DefaultLimit }},
	{name: "group", iters: 400000, ns: "group.envelope_roundtrip_ns", allocs: "group.envelope_roundtrip_allocs", run: timed(rungGroup)},
	{name: "session", iters: 200000, ns: "session.frame_roundtrip_ns", allocs: "session.frame_roundtrip_allocs", run: timed(rungSession)},
	{name: "merge", iters: 200000, ns: "merge.push_emit_ns", allocs: "merge.push_emit_allocs", run: timed(rungMerge),
		applies: func(wl workload) bool { return wl.shards > 1 }},
	{name: "transport", iters: 40000, ns: "transport.udp_frame_ns", allocs: "transport.udp_frame_allocs", run: ladderUDP},
	{name: "ringnode", iters: 80000, ns: "ringnode.ordered_msg_ns", allocs: "ringnode.ordered_msg_allocs", run: ladderRingnode},
	{name: "daemon", iters: 40000, ns: "daemon.delivered_msg_ns", allocs: "daemon.delivered_msg_allocs", run: ladderDaemon},
}

const (
	ladderUDPBurst    = 16 // frames in flight between the two loopback sockets
	ladderOutstanding = 64 // messages in flight on the ringnode and daemon rungs, as the closed-loop workloads keep
)

// runLadder measures every rung and returns the figures by metric name.
// A rung of a layer the workload's traffic never enters reads 0.
func runLadder(wl workload, scale int) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, r := range ladder {
		var ns, allocs float64
		if r.applies == nil || r.applies(wl) {
			var err error
			if ns, allocs, err = r.run(wl, max(r.iters/scale, 1)); err != nil {
				return nil, fmt.Errorf("ladder %s: %w", r.name, err)
			}
		}
		out[r.ns] = ns
		if r.allocs != "" {
			out[r.allocs] += allocs
		}
	}
	return out, nil
}

// rung runs fn over n messages and returns wall nanoseconds and heap
// allocations per message. Allocations are the whole process's: nothing
// else runs during the ladder.
func rung(n int, fn func(n int) error) (ns, allocs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = fn(n)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), err
}

// timed makes a rung of a function that is all measured work.
func timed(fn func(wl workload, n int) error) func(workload, int) (float64, float64, error) {
	return func(wl workload, n int) (float64, float64, error) {
		return rung(n, func(n int) error { return fn(wl, n) })
	}
}

// nullOut discards the engine's effects, keeping the last token so a
// single-member ring can be fed its own token back.
type nullOut struct {
	tok wire.Token
	rtr []uint64
}

func (o *nullOut) SendToken(t *wire.Token) {
	o.rtr = append(o.rtr[:0], t.Rtr...)
	o.tok = *t
	o.tok.Rtr = o.rtr
}
func (o *nullOut) Multicast(*wire.Data) {}
func (o *nullOut) Deliver(evs.Message)  {}

func ringOf(ids ...evs.ProcID) evs.Configuration {
	return evs.NewConfiguration(evs.ViewID{Rep: ids[0], Seq: 1}, ids)
}

// rungHandleData is core's receive path for one message.
func rungHandleData(wl workload, n int) error {
	ring := ringOf(1, 2)
	eng, err := core.New(core.Accelerated(2, ring, 64, 10000, 32), &nullOut{})
	if err != nil {
		return err
	}
	payload := make([]byte, wl.size)
	tok := wire.Token{RingID: ring.ID}
	var d wire.Data
	for i := 0; i < n; i++ {
		seq := uint64(i + 1)
		d = wire.Data{RingID: ring.ID, Seq: seq, Sender: 1, Round: 1, Service: wl.service, Payload: payload}
		eng.HandleData(&d)
		if seq%64 == 0 { // a round: everything so far is stable, the buffer drains
			tok.TokenSeq += 2
			tok.Seq, tok.Aru = seq, seq
			eng.HandleToken(&tok)
		}
	}
	return nil
}

// rungTokenRound is a whole token round of a one-member ring — submit,
// send, deliver, discard — per message.
func rungTokenRound(wl workload, n int) error {
	const window = 32
	ring := ringOf(1)
	o := &nullOut{}
	eng, err := core.New(core.Accelerated(1, ring, window, 10000, 16), o)
	if err != nil {
		return err
	}
	payload := make([]byte, wl.size)
	eng.HandleToken(core.NewInitialToken(ring.ID, 0))
	for i := 0; i < n; i += window {
		for k := 0; k < window; k++ {
			if err := eng.Submit(payload, wl.service); err != nil {
				return err
			}
		}
		eng.HandleToken(&o.tok)
	}
	return nil
}

// rungWire encodes and decodes one data frame the way the drivers do.
func rungWire(wl workload, n int) error {
	d := wire.Data{RingID: evs.ViewID{Rep: 1, Seq: 1}, Seq: 1, Sender: 1, Round: 1, Service: wl.service, Payload: make([]byte, wl.size)}
	buf := make([]byte, 0, d.EncodedLen())
	var scratch wire.Data
	for i := 0; i < n; i++ {
		buf = d.AppendTo(buf[:0])
		if err := scratch.DecodeFrom(buf); err != nil {
			return err
		}
	}
	return nil
}

// rungPack bundles small messages to the frame limit and walks them back
// out.
func rungPack(wl workload, n int) error {
	payload := make([]byte, wl.size)
	p := pack.NewPacker(pack.DefaultLimit)
	unpack := func() error {
		if b := p.Flush(); b != nil {
			return pack.Each(b, func([]byte) {})
		}
		return nil
	}
	for i := 0; i < n; i++ {
		ok, err := p.Add(payload)
		if err != nil {
			return err
		}
		if !ok {
			if err := unpack(); err != nil {
				return err
			}
			if _, err := p.Add(payload); err != nil {
				return err
			}
		}
	}
	return unpack()
}

// rungGroup is the envelope every client message travels in.
func rungGroup(wl workload, n int) error {
	env := group.Envelope{Kind: group.OpMessage, Sender: group.ClientID{Daemon: 1, Local: 1}, Groups: wl.groups[:1], Payload: make([]byte, wl.size)}
	for i := 0; i < n; i++ {
		b, err := env.Encode()
		if err != nil {
			return err
		}
		if _, err := group.DecodeEnvelope(b); err != nil {
			return err
		}
	}
	return nil
}

// rungSession is the delivery frame a daemon writes and a client reads.
func rungSession(wl workload, n int) error {
	msg := session.Message{Sender: group.ClientID{Daemon: 1, Local: 1}, Service: wl.service, Groups: wl.groups[:1], Payload: make([]byte, wl.size), Seq: 1}
	var buf []byte
	for i := 0; i < n; i++ {
		var err error
		if buf, err = session.AppendEncode(buf[:0], msg); err != nil {
			return err
		}
		if _, err := session.Decode(buf); err != nil {
			return err
		}
	}
	return nil
}

// rungMerge pushes one envelope on each ring in turn, so every push
// completes an emission.
func rungMerge(wl workload, n int) error {
	sink := &mergeSink{}
	m := merge.New(merge.Config{Shards: wl.shards, Self: 1, Table: group.NewShardedTable(wl.shards), Out: sink})
	payload := make([]byte, wl.size)
	envs := make([]*group.Envelope, wl.shards)
	for _, g := range wl.groups {
		envs[group.RingOf(g, wl.shards)] = &group.Envelope{Kind: group.OpMessage, Sender: group.ClientID{Daemon: 1, Local: 1}, Groups: []string{g}, Payload: payload}
	}
	for i := 0; i < n; i++ {
		r := i % wl.shards
		m.PushEnvelopeSeq(r, envs[r], wl.service, uint64(i))
	}
	if sink.delivered < n-wl.shards {
		return fmt.Errorf("merger emitted %d of %d envelopes", sink.delivered, n)
	}
	return nil
}

type mergeSink struct{ delivered int }

func (s *mergeSink) Deliver(int, *group.Envelope, evs.Service, uint64) { s.delivered++ }
func (s *mergeSink) Config(int, evs.ConfigChange)                      {}
func (s *mergeSink) SubmitAsync(int, group.Envelope)                   {}
func (s *mergeSink) Migrated(string, int, int)                         {}

// ladderUDP sends encoded data frames between two loopback sockets, a
// small burst at a time so the receive buffer never overflows.
func ladderUDP(wl workload, n int) (ns, allocs float64, err error) {
	var eps [2]*transport.UDP
	for i := range eps {
		eps[i], err = transport.NewUDP(transport.UDPConfig{
			Self:   evs.ProcID(i + 1),
			Listen: transport.UDPPeer{Data: "127.0.0.1:0", Token: "127.0.0.1:0"},
		})
		if err != nil {
			return 0, 0, err
		}
		defer eps[i].Close()
	}
	if err := eps[0].AddPeer(2, eps[1].LocalAddrs()); err != nil {
		return 0, 0, err
	}
	d := wire.Data{RingID: evs.ViewID{Rep: 1, Seq: 1}, Seq: 1, Sender: 1, Round: 1, Service: wl.service, Payload: make([]byte, wl.size)}
	frame := d.AppendTo(nil)
	const burst = ladderUDPBurst
	return rung(n, func(n int) error {
		timeout := time.NewTimer(10 * time.Second)
		defer timeout.Stop()
		for sent := 0; sent < n; sent += burst {
			for k := 0; k < burst; k++ {
				if err := eps[0].Multicast(frame); err != nil {
					return err
				}
			}
			for k := 0; k < burst; k++ {
				select {
				case <-eps[1].Data():
				case <-timeout.C:
					return fmt.Errorf("loopback dropped a frame after %d sent", sent)
				}
			}
		}
		return nil
	})
}

// ladderTimeouts form the in-process rings quickly. The steady state a
// rung measures does not depend on them.
func ladderTimeouts() membership.Timeouts {
	t := membership.DefaultTimeouts()
	t.JoinInterval, t.Gather, t.Commit = 5*time.Millisecond, 25*time.Millisecond, 50*time.Millisecond
	return t
}

// ladderRingnode orders messages through three ring nodes on the
// in-process hub: Submit at node 1, a fixed number in flight, until every
// node's OnEvent has seen them all. It is the protocol driver without
// sockets or clients.
func ladderRingnode(wl workload, n int) (ns, allocs float64, err error) {
	hub := transport.NewHub()
	defer hub.Close()
	var delivered [numDaemons]atomic.Int64
	credits := make(chan struct{}, ladderOutstanding)
	var nodes []*ringnode.Node
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	for i := 0; i < numDaemons; i++ {
		i := i
		ep, err := hub.Endpoint(evs.ProcID(i+1), 0, 0)
		if err != nil {
			return 0, 0, err
		}
		cfg := ringnode.Accelerated(evs.ProcID(i+1), ep, 20, 160, 15)
		cfg.Timeouts = ladderTimeouts()
		cfg.OnEvent = func(ev evs.Event) {
			if _, ok := ev.(evs.Message); ok {
				delivered[i].Add(1)
				if i == 0 {
					credits <- struct{}{} // never blocks: one credit per message in flight
				}
			}
		}
		nd, err := ringnode.Start(cfg)
		if err != nil {
			return 0, 0, err
		}
		nodes = append(nodes, nd)
	}
	if err := waitFormed(nodes, 10*time.Second); err != nil {
		return 0, 0, err
	}
	payload := make([]byte, wl.size)
	return rung(n, func(n int) error {
		timeout := time.NewTimer(20 * time.Second)
		defer timeout.Stop()
		for i := 0; i < n; i++ {
			if i >= ladderOutstanding {
				select {
				case <-credits:
				case <-timeout.C:
					return fmt.Errorf("node 1 delivered %d of %d", delivered[0].Load(), n)
				}
			}
			if err := nodes[0].Submit(payload, wl.service); err != nil {
				return err
			}
		}
		return waitCounts(delivered[:], n, timeout.C)
	})
}

// waitCounts blocks until every counter has reached n.
func waitCounts(counts []atomic.Int64, n int, timeout <-chan time.Time) error {
	for i := range counts {
		for counts[i].Load() < int64(n) {
			select {
			case <-timeout:
				return fmt.Errorf("receiver %d saw %d of %d", i, counts[i].Load(), n)
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	return nil
}

// ladderDaemon is the stack minus UDP: three daemons on the in-process
// hub, TCP clients placed as in the workloads, one publisher keeping a
// fixed number of messages in flight.
func ladderDaemon(wl workload, n int) (ns, allocs float64, err error) {
	hubs := make([]*transport.Hub, wl.shards)
	for r := range hubs {
		hubs[r] = transport.NewHub()
		defer hubs[r].Close()
	}
	var daemons []*daemon.Daemon
	var clients []*client.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
		for _, d := range daemons {
			d.Stop()
		}
	}()
	for i := 0; i < numDaemons; i++ {
		id := evs.ProcID(i + 1)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, 0, err
		}
		cfg := daemon.Config{Listener: ln, Shards: wl.shards}
		cfg.Ring = ringnode.Accelerated(id, nil, 20, 160, 15)
		cfg.Ring.Timeouts = ladderTimeouts()
		if wl.shards > 1 {
			cfg.NewTransport = func(ring int) (transport.Transport, error) { return hubs[ring].Endpoint(id, 0, 0) }
		} else if cfg.Ring.Transport, err = hubs[0].Endpoint(id, 0, 0); err != nil {
			ln.Close()
			return 0, 0, err
		}
		d, err := daemon.Start(cfg)
		if err != nil {
			ln.Close()
			return 0, 0, err
		}
		daemons = append(daemons, d)
	}
	var nodes []*ringnode.Node
	for _, d := range daemons {
		for r := 0; r < wl.shards; r++ {
			nodes = append(nodes, d.RingNode(r))
		}
	}
	if err := waitFormed(nodes, 10*time.Second); err != nil {
		return 0, 0, err
	}

	// Both clients subscribe; the first also publishes, and gets a credit
	// back for each of its own messages it sees delivered.
	var received [numClients]atomic.Int64
	credits := make(chan struct{}, ladderOutstanding)
	joined := make(chan struct{}, numClients*len(wl.groups))
	for i := 0; i < numClients; i++ {
		i := i
		c, err := client.Dial("tcp", daemons[i].Addr().String(), fmt.Sprintf("ladder%d", i))
		if err != nil {
			return 0, 0, err
		}
		clients = append(clients, c)
		go func() {
			for ev := range c.Events() {
				switch v := ev.(type) {
				case *client.Message:
					received[i].Add(1)
					if i == 0 {
						credits <- struct{}{}
					}
				case *client.View:
					if len(v.Members) == numClients {
						joined <- struct{}{}
					}
				}
			}
		}()
	}
	for _, c := range clients {
		for _, g := range wl.groups {
			if err := c.Join(g); err != nil {
				return 0, 0, err
			}
		}
	}
	for i := 0; i < cap(joined); i++ {
		select {
		case <-joined:
		case <-time.After(10 * time.Second):
			return 0, 0, fmt.Errorf("ladder clients did not see each other")
		}
	}

	payload := make([]byte, wl.size)
	return rung(n, func(n int) error {
		timeout := time.NewTimer(20 * time.Second)
		defer timeout.Stop()
		for i := 0; i < n; i++ {
			if i >= ladderOutstanding {
				select {
				case <-credits:
				case <-timeout.C:
					return fmt.Errorf("publisher saw %d of %d delivered", received[0].Load(), n)
				}
			}
			if err := clients[0].Multicast(wl.service, payload, wl.groups[i%len(wl.groups)]); err != nil {
				return err
			}
		}
		return waitCounts(received[:], n, timeout.C)
	})
}
