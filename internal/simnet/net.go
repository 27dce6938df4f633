package simnet

import (
	"fmt"
	"time"

	"accelring/internal/evs"
	"accelring/internal/faults"
	"accelring/internal/wire"
)

// NodeID indexes a host attached to the switch (0..Nodes-1).
type NodeID int

// Packet is one frame on the simulated wire. Multicast receivers share the
// Packet and its Frame; both must be treated as read-only.
type Packet struct {
	// From is the sending host.
	From NodeID
	// Kind is the frame type, used by hosts to pick the ingress socket.
	Kind wire.FrameType
	// Wire is the modeled size in bytes on the wire, including whatever
	// header overhead the implementation profile adds. It determines
	// serialization time and buffer occupancy.
	Wire int
	// Frame is the encoded protocol frame.
	Frame []byte
}

// Config describes the modeled fabric: hosts attached to one switch by
// full-duplex links.
type Config struct {
	// Nodes is the number of hosts.
	Nodes int
	// LinkBitsPerSec is the line rate of every link (1e9 or 1e10 in the
	// paper's testbeds).
	LinkBitsPerSec float64
	// PropDelay is the one-way propagation delay of each link, including
	// PHY latency.
	PropDelay Time
	// SwitchLatency is the switch's fixed forwarding latency.
	SwitchLatency Time
	// PortBufBytes is the drop-tail buffer capacity of each switch output
	// port. The paper's acceleration benefit depends on this buffering.
	PortBufBytes int
}

// Validate checks the fabric parameters.
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("simnet: %d nodes", c.Nodes)
	}
	if c.LinkBitsPerSec <= 0 {
		return fmt.Errorf("simnet: link rate %v", c.LinkBitsPerSec)
	}
	if c.PortBufBytes <= 0 {
		return fmt.Errorf("simnet: port buffer %d", c.PortBufBytes)
	}
	if c.PropDelay < 0 || c.SwitchLatency < 0 {
		return fmt.Errorf("simnet: negative latency")
	}
	return nil
}

// GigabitFabric returns the modeled 1 GbE testbed: 8 hosts on a small-
// buffer L2 switch (Catalyst 2960 class).
func GigabitFabric(nodes int) Config {
	return Config{
		Nodes:          nodes,
		LinkBitsPerSec: 1e9,
		PropDelay:      2 * Microsecond,
		SwitchLatency:  4 * Microsecond,
		PortBufBytes:   384 * 1024,
	}
}

// TenGigFabric returns the modeled 10 GbE testbed (Arista 7100T class).
func TenGigFabric(nodes int) Config {
	return Config{
		Nodes:          nodes,
		LinkBitsPerSec: 1e10,
		PropDelay:      1 * Microsecond,
		SwitchLatency:  2 * Microsecond,
		PortBufBytes:   512 * 1024,
	}
}

// DeliverFn receives a packet at a host, after the ingress filter.
type DeliverFn func(to NodeID, p *Packet)

// IngressFilter inspects a packet about to be delivered to a host and
// returns true to drop it. Loss-injection experiments install filters.
type IngressFilter func(to NodeID, p *Packet) bool

// Stats counts network-level activity.
type Stats struct {
	// Sent is the number of packets handed to sender NICs (a multicast
	// counts once).
	Sent uint64
	// Delivered is the number of per-receiver deliveries completed.
	Delivered uint64
	// SwitchDrops counts packets dropped at full switch output ports
	// (per destination).
	SwitchDrops uint64
	// FilterDrops counts packets dropped by the ingress filter or the
	// fault injector (injected loss).
	FilterDrops uint64
	// InjectedDups counts extra per-receiver copies created by the fault
	// injector.
	InjectedDups uint64
	// InjectedDelays counts per-receiver deliveries the fault injector
	// deferred.
	InjectedDelays uint64
}

// Network simulates the hosts' NICs and the switch.
type Network struct {
	sim     *Sim
	cfg     Config
	deliver DeliverFn
	filter  IngressFilter
	inj     *faults.Injector
	injAt   Time // when inj was installed: its rule windows count from here

	// nicFree[i] is when host i's egress link is next idle.
	nicFree []Time
	// portFree[d] / portBytes[d] model the switch output port toward
	// host d.
	portFree  []Time
	portBytes []int

	stats Stats
}

// NewNetwork builds a fabric on the given scheduler. deliver is invoked,
// in virtual time, for every packet that survives queues and filters.
func NewNetwork(sim *Sim, cfg Config, deliver DeliverFn) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if deliver == nil {
		return nil, fmt.Errorf("simnet: nil deliver function")
	}
	return &Network{
		sim:       sim,
		cfg:       cfg,
		deliver:   deliver,
		nicFree:   make([]Time, cfg.Nodes),
		portFree:  make([]Time, cfg.Nodes),
		portBytes: make([]int, cfg.Nodes),
	}, nil
}

// SetIngressFilter installs f as the per-receiver drop hook (nil clears).
func (n *Network) SetIngressFilter(f IngressFilter) { n.filter = f }

// SetInjector installs a fault injector at the per-receiver ingress point
// (nil clears), generalizing the drop-only filter: rules can also delay
// (reordering) and duplicate packets, all in deterministic virtual time.
// Rule windows are measured from the moment of installation. Rules name
// host i as protocol participant i+1.
func (n *Network) SetInjector(in *faults.Injector) {
	n.inj, n.injAt = in, n.sim.Now()
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// serialize returns the time to clock p's bytes onto a link.
func (n *Network) serialize(bytes int) Time {
	return Time(float64(bytes*8) / n.cfg.LinkBitsPerSec * 1e9)
}

// Multicast sends p from its host to every other host: one serialization
// on the sender's link, replication at the switch.
func (n *Network) Multicast(from NodeID, p *Packet) {
	n.egress(from, p, -1)
}

// Unicast sends p from its host to a single destination.
func (n *Network) Unicast(from, to NodeID, p *Packet) {
	if to < 0 || int(to) >= n.cfg.Nodes {
		panic(fmt.Sprintf("simnet: unicast to invalid node %d", to))
	}
	n.egress(from, p, to)
}

// egress serializes p on the sender's link and schedules switch arrival.
// dest == -1 means multicast to all other hosts.
func (n *Network) egress(from NodeID, p *Packet, dest NodeID) {
	if from < 0 || int(from) >= n.cfg.Nodes {
		panic(fmt.Sprintf("simnet: send from invalid node %d", from))
	}
	n.stats.Sent++
	done := max(n.sim.Now(), n.nicFree[from]) + n.serialize(p.Wire)
	n.nicFree[from] = done
	arrive := done + n.cfg.PropDelay + n.cfg.SwitchLatency
	n.sim.At(arrive, func() { n.switchArrive(p, dest) })
}

// switchArrive replicates p to the output ports of its destinations,
// dropping at full ports.
func (n *Network) switchArrive(p *Packet, dest NodeID) {
	if dest >= 0 {
		n.enqueuePort(dest, p)
		return
	}
	for d := 0; d < n.cfg.Nodes; d++ {
		if NodeID(d) == p.From {
			continue
		}
		n.enqueuePort(NodeID(d), p)
	}
}

func (n *Network) enqueuePort(d NodeID, p *Packet) {
	if n.portBytes[d]+p.Wire > n.cfg.PortBufBytes {
		n.stats.SwitchDrops++
		return
	}
	n.portBytes[d] += p.Wire
	done := max(n.sim.Now(), n.portFree[d]) + n.serialize(p.Wire)
	n.portFree[d] = done
	n.sim.At(done, func() {
		n.portBytes[d] -= p.Wire
	})
	n.sim.At(done+n.cfg.PropDelay, func() {
		var dec faults.Decision
		if n.filter != nil && n.filter(d, p) {
			dec.Drop = true
		} else if n.inj != nil {
			dec = n.inj.Decide(time.Duration(n.sim.Now()-n.injAt), faults.Packet{
				From:  evs.ProcID(p.From + 1),
				To:    evs.ProcID(d + 1),
				Token: p.Kind == wire.FrameToken,
				Size:  p.Wire,
				Frame: p.Frame,
			})
		}
		if dec.Drop {
			n.stats.FilterDrops++
			return
		}
		n.deliverCopy(d, p, dec.Delay)
		for _, extra := range dec.Extra {
			n.stats.InjectedDups++
			n.deliverCopy(d, p, extra)
		}
	})
}

// deliverCopy completes one (possibly deferred) delivery of p to d.
// Delayed copies are rescheduled on the event queue, so they arrive after
// packets already in flight — injected reordering.
func (n *Network) deliverCopy(d NodeID, p *Packet, delay time.Duration) {
	if delay > 0 {
		n.stats.InjectedDelays++
		n.sim.After(Time(delay), func() { n.deliverCopy(d, p, 0) })
		return
	}
	n.stats.Delivered++
	n.deliver(d, p)
}
