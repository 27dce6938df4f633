package simproc

import (
	"fmt"

	"accelring/internal/core"
	"accelring/internal/evs"
	"accelring/internal/flowcontrol"
	"accelring/internal/obs"
	"accelring/internal/simnet"
	"accelring/internal/wire"
)

// Options configures a simulated cluster: one participant per fabric host,
// a static ring over all of them, and a common implementation profile.
type Options struct {
	// Fabric is the network model (GigabitFabric / TenGigFabric presets).
	Fabric simnet.Config
	// Profile is the implementation cost model.
	Profile Profile
	// Windows are the protocol's flow-control parameters.
	Windows flowcontrol.Windows
	// Priority is the token-priority method; zero defaults per protocol
	// variant (aggressive for accelerated, conservative for original).
	Priority core.PriorityMethod
	// DelayedRequests selects the accelerated retransmission rule.
	DelayedRequests bool
	// DataSockBytes is the data socket buffer per node (default 4 MiB).
	DataSockBytes int
	// TokenSockBytes is the token socket buffer per node (default 64 KiB).
	TokenSockBytes int
	// SubmitHighWater pauses client ingestion while the engine queue is at
	// or above it (default 4× Personal window).
	SubmitHighWater int
	// Observer, when non-nil, supplies a per-node RingObserver for event
	// recording and metrics (node is the zero-based cluster index; return
	// nil to leave that node unobserved). Observers must have a nil or
	// simulation-derived Clock to keep the run deterministic: with a nil
	// Clock durations read as zero but counts and traces are exact;
	// ringtrace -follow installs a Sim.Now-derived clock for exact
	// virtual timestamps.
	Observer func(node int) *obs.RingObserver
}

// AcceleratedOptions returns Options for the Accelerated Ring protocol on
// the given fabric and profile.
func AcceleratedOptions(fabric simnet.Config, prof Profile, personal, global, accelerated int) Options {
	return Options{
		Fabric:  fabric,
		Profile: prof,
		Windows: flowcontrol.Windows{
			Personal: personal, Global: global, Accelerated: accelerated,
		},
		Priority:        core.PriorityAggressive,
		DelayedRequests: true,
	}
}

// OriginalOptions returns Options for the original Ring protocol on the
// given fabric and profile.
func OriginalOptions(fabric simnet.Config, prof Profile, personal, global int) Options {
	return Options{
		Fabric:   fabric,
		Profile:  prof,
		Windows:  flowcontrol.Windows{Personal: personal, Global: global},
		Priority: core.PriorityConservative,
	}
}

// Cluster is a simulated deployment: N nodes on one switch running the
// ring protocol over a static membership.
type Cluster struct {
	Sim   *simnet.Sim
	Net   *simnet.Network
	Nodes []*Node
	Ring  evs.Configuration
	opts  Options
}

// NewCluster builds the cluster and injects the initial token at the
// representative (node 0) at time zero. Node i has participant ID i+1.
func NewCluster(opts Options) (*Cluster, error) {
	nn := opts.Fabric.Nodes
	if nn < 1 {
		return nil, fmt.Errorf("simproc: fabric has %d nodes", nn)
	}
	if opts.DataSockBytes == 0 {
		opts.DataSockBytes = 4 << 20
	}
	if opts.TokenSockBytes == 0 {
		opts.TokenSockBytes = 64 << 10
	}
	if opts.SubmitHighWater == 0 {
		opts.SubmitHighWater = 4 * opts.Windows.Personal
	}

	members := make([]evs.ProcID, nn)
	for i := range members {
		members[i] = evs.ProcID(i + 1)
	}
	ring := evs.NewConfiguration(evs.ViewID{Rep: members[0], Seq: 1}, members)

	sim := simnet.NewSim()
	c := &Cluster{Sim: sim, Ring: ring, opts: opts}
	net, err := simnet.NewNetwork(sim, opts.Fabric, func(to simnet.NodeID, p *simnet.Packet) {
		c.Nodes[to].ingress(p)
	})
	if err != nil {
		return nil, err
	}
	c.Net = net

	for i := 0; i < nn; i++ {
		pid := members[i]
		node := &Node{
			id:              simnet.NodeID(i),
			pid:             pid,
			sim:             sim,
			net:             net,
			prof:            opts.Profile,
			succ:            simnet.NodeID(i+1) % simnet.NodeID(nn),
			submitHighWater: opts.SubmitHighWater,
		}
		node.tokenQ.cap = opts.TokenSockBytes
		node.dataQ.cap = opts.DataSockBytes
		cfg := core.Config{
			Self:            pid,
			Ring:            ring,
			Windows:         opts.Windows,
			Priority:        opts.Priority,
			DelayedRequests: opts.DelayedRequests,
		}
		if opts.Observer != nil {
			cfg.Observer = opts.Observer(i)
		}
		eng, err := core.New(cfg, node)
		if err != nil {
			return nil, fmt.Errorf("simproc: node %d: %w", i, err)
		}
		node.eng = eng
		c.Nodes = append(c.Nodes, node)
	}

	// Hand the representative the initial token at t=0.
	tok := core.NewInitialToken(ring.ID, 0)
	pkt := &simnet.Packet{
		From:  simnet.NodeID(nn - 1),
		Kind:  wire.FrameToken,
		Wire:  opts.Profile.tokenWire(0),
		Frame: tok.AppendTo(nil),
	}
	sim.At(0, func() { c.Nodes[0].ingress(pkt) })
	return c, nil
}

// SetDeliverHook installs fn as every node's delivery observer.
func (c *Cluster) SetDeliverHook(fn DeliverFn) {
	for _, n := range c.Nodes {
		n.onDeliver = fn
	}
}

// Profile returns the cluster's implementation profile.
func (c *Cluster) Profile() Profile { return c.opts.Profile }

// Options returns the cluster's configuration.
func (c *Cluster) Options() Options { return c.opts }
