package simproc

import (
	"cmp"
	"fmt"
	"time"

	"accelring/internal/evs"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/simnet"
)

const (
	// tokenSockBytes is every node's token socket buffer.
	tokenSockBytes = 64 << 10
	// submitHighWater pauses client ingestion while the engine queue holds
	// this many Personal windows (session-level flow control).
	submitHighWater = 4
	// tickEvery is the membership timer period. tickPhase staggers each
	// process's timer phase and tickSkew its period. With identical phases
	// and periods a whole cluster's membership timers fire at the same
	// instants forever — a lockstep symmetry no real deployment has
	// (independent clocks always skew and drift), under which competing
	// gather rounds can collide, expire, and retry in unison indefinitely.
	// Distinct periods make the relative phases precess, so no periodic
	// orbit is stable. restartPhase further shifts a restarted process's
	// timers.
	tickEvery    = 5 * time.Millisecond
	tickPhase    = 700 * time.Microsecond
	tickSkew     = 17 * time.Microsecond
	restartPhase = 311 * time.Microsecond
	// formLimit bounds the virtual time NewCluster waits for its ring.
	formLimit = 10 * simnet.Second
)

// timeouts are the membership timers of a template that leaves them zero:
// a fabric forms its ring within two ticks, a token is declared lost only
// far beyond any round the figures run, and beacons stay out of the
// measurement windows.
var timeouts = membership.Timeouts{
	JoinInterval:    2 * time.Millisecond,
	Gather:          10 * time.Millisecond,
	Commit:          20 * time.Millisecond,
	TokenLoss:       100 * time.Millisecond,
	TokenRetransmit: 30 * time.Millisecond,
	Beacon:          time.Second,
}

// epoch is the wall time of simulator time zero.
var epoch = time.Unix(1000, 0)

// Wall returns the steps' clock reading at virtual time t: the simulated
// hosts run on epoch + Sim.Now().
func Wall(t simnet.Time) time.Time { return epoch.Add(time.Duration(t)) }

// Options configures a simulated cluster: one participant per fabric host
// and a common implementation profile.
type Options struct {
	// Fabric is the network model (GigabitFabric / TenGigFabric presets).
	Fabric simnet.Config
	// Profile is the implementation cost model.
	Profile Profile
	// Ring is every participant's protocol configuration, built by
	// ringnode.Accelerated or ringnode.Original; each node fills in Self
	// and its own OnEvent, and the host sends (Transport is ignored).
	// Zero Timeouts take the simulator's.
	Ring ringnode.Config
	// DataSockBytes is the data socket buffer per node (default 4 MiB).
	DataSockBytes int
	// Observer, when non-nil, supplies the RingObserver of each process
	// boot (node is the zero-based cluster index; return nil to leave it
	// unobserved). A nil Clock gets the simulated one, so the run stays
	// deterministic and timestamps are exact virtual times.
	Observer func(node int) *obs.RingObserver
}

// Cluster is a simulated deployment: N nodes on one switch, each running
// the protocol step through membership.
type Cluster struct {
	Sim *simnet.Sim
	Net *simnet.Network
	// Nodes holds each host's running process; a killed host's entry is
	// nil until it restarts.
	Nodes []*Node
	// Formed is the instant NewCluster saw one ring of all nodes
	// operational; measurements count from it.
	Formed simnet.Time
	// SockDrops counts the frames lost to a full socket, at every process
	// the cluster has run.
	SockDrops uint64

	opts      Options
	gens      []int
	onDeliver DeliverFn
	holder    func(node simnet.NodeID) ringnode.Holder
}

// NewCluster boots the cluster on a fresh simulator and runs it until
// one ring of all its nodes is operational, recorded as Formed. Node i
// has participant ID i+1.
func NewCluster(opts Options) (*Cluster, error) {
	c, err := Boot(simnet.NewSim(), opts)
	if err != nil {
		return nil, err
	}
	for !c.Converged() {
		if !c.Sim.Step() || c.Sim.Now() > formLimit {
			return nil, fmt.Errorf("simproc: %d nodes formed no ring within %v", len(c.Nodes), formLimit)
		}
	}
	c.Formed = c.Sim.Now()
	return c, nil
}

// Boot builds the cluster on sim, which other clusters may share, and
// boots every node into membership's gather phase without running the
// simulation.
func Boot(sim *simnet.Sim, opts Options) (*Cluster, error) {
	c := &Cluster{Sim: sim, opts: opts}
	net, err := simnet.NewNetwork(sim, opts.Fabric, func(to simnet.NodeID, p *simnet.Packet) {
		if n := c.Nodes[to]; n != nil {
			n.ingress(p)
		}
	})
	if err != nil {
		return nil, err
	}
	c.Net = net
	c.Nodes = make([]*Node, opts.Fabric.Nodes)
	c.gens = make([]int, opts.Fabric.Nodes)
	for i := range c.Nodes {
		if err := c.boot(i); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// boot starts a process on host i: a fresh step, empty sockets, and
// self-rescheduling timer ticks that die with the process.
func (c *Cluster) boot(i int) error {
	n := &Node{id: simnet.NodeID(i), c: c, cursor: c.Sim.Now()}
	n.tokenQ.cap = tokenSockBytes
	n.dataQ.cap = cmp.Or(c.opts.DataSockBytes, 4<<20)
	cfg := c.opts.Ring
	cfg.Self, cfg.OnEvent = evs.ProcID(i+1), n.deliver
	cfg.Timeouts = cmp.Or(cfg.Timeouts, timeouts)
	if c.opts.Observer != nil {
		cfg.Observer = c.opts.Observer(i)
	}
	if cfg.Observer != nil && cfg.Observer.Clock == nil {
		cfg.Observer.Clock = func() time.Time { return Wall(c.Sim.Now()) }
	}
	step, err := ringnode.NewStep(cfg, sender{n}, Wall(c.Sim.Now()))
	if err != nil {
		return fmt.Errorf("simproc: node %d: %w", i, err)
	}
	if c.holder != nil {
		step.Hold(c.holder(n.id))
	}
	n.step, n.busyUntil = step, n.cursor // booting sent the first join
	c.Nodes[i] = n

	k := time.Duration(i + 1)
	every := simnet.Time(tickEvery + k*tickSkew)
	var tick func()
	tick = func() {
		if n.dead {
			return
		}
		n.tickDue = true
		n.wake()
		c.Sim.After(every, tick)
	}
	c.Sim.After(simnet.Time(tickEvery+k*tickPhase+time.Duration(c.gens[i])*restartPhase), tick)
	return nil
}

// Kill stops host i's process: its pending step and tick events die with
// it, its queued client messages are lost, and frames still in flight to
// the host find nobody.
func (c *Cluster) Kill(i int) {
	if n := c.Nodes[i]; n != nil {
		n.dead = true
		c.Nodes[i] = nil
	}
}

// Restart boots a fresh process on killed host i, with no memory of its
// previous incarnation and its timers shifted from that one's.
func (c *Cluster) Restart(i int) error {
	c.gens[i]++
	return c.boot(i)
}

// Converged reports whether every live node is operational on one shared
// ring whose members are exactly the live nodes.
func (c *Cluster) Converged() bool {
	var ring evs.Configuration
	var live []evs.ProcID
	for i, n := range c.Nodes {
		if n == nil {
			continue
		}
		m := n.Machine()
		if m.State() != membership.StateOperational || len(live) > 0 && !m.Ring().Equal(ring) {
			return false
		}
		ring, live = m.Ring(), append(live, evs.ProcID(i+1))
	}
	return ring.Equal(evs.Configuration{ID: ring.ID, Members: live})
}

// SetDeliverHook installs fn as every node's delivery observer.
func (c *Cluster) SetDeliverHook(fn DeliverFn) { c.onDeliver = fn }

// SetHolder makes fn(node) the Holder of node's step (ringnode.Step.Hold),
// for every running process and every one booted later: the delivery
// observer keeps payloads the way fn's holders report. Call it before the
// first message is delivered.
func (c *Cluster) SetHolder(fn func(node simnet.NodeID) ringnode.Holder) {
	c.holder = fn
	for _, n := range c.Nodes {
		if n != nil {
			n.step.Hold(fn(n.id))
		}
	}
}
