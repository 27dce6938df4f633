package accelring

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"accelring/internal/core"
	"accelring/internal/flowcontrol"
	"accelring/internal/group"
	"accelring/internal/groupcore"
	"accelring/internal/membership"
	"accelring/internal/ringnode"
	"accelring/internal/shard"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

// Protocol selects the ring protocol variant.
type Protocol int

const (
	// ProtocolAccelerated is the paper's Accelerated Ring protocol:
	// messages are multicast both before and after passing the token, so
	// they circulate while the token is still in flight.
	ProtocolAccelerated Protocol = iota
	// ProtocolOriginal is the original Totem-style Ring protocol: all
	// sending happens while holding the token.
	ProtocolOriginal
)

func (p Protocol) String() string {
	switch p {
	case ProtocolAccelerated:
		return "accelerated"
	case ProtocolOriginal:
		return "original"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Default window sizes, matching the daemon's defaults (paper §VI uses
// comparable settings for the 10-Gig evaluation).
const (
	DefaultPersonalWindow    = 20
	DefaultGlobalWindow      = 160
	DefaultAcceleratedWindow = 15
	// DefaultEventBuffer is the default capacity of the Events channel.
	DefaultEventBuffer = 1024
)

// Config configures a Node. The zero value plus a Self ID and a Wire with
// a Transport (or UDP listen addresses) is usable: Validate fills in
// documented defaults.
type Config struct {
	// Self is this participant's unique nonzero identifier.
	Self ProcID

	// Protocol selects Accelerated (default) or Original.
	Protocol Protocol

	// PersonalWindow bounds how many new messages one participant may
	// introduce per token round (default DefaultPersonalWindow).
	PersonalWindow int
	// GlobalWindow bounds new messages introduced ring-wide per round
	// (default DefaultGlobalWindow). Must be at least PersonalWindow.
	GlobalWindow int
	// AcceleratedWindow bounds how many of the personal-window messages
	// are multicast before passing the token (default
	// DefaultAcceleratedWindow, capped at PersonalWindow; ignored by
	// ProtocolOriginal). Must not exceed PersonalWindow.
	AcceleratedWindow int

	// Timeouts are the membership timing parameters; zero fields take
	// membership defaults.
	Timeouts Timeouts

	// Shards is the number of independent ring instances this node runs
	// (default 1, max MaxShards). With more than one, groups are
	// partitioned across rings by a stable hash of the group name:
	// per-group total order is unchanged and aggregate throughput
	// multiplies, but cross-group delivery order is only guaranteed for
	// groups owned by the same ring (see RingOf). A sharded UDP node
	// derives ring r's ports by offsetting every base port by
	// Wire.ShardStride*r.
	Shards int

	// SkipInterval is the lambda-pacing tick of the cross-ring merge
	// (Shards > 1 only): how often the node checks for idle rings that
	// block the global delivery order and, when it is the blocked ring's
	// representative, orders a skip claim on it (default 2ms). Smaller
	// values cut the latency a busy ring's messages wait on an idle
	// one; larger values cut skip traffic.
	SkipInterval time.Duration
	// SkipAhead is how many virtual slots past the blocked head each
	// skip claims (default 32). Larger values cut skip traffic on quiet
	// rings at the cost of letting a quiet ring's next real message
	// order later relative to busy rings.
	SkipAhead uint64

	// Wire is the unified transport configuration: mode (hub, unicast,
	// multicast), addressing, per-shard port stride, syscall batching,
	// and adaptive message packing. See WireConfig and WithWire.
	Wire WireConfig

	// EventBuffer is the Events channel capacity (default
	// DefaultEventBuffer). A consumer that falls this far behind is
	// disconnected with ErrSlowConsumer rather than allowed to stall the
	// ring.
	EventBuffer int

	// Observer, when non-nil, receives protocol metrics (counters,
	// gauges, latency histograms) under ring.*, membership.* and
	// transport.* names, and the node keeps a black-box Recorder of its
	// protocol events (Node.Recorder). Serve both with StartDebugServer.
	Observer *Registry
	// TraceSampling samples every TraceSampling-th sequence number for
	// message-lifecycle tracing (see WithTraceSampling). Zero disables
	// tracing; negative is invalid.
	TraceSampling int

	// RingKey, when non-empty, authenticates every ring wire frame
	// (token and data) with a truncated HMAC-SHA256 tag. Each ring of a
	// sharded node signs with its own subkey derived from this master
	// key, so frames cannot be replayed across rings. All participants
	// must share the key; forged frames are counted on
	// transport.auth_drops and dropped before they can touch ordering
	// state.
	RingKey []byte
}

// Validation errors returned by Config.Validate (wrapped with context;
// branch with errors.Is).
var (
	ErrNoSelf        = errors.New("accelring: config needs a nonzero Self ID")
	ErrNoTransport   = errors.New("accelring: config needs a Wire Transport or UDP Listen addresses")
	ErrBadWindow     = errors.New("accelring: invalid flow-control window")
	ErrBadTimeout    = errors.New("accelring: timeouts must be non-negative")
	ErrBadAddress    = errors.New("accelring: bad UDP address")
	ErrBadProtocol   = errors.New("accelring: unknown protocol variant")
	ErrBadBufferSize = errors.New("accelring: buffer sizes must be non-negative")
	ErrBadShards     = errors.New("accelring: invalid shard configuration")
)

// MaxShards bounds Config.Shards.
const MaxShards = shard.MaxShards

// RingOf returns the ring that owns a group name in a node opened with
// WithShards(shards). The hash is stable across processes and releases:
// every node routes a group to the same ring, which is what preserves the
// group's total order in a sharded deployment.
func RingOf(groupName string, shards int) int { return group.RingOf(groupName, shards) }

// Validate fills in documented defaults for zero fields, then checks the
// configuration, returning the first problem found. Open calls it for
// you; call it directly to check a config without starting a node.
func (c *Config) Validate() error {
	if c.Self == 0 {
		return ErrNoSelf
	}
	if c.Protocol != ProtocolAccelerated && c.Protocol != ProtocolOriginal {
		return fmt.Errorf("%w: %d", ErrBadProtocol, int(c.Protocol))
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 || c.Shards > MaxShards {
		return fmt.Errorf("%w: Shards %d out of range [1, %d]", ErrBadShards, c.Shards, MaxShards)
	}

	// Defaults.
	if c.PersonalWindow == 0 {
		c.PersonalWindow = DefaultPersonalWindow
	}
	if c.GlobalWindow == 0 {
		c.GlobalWindow = DefaultGlobalWindow
	}
	if c.Protocol == ProtocolAccelerated && c.AcceleratedWindow == 0 {
		c.AcceleratedWindow = DefaultAcceleratedWindow
		if c.AcceleratedWindow > c.PersonalWindow {
			c.AcceleratedWindow = c.PersonalWindow
		}
	}
	if c.Protocol == ProtocolOriginal {
		c.AcceleratedWindow = 0
	}
	if c.EventBuffer == 0 {
		c.EventBuffer = DefaultEventBuffer
	}
	if c.SkipInterval < 0 {
		return fmt.Errorf("%w: got %v", ErrBadTimeout, c.SkipInterval)
	}
	if c.SkipInterval == 0 {
		c.SkipInterval = groupcore.DefaultSkipInterval
	}

	// Windows.
	if c.PersonalWindow < 0 || c.GlobalWindow < 0 || c.AcceleratedWindow < 0 {
		return fmt.Errorf("%w: windows must be non-negative", ErrBadWindow)
	}
	if c.GlobalWindow < c.PersonalWindow {
		return fmt.Errorf("%w: global window %d < personal window %d",
			ErrBadWindow, c.GlobalWindow, c.PersonalWindow)
	}
	if c.AcceleratedWindow > c.PersonalWindow {
		return fmt.Errorf("%w: accelerated window %d > personal window %d",
			ErrBadWindow, c.AcceleratedWindow, c.PersonalWindow)
	}

	// Timeouts: zero fields take membership defaults, negatives are bugs.
	def := membership.DefaultTimeouts()
	for _, f := range []struct {
		d   *time.Duration
		def time.Duration
	}{
		{&c.Timeouts.JoinInterval, def.JoinInterval},
		{&c.Timeouts.Gather, def.Gather},
		{&c.Timeouts.Commit, def.Commit},
		{&c.Timeouts.TokenLoss, def.TokenLoss},
		{&c.Timeouts.TokenRetransmit, def.TokenRetransmit},
		{&c.Timeouts.Beacon, def.Beacon}, // zero: membership derives it
	} {
		if *f.d < 0 {
			return fmt.Errorf("%w: got %v", ErrBadTimeout, *f.d)
		}
		if *f.d == 0 {
			*f.d = f.def
		}
	}

	if c.EventBuffer < 0 || c.TraceSampling < 0 {
		return ErrBadBufferSize
	}

	// Transport: the single resolve path for every mode and knob.
	return c.resolveWire()
}

func checkUDPAddrs(who string, p UDPAddrs) error {
	for _, a := range []string{p.Data, p.Token} {
		if _, err := net.ResolveUDPAddr("udp", a); err != nil {
			return fmt.Errorf("%w: %s %q: %v", ErrBadAddress, who, a, err)
		}
	}
	return nil
}

// ringConfig derives the internal driver configuration. The caller wires
// Transport, OnEvent and Observer afterwards.
func (c *Config) ringConfig() ringnode.Config {
	rc := ringnode.Config{
		Self: c.Self,
		Windows: flowcontrol.Windows{
			Personal:    c.PersonalWindow,
			Global:      c.GlobalWindow,
			Accelerated: c.AcceleratedWindow,
		},
		Timeouts: c.Timeouts,
	}
	if c.Protocol == ProtocolOriginal {
		rc.Priority = core.PriorityConservative
	} else {
		rc.Priority = core.PriorityAggressive
		rc.DelayedRequests = true
	}
	rc.Packing = c.Wire.Packing
	return rc
}

// openTransport returns ring's transport per the resolved Wire config:
// the explicit per-ring (or single) transport in hub mode, otherwise a
// UDP one — on the base ports for ring 0, and on ports offset by
// ShardStride*ring for the other rings of a sharded node, with the
// configured batching and (in multicast mode) the group joined.
// Validate must have passed.
func (c *Config) openTransport(ring int) (Transport, error) {
	w := &c.Wire
	if w.Mode == WireHub {
		if len(w.Transports) > 0 {
			return c.keyed(w.Transports[ring], ring), nil
		}
		return c.keyed(w.Transport, ring), nil
	}
	listen, peers := w.Listen, w.Peers
	if c.Shards > 1 {
		var err error
		if listen, err = w.Listen.Shift(w.ShardStride * ring); err != nil {
			return nil, err
		}
		peers = make(map[ProcID]UDPAddrs, len(w.Peers))
		for id, p := range w.Peers {
			if peers[id], err = p.Shift(w.ShardStride * ring); err != nil {
				return nil, err
			}
		}
	}
	ucfg := transport.UDPConfig{
		Self:   c.Self,
		Listen: listen,
		Peers:  peers,
		Batch:  w.Batch,
		Obs:    c.Observer,
	}
	if w.Mode == WireMulticast {
		group := w.MulticastGroup
		if c.Shards > 1 {
			var err error
			if group, err = transport.ShiftPort(group, w.ShardStride*ring); err != nil {
				return nil, err
			}
		}
		ucfg.Multicast = &transport.UDPMulticast{
			Group:           group,
			TTL:             w.MulticastTTL,
			Interface:       w.MulticastInterface,
			DisableLoopback: w.MulticastNoLoopback,
		}
	}
	tr, err := transport.NewUDP(ucfg)
	if err != nil {
		return nil, err
	}
	return c.keyed(tr, ring), nil
}

// keyed wraps tr with per-ring HMAC frame authentication when RingKey is
// set; with no key it returns tr unchanged.
func (c *Config) keyed(tr Transport, ring int) Transport {
	if len(c.RingKey) == 0 {
		return tr
	}
	sub := wire.DeriveKey(c.RingKey, "ring"+strconv.Itoa(ring))
	return transport.WithAuth(tr, sub, c.Observer, nil)
}
