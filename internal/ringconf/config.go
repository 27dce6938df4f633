// Package ringconf holds Config, the one place a ring stack is declared,
// validated and opened: the accelring facade re-exports it as its public
// Config and cmd/ringdaemon binds its flags into it. Validate fills in
// defaults and rejects a bad stack before anything is bound; Stack turns
// the result into the per-ring template and transport opener.
package ringconf

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"accelring/internal/evs"
	"accelring/internal/groupcore"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
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
	if p == ProtocolAccelerated || p == ProtocolOriginal {
		return [...]string{"accelerated", "original"}[p]
	}
	return fmt.Sprintf("protocol(%d)", int(p))
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

// Config declares one node's ring stack. The zero value plus a Self ID
// and a Wire with a Transport (or UDP listen addresses) is usable:
// Validate fills in documented defaults.
type Config struct {
	// Self is this participant's unique nonzero identifier.
	Self evs.ProcID

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
	Timeouts membership.Timeouts

	// Shards is the number of independent ring instances this node runs
	// (default 1, max MaxShards). With more than one, groups are
	// partitioned across rings by a stable hash of the group name:
	// per-group total order is unchanged and aggregate throughput
	// multiplies, but cross-group delivery order is only guaranteed for
	// groups owned by the same ring (see RingOf). A sharded UDP node
	// derives ring r's port by offsetting the base port by
	// Wire.ShardStride*r.
	Shards int

	// Wire is the unified transport configuration: transport
	// (in-process or UDP), addressing, per-shard port stride, and
	// adaptive message packing. See WireConfig and WithWire.
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
	Observer *obs.Registry
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
	if c.Shards < 1 || c.Shards > groupcore.MaxShards {
		return fmt.Errorf("%w: Shards %d out of range [1, %d]", ErrBadShards, c.Shards, groupcore.MaxShards)
	}

	// Defaults.
	if c.PersonalWindow == 0 {
		c.PersonalWindow = DefaultPersonalWindow
	}
	if c.GlobalWindow == 0 {
		c.GlobalWindow = DefaultGlobalWindow
	}
	if c.Protocol == ProtocolAccelerated && c.AcceleratedWindow == 0 {
		c.AcceleratedWindow = min(DefaultAcceleratedWindow, c.PersonalWindow)
	}
	if c.Protocol == ProtocolOriginal {
		c.AcceleratedWindow = 0
	}
	if c.EventBuffer == 0 {
		c.EventBuffer = DefaultEventBuffer
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

	// Transport: the single resolve path for every wire field and knob.
	return c.resolveWire()
}

func checkUDPAddrs(who string, p transport.UDPPeer) error {
	if _, err := net.ResolveUDPAddr("udp", p.Data); err != nil {
		return fmt.Errorf("%w: %s %q: %v", ErrBadAddress, who, p.Data, err)
	}
	return nil
}

// Stack returns a validated Config's ring stack: the per-ring template
// (the protocol variant's ringnode.Config, plus a RingObserver when
// observed), the opener of ring r's transport, and the template's flight
// recorder (nil unless Observer is set). Validate must have passed.
func (c *Config) Stack() (ringnode.Config, func(ring int) (transport.Transport, error), *obs.Recorder) {
	rc := ringnode.Original(c.Self, nil, c.PersonalWindow, c.GlobalWindow)
	if c.Protocol == ProtocolAccelerated {
		rc = ringnode.Accelerated(c.Self, nil, c.PersonalWindow, c.GlobalWindow, c.AcceleratedWindow)
	}
	rc.Timeouts, rc.Packing = c.Timeouts, c.Wire.Packing
	var flight *obs.Recorder
	if c.Observer != nil {
		flight = obs.NewRecorder(0)
	}
	if c.Observer != nil || c.TraceSampling > 0 {
		// groupcore.Start derives one observer per ring of a sharded node
		// from this one (Msg here only carries the sampling rate).
		rc.Observer = &obs.RingObserver{Reg: c.Observer, Flight: flight, Msg: obs.NewMsgTracer(c.TraceSampling, 0)}
	}
	// Ring r runs over its hub transport or UDP sockets per udpConfig,
	// with its own HMAC frame authentication when RingKey is set.
	open := func(ring int) (transport.Transport, error) {
		w := &c.Wire
		tr := w.Transport
		if len(w.Transports) > 0 {
			tr = w.Transports[ring]
		} else if tr == nil {
			u, err := c.udpConfig(ring)
			if err == nil {
				tr, err = transport.NewUDP(u)
			}
			if err != nil {
				return nil, err
			}
		}
		return transport.WithAuth(tr, c.subkey(ring), c.Observer, flight), nil
	}
	return rc, open, flight
}

// udpConfig derives ring's UDP binding: the base addresses for a single
// ring (ephemeral ports included); on a sharded node every address's
// port shifted by ShardStride*ring.
func (c *Config) udpConfig(ring int) (transport.UDPConfig, error) {
	w := &c.Wire
	u := transport.UDPConfig{Self: c.Self, Listen: w.Listen, Peers: w.Peers, Obs: c.Observer}
	if c.Shards == 1 {
		return u, nil
	}
	by := w.ShardStride * ring
	var err error
	if u.Listen, err = w.Listen.Shift(by); err != nil {
		return u, err
	}
	u.Peers = make(map[evs.ProcID]transport.UDPPeer, len(w.Peers))
	for id, p := range w.Peers {
		if u.Peers[id], err = p.Shift(by); err != nil {
			return u, err
		}
	}
	return u, nil
}

// subkey derives ring's own frame key from RingKey, so frames cannot be
// replayed across rings (nil with no key: WithAuth then does nothing).
func (c *Config) subkey(ring int) []byte {
	if len(c.RingKey) == 0 {
		return nil
	}
	return wire.DeriveKey(c.RingKey, "ring"+strconv.Itoa(ring))
}
