package ringconf

import (
	"errors"
	"fmt"
	"net"
	"strconv"

	"accelring/internal/evs"
	"accelring/internal/pack"
	"accelring/internal/transport"
)

// WireMode selects how a node's protocol frames travel.
type WireMode int

const (
	// WireAuto (the default) infers the mode from the rest of the
	// WireConfig: WireHub when an established Transport is supplied,
	// WireMulticast when a multicast group is set, WireUnicast when only
	// UDP listen addresses are given.
	WireAuto WireMode = iota
	// WireHub runs over an established Transport (an in-process Hub
	// endpoint, or any custom implementation).
	WireHub
	// WireUnicast opens UDP sockets and emulates multicast by unicast
	// fan-out to every peer — the fallback the paper notes Spread
	// provides where IP multicast is unavailable.
	WireUnicast
	// WireMulticast opens UDP sockets and sends each data frame once to
	// an IP-multicast group, as on the paper's testbed. Tokens stay
	// unicast.
	WireMulticast
)

func (m WireMode) String() string {
	if m >= WireAuto && m <= WireMulticast {
		return [...]string{"auto", "hub", "unicast", "multicast"}[m]
	}
	return fmt.Sprintf("wiremode(%d)", int(m))
}

// DefaultShardStride is the port offset between consecutive rings of a
// sharded UDP node: ring r listens (and expects every peer) on each base
// port + stride*r. Two ports per ring (data and token) is why the
// default is 2.
const DefaultShardStride = 2

// WireConfig is the unified transport configuration: one place for the
// mode (hub, unicast, multicast), the addressing, the per-shard port
// stride, and the throughput knobs (syscall batching, adaptive message
// packing). Set it with WithWire or the Config.Wire field.
type WireConfig struct {
	// Mode selects the wire mode; WireAuto infers it (see WireMode).
	Mode WireMode

	// Transport carries frames in WireHub mode for a single-ring node;
	// the node takes ownership and closes it on Close. Transports does
	// the same per ring of a sharded node (length must equal Shards).
	// Set at most one of the two.
	Transport  transport.Transport
	Transports []transport.Transport

	// Listen holds this node's data/token UDP listen addresses in the
	// UDP modes; Peers the other participants'. With Shards > 1 every
	// port must be numeric and nonzero so per-ring ports can be derived
	// (see ShardStride).
	Listen transport.UDPPeer
	Peers  map[evs.ProcID]transport.UDPPeer

	// MulticastGroup is the IPv4 group host:port data frames are sent to
	// and received from in WireMulticast mode, e.g. "239.192.7.1:7600".
	// Every ring member must use the same group; a sharded node derives
	// ring r's group port by ShardStride like the unicast ports.
	MulticastGroup string
	// MulticastTTL bounds propagation (0 means 1: link-local).
	MulticastTTL int
	// MulticastInterface optionally names the NIC for sending/joining.
	MulticastInterface string
	// MulticastNoLoopback disables IP_MULTICAST_LOOP. Leave it off for
	// same-host deployments and tests.
	MulticastNoLoopback bool

	// ShardStride is the port offset between consecutive rings of a
	// sharded UDP node: ring r uses every base port + ShardStride*r
	// (default DefaultShardStride). Validate rejects strides whose
	// derived ports collide or exceed 65535.
	ShardStride int

	// Batch coalesces the per-token-round burst of data frames into
	// single sendmmsg/recvmmsg kernel crossings (UDP modes only). The
	// zero value keeps one syscall per datagram.
	Batch transport.BatchConfig

	// Packing, when non-nil, enables adaptive small-message packing:
	// under load, submissions are bundled up to the configured byte
	// limit per protocol frame and unpacked on delivery; at low rate
	// every message flushes immediately, bounded by MaxDelay. All ring
	// members must agree on whether packing is enabled.
	Packing *pack.AdaptiveConfig
}

// Wire-path validation errors (wrapped with context; branch with
// errors.Is).
var (
	// ErrWireConflict reports mutually exclusive WireConfig fields, e.g.
	// an established Transport together with UDP listen addresses.
	ErrWireConflict = errors.New("accelring: conflicting wire configuration")
	// ErrShardPorts reports a sharded UDP port derivation problem:
	// derived ports collide or exceed 65535.
	ErrShardPorts = errors.New("accelring: bad sharded port derivation")
	// ErrBadWire reports an invalid wire mode or knob.
	ErrBadWire = errors.New("accelring: invalid wire configuration")
)

// resolveWire infers c.Wire's mode, applies defaults, and validates the
// result.
func (c *Config) resolveWire() error {
	w := &c.Wire
	if w.Mode < WireAuto || w.Mode > WireMulticast {
		return fmt.Errorf("%w: unknown mode %d", ErrBadWire, int(w.Mode))
	}
	hasHub := w.Transport != nil || len(w.Transports) > 0
	hasUDP := w.Listen.Data != "" || w.Listen.Token != ""
	if w.Mode == WireAuto {
		switch {
		case hasHub:
			w.Mode = WireHub
		case w.MulticastGroup != "":
			w.Mode = WireMulticast
		case hasUDP:
			w.Mode = WireUnicast
		default:
			return ErrNoTransport
		}
	}

	switch w.Mode {
	case WireHub:
		if !hasHub {
			return fmt.Errorf("%w: hub mode needs a Transport (or Transports)", ErrBadWire)
		}
		if hasUDP || len(w.Peers) > 0 || w.MulticastGroup != "" {
			return fmt.Errorf("%w: hub mode excludes UDP listen addresses and multicast groups", ErrWireConflict)
		}
		if w.Batch != (transport.BatchConfig{}) {
			return fmt.Errorf("%w: syscall batching applies to the UDP wire modes, not hub transports", ErrBadWire)
		}
		if w.Transport != nil && len(w.Transports) > 0 {
			return fmt.Errorf("%w: set Transport or Transports, not both", ErrWireConflict)
		}
		if len(w.Transports) > 0 && len(w.Transports) != c.Shards {
			return fmt.Errorf("%w: %d Transports for %d shards", ErrBadShards, len(w.Transports), c.Shards)
		}
		for r, tr := range w.Transports {
			if tr == nil {
				return fmt.Errorf("%w: Transports[%d] is nil", ErrBadShards, r)
			}
		}
		if c.Shards > 1 && len(w.Transports) == 0 {
			return fmt.Errorf("%w: a sharded node needs one transport per ring: use Transports, not Transport", ErrBadShards)
		}
	case WireUnicast, WireMulticast:
		if hasHub {
			return fmt.Errorf("%w: the UDP wire modes exclude established Transports", ErrWireConflict)
		}
		if w.Listen.Data == "" || w.Listen.Token == "" {
			return ErrNoTransport
		}
		if err := checkUDPAddrs("listen", w.Listen); err != nil {
			return err
		}
		for id, p := range w.Peers {
			if id == 0 {
				return fmt.Errorf("%w: peer with zero ID", ErrBadAddress)
			}
			if err := checkUDPAddrs(fmt.Sprintf("peer %d", id), p); err != nil {
				return err
			}
		}
		if w.Mode == WireMulticast {
			ga, err := net.ResolveUDPAddr("udp4", w.MulticastGroup)
			if err != nil {
				return fmt.Errorf("%w: multicast group %q: %v", ErrBadAddress, w.MulticastGroup, err)
			}
			if ga.IP == nil || !ga.IP.IsMulticast() {
				return fmt.Errorf("%w: %q is not an IPv4 multicast group", ErrBadWire, w.MulticastGroup)
			}
			if w.MulticastTTL < 0 || w.MulticastTTL > 255 {
				return fmt.Errorf("%w: multicast TTL %d out of range [0, 255]", ErrBadWire, w.MulticastTTL)
			}
		} else if w.MulticastGroup != "" {
			return fmt.Errorf("%w: a multicast group with Mode WireUnicast", ErrWireConflict)
		}
	}

	if w.Batch.Send < 0 || w.Batch.Recv < 0 ||
		w.Batch.Send > transport.MaxBatch || w.Batch.Recv > transport.MaxBatch {
		return fmt.Errorf("%w: batch sizes must be in [0, %d], got send %d recv %d",
			ErrBadWire, transport.MaxBatch, w.Batch.Send, w.Batch.Recv)
	}
	if w.Packing != nil {
		if err := w.Packing.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadWire, err)
		}
	}
	if w.ShardStride < 0 {
		return fmt.Errorf("%w: negative ShardStride %d", ErrBadWire, w.ShardStride)
	}
	if w.ShardStride == 0 {
		w.ShardStride = DefaultShardStride
	}
	if c.Shards > 1 && w.Mode != WireHub {
		if err := c.checkShardPorts(); err != nil {
			return err
		}
	}
	return nil
}

// checkShardPorts derives every per-ring port a sharded UDP node will
// use and rejects non-numeric or zero base ports, overflow past 65535,
// and collisions between derived ports of the same host — the silent
// failure modes of the old implicit base+2r convention.
func (c *Config) checkShardPorts() error {
	w := &c.Wire
	type base struct {
		who  string
		addr string
	}
	bases := []base{
		{"listen data", w.Listen.Data},
		{"listen token", w.Listen.Token},
	}
	for id, p := range w.Peers {
		if id == c.Self {
			continue
		}
		bases = append(bases,
			base{fmt.Sprintf("peer %d data", id), p.Data},
			base{fmt.Sprintf("peer %d token", id), p.Token})
	}
	if w.Mode == WireMulticast {
		bases = append(bases, base{"multicast group", w.MulticastGroup})
	}
	used := make(map[string]string, len(bases)*c.Shards)
	for _, b := range bases {
		host, port, err := net.SplitHostPort(b.addr)
		if err != nil {
			return fmt.Errorf("%w: %s %q: %v", ErrShardPorts, b.who, b.addr, err)
		}
		p, err := strconv.Atoi(port)
		if err != nil || p <= 0 {
			return fmt.Errorf("%w: %s %q needs a numeric nonzero port to derive per-ring ports", ErrShardPorts, b.who, b.addr)
		}
		for r := 0; r < c.Shards; r++ {
			dp := p + w.ShardStride*r
			if dp > 65535 {
				return fmt.Errorf("%w: %s port %d + stride %d × ring %d = %d exceeds 65535",
					ErrShardPorts, b.who, p, w.ShardStride, r, dp)
			}
			key := net.JoinHostPort(host, strconv.Itoa(dp))
			self := fmt.Sprintf("%s ring %d", b.who, r)
			if prev, dup := used[key]; dup {
				return fmt.Errorf("%w: %s and %s both derive %s (stride %d)",
					ErrShardPorts, prev, self, key, w.ShardStride)
			}
			used[key] = self
		}
	}
	return nil
}
