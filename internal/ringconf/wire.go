package ringconf

import (
	"errors"
	"fmt"
	"net"
	"strconv"

	"accelring/internal/evs"
	"accelring/internal/transport"
)

// DefaultShardStride is the port offset between consecutive rings of a
// sharded UDP node: ring r listens (and expects every peer) on the base
// port + stride*r.
const DefaultShardStride = 1

// WireConfig is the unified transport configuration: one place for the
// transport (in-process or UDP), the addressing, the per-shard port
// stride, and the throughput knob (adaptive message packing). Which transport runs follows from the fields set: Transport
// or Transports run the ring in-process, Listen opens UDP sockets, and
// setting both is ErrWireConflict. Set it with WithWire or the
// Config.Wire field.
type WireConfig struct {
	// Transport carries frames for a single-ring node over an
	// established transport (an in-process Hub endpoint, or any custom
	// implementation); the node takes ownership and closes it on Close.
	// Transports does the same per ring of a sharded node (length must
	// equal Shards). Set at most one of the two.
	Transport  transport.Transport
	Transports []transport.Transport

	// Listen holds this node's UDP listen address (Data; one socket per
	// ring carries every frame class, and Token must be empty); Peers the
	// other participants'. Data frames reach the peers by unicast
	// fan-out, one datagram each. With Shards > 1 every port must be
	// numeric and nonzero so per-ring ports can be derived (see
	// ShardStride).
	Listen transport.UDPPeer
	Peers  map[evs.ProcID]transport.UDPPeer

	// ShardStride is the port offset between consecutive rings of a
	// sharded UDP node: ring r uses the base port + ShardStride*r
	// (default DefaultShardStride). Validate rejects strides whose
	// derived ports collide or exceed 65535.
	ShardStride int

	// Packing enables adaptive small-message packing: under load,
	// submissions are bundled up to pack.DefaultLimit bytes per protocol
	// frame and unpacked on delivery; at low rate every message flushes
	// immediately, bounded by pack.DefaultMaxDelay. All ring members must
	// agree on whether packing is enabled.
	Packing bool
}

// Wire-path validation errors (wrapped with context; branch with
// errors.Is).
var (
	// ErrWireConflict reports mutually exclusive WireConfig fields: an
	// established Transport together with UDP addresses, or both
	// Transport and Transports.
	ErrWireConflict = errors.New("accelring: conflicting wire configuration")
	// ErrShardPorts reports a sharded UDP port derivation problem:
	// derived ports collide or exceed 65535.
	ErrShardPorts = errors.New("accelring: bad sharded port derivation")
	// ErrBadWire reports an invalid wire knob, or a UDP Token address
	// (a ring has one socket, at Data).
	ErrBadWire = errors.New("accelring: invalid wire configuration")
)

// resolveWire infers c.Wire's transport from the fields set, applies
// defaults, and validates the result.
func (c *Config) resolveWire() error {
	w := &c.Wire
	if w.Listen.Token != "" {
		return fmt.Errorf("%w: listen Token %q: a ring has one socket, at Data", ErrBadWire, w.Listen.Token)
	}
	for id, p := range w.Peers {
		if p.Token != "" {
			return fmt.Errorf("%w: peer %d Token %q: a ring has one socket, at Data", ErrBadWire, id, p.Token)
		}
	}
	established := w.Transport != nil || len(w.Transports) > 0
	if established {
		if w.Listen.Data != "" || len(w.Peers) > 0 {
			return fmt.Errorf("%w: an established Transport excludes UDP addresses", ErrWireConflict)
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
	} else {
		if w.Listen.Data == "" {
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
	}

	if w.ShardStride < 0 {
		return fmt.Errorf("%w: negative ShardStride %d", ErrBadWire, w.ShardStride)
	}
	if w.ShardStride == 0 {
		w.ShardStride = DefaultShardStride
	}
	if c.Shards > 1 && !established {
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
	bases := []base{{"listen", w.Listen.Data}}
	for id, p := range w.Peers {
		if id == c.Self {
			continue
		}
		bases = append(bases, base{fmt.Sprintf("peer %d", id), p.Data})
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
