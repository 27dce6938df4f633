package accelring

import (
	"errors"
	"testing"
	"time"

	"accelring/internal/transport"
)

func validUDPConfig() Config {
	return Config{
		Self: 1,
		Wire: WireConfig{
			Listen: UDPAddrs{Data: "127.0.0.1:7400"},
			Peers: map[ProcID]UDPAddrs{
				2: {Data: "127.0.0.1:7410"},
			},
		},
	}
}

// TestConfigValidate covers Validate end to end: protocol parameters, and
// the wire-path resolve with every transport inference, conflict and knob
// bound.
func TestConfigValidate(t *testing.T) {
	hubEp := func() Transport {
		ep, _ := NewHub().Endpoint(1, 16, 16)
		return ep
	}
	// openRing0 opens the transport Stack derives for ring 0.
	openRing0 := func(t *testing.T, c *Config) Transport {
		_, open, _ := c.Stack()
		tr, err := open(0)
		if err != nil {
			t.Fatalf("open ring 0: %v", err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	udpWire := func() WireConfig { return validUDPConfig().Wire }
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr error
		check   func(*testing.T, *Config)
	}{
		{"valid defaults", func(c *Config) {}, nil, nil},
		{"explicit windows", func(c *Config) {
			c.PersonalWindow, c.GlobalWindow, c.AcceleratedWindow = 10, 100, 7
		}, nil, nil},
		{"original protocol", func(c *Config) { c.Protocol = ProtocolOriginal }, nil, nil},

		{"zero self", func(c *Config) { c.Self = 0 }, ErrNoSelf, nil},
		{"unknown protocol", func(c *Config) { c.Protocol = Protocol(9) }, ErrBadProtocol, nil},
		{"no transport at all", func(c *Config) {
			c.Wire = WireConfig{}
		}, ErrNoTransport, nil},
		{"hub mode without transport", func(c *Config) {
			c.Wire = WireConfig{Transports: []Transport{}} // an empty list is no transport
		}, ErrNoTransport, nil},
		{"missing listen address", func(c *Config) {
			c.Wire.Listen.Data = ""
		}, ErrNoTransport, nil},
		{"listen token address", func(c *Config) {
			c.Wire.Listen.Token = "127.0.0.1:7401"
		}, ErrBadWire, nil},
		{"peer token address", func(c *Config) {
			c.Wire.Peers[2] = UDPAddrs{Data: "127.0.0.1:7410", Token: "127.0.0.1:7411"}
		}, ErrBadWire, nil},
		{"accelerated exceeds personal", func(c *Config) {
			c.PersonalWindow, c.GlobalWindow, c.AcceleratedWindow = 10, 100, 11
		}, ErrBadWindow, nil},
		{"global below personal", func(c *Config) {
			c.PersonalWindow, c.GlobalWindow = 40, 30
		}, ErrBadWindow, nil},
		{"negative window", func(c *Config) {
			c.PersonalWindow = -1
		}, ErrBadWindow, nil},
		{"negative timeout", func(c *Config) {
			c.Timeouts.TokenLoss = -time.Second
		}, ErrBadTimeout, nil},
		{"negative event buffer", func(c *Config) {
			c.EventBuffer = -1
		}, ErrBadBufferSize, nil},
		{"bad listen address", func(c *Config) {
			c.Wire.Listen.Data = "not a udp address:::"
		}, ErrBadAddress, nil},
		{"bad peer address", func(c *Config) {
			c.Wire.Peers[2] = UDPAddrs{Data: "host:notaport"}
		}, ErrBadAddress, nil},
		{"peer with zero id", func(c *Config) {
			c.Wire.Peers[0] = UDPAddrs{Data: "127.0.0.1:1"}
		}, ErrBadAddress, nil},

		// Transport inference: Listen means UDP (an unsharded node binds
		// ephemeral ports as given), Transport means that transport.
		{"wire unicast auto", func(c *Config) {
			c.Wire = WireConfig{Listen: UDPAddrs{Data: "127.0.0.1:0"}}
		}, nil, func(t *testing.T, c *Config) {
			tr := openRing0(t, c)
			if _, ok := tr.(*transport.UDP); !ok {
				t.Fatalf("Listen opened %T, want *transport.UDP", tr)
			}
		}},
		{"wire hub auto", func(c *Config) {
			c.Wire = WireConfig{Transport: hubEp()}
		}, nil, func(t *testing.T, c *Config) {
			if tr := openRing0(t, c); tr != c.Wire.Transport {
				t.Fatalf("Transport opened %T, want the given endpoint", tr)
			}
		}},
		{"stride default applied", func(c *Config) {
			c.Wire = udpWire()
		}, nil, func(t *testing.T, c *Config) {
			if c.Wire.ShardStride != DefaultShardStride {
				t.Fatalf("ShardStride = %d, want %d", c.Wire.ShardStride, DefaultShardStride)
			}
		}},
		{"packing accepted", func(c *Config) {
			w := udpWire()
			w.Packing = true
			c.Wire = w
		}, nil, nil},

		// Conflicts inside WireConfig.
		{"hub transport plus listen inside wire", func(c *Config) {
			w := udpWire()
			w.Transport = hubEp()
			c.Wire = w
		}, ErrWireConflict, nil},
		{"hub transport plus peers", func(c *Config) {
			c.Wire = WireConfig{Transport: hubEp(), Peers: udpWire().Peers}
		}, ErrWireConflict, nil},
		{"both transport and transports", func(c *Config) {
			c.Wire = WireConfig{Transport: hubEp(), Transports: []Transport{hubEp()}}
		}, ErrWireConflict, nil},

		// Knob errors.
		{"negative stride", func(c *Config) {
			w := udpWire()
			w.ShardStride = -2
			c.Wire = w
		}, ErrBadWire, nil},

		// Sharded port derivation.
		{"stride collision", func(c *Config) {
			c.Shards = 2
			w := udpWire()
			// Peer 2's base is the listen base + stride on the same host:
			// ring 1's listen port lands exactly on peer 2's ring 0 port.
			w.Listen = UDPAddrs{Data: "127.0.0.1:7400"}
			w.Peers = map[ProcID]UDPAddrs{2: {Data: "127.0.0.1:7401"}}
			c.Wire = w
		}, ErrShardPorts, nil},
		{"stride overflow", func(c *Config) {
			c.Shards = 2
			w := udpWire()
			w.Listen = UDPAddrs{Data: "127.0.0.1:65535"}
			w.Peers = map[ProcID]UDPAddrs{2: {Data: "127.0.0.1:7410"}}
			c.Wire = w
		}, ErrShardPorts, nil},
		{"wide stride ok", func(c *Config) {
			c.Shards = 4
			w := udpWire()
			w.ShardStride = 10
			w.Listen = UDPAddrs{Data: "127.0.0.1:7400"}
			w.Peers = map[ProcID]UDPAddrs{2: {Data: "127.0.0.1:7401"}}
			c.Wire = w
		}, nil, nil},
		{"sharded ephemeral port", func(c *Config) {
			c.Shards = 2
			c.Wire = WireConfig{Listen: UDPAddrs{Data: "127.0.0.1:0"}}
		}, ErrShardPorts, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := validUDPConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				if tt.check != nil {
					tt.check(t, &cfg)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestConfigValidateAppliesDefaults(t *testing.T) {
	cfg := validUDPConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.PersonalWindow != DefaultPersonalWindow ||
		cfg.GlobalWindow != DefaultGlobalWindow ||
		cfg.AcceleratedWindow != DefaultAcceleratedWindow {
		t.Fatalf("windows = %d/%d/%d, want defaults %d/%d/%d",
			cfg.PersonalWindow, cfg.GlobalWindow, cfg.AcceleratedWindow,
			DefaultPersonalWindow, DefaultGlobalWindow, DefaultAcceleratedWindow)
	}
	if cfg.EventBuffer != DefaultEventBuffer {
		t.Fatalf("EventBuffer = %d, want %d", cfg.EventBuffer, DefaultEventBuffer)
	}

	// The original protocol never pre-sends: accelerated window pins to 0.
	cfg = validUDPConfig()
	cfg.Protocol = ProtocolOriginal
	cfg.AcceleratedWindow = 5
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.AcceleratedWindow != 0 {
		t.Fatalf("original protocol AcceleratedWindow = %d, want 0", cfg.AcceleratedWindow)
	}

	// A small personal window caps the default accelerated window.
	cfg = validUDPConfig()
	cfg.PersonalWindow, cfg.GlobalWindow = 4, 40
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.AcceleratedWindow != 4 {
		t.Fatalf("capped AcceleratedWindow = %d, want 4", cfg.AcceleratedWindow)
	}
}
