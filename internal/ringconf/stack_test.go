package ringconf

import (
	"bytes"
	"errors"
	"testing"

	"accelring/internal/evs"
	"accelring/internal/transport"
)

// TestStackOpener covers the one per-ring opener the facade and the daemon
// share: an unsharded node keeps its addresses as given (ephemeral ports
// included), a sharded one derives ring r's ports and subkey.
func TestStackOpener(t *testing.T) {
	single := Config{Self: 1, Wire: WireConfig{
		Listen: transport.UDPPeer{Data: "127.0.0.1:0"},
	}}
	if err := single.Validate(); err != nil {
		t.Fatalf("unsharded ephemeral listen: %v", err)
	}
	_, open, _ := single.Stack()
	tr, err := open(0)
	if err != nil {
		t.Fatalf("open unsharded ephemeral ring: %v", err)
	}
	tr.Close()

	sharded := single
	sharded.Shards = 2
	if err := sharded.Validate(); !errors.Is(err, ErrShardPorts) {
		t.Fatalf("sharded ephemeral listen: Validate = %v, want ErrShardPorts", err)
	}

	cfg := Config{Self: 1, Shards: 2, RingKey: []byte("secret"), Wire: WireConfig{
		Listen: transport.UDPPeer{Data: "127.0.0.1:7400"},
		Peers:  map[evs.ProcID]transport.UDPPeer{2: {Data: "127.0.0.1:7500"}},
	}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	u, err := cfg.udpConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := (transport.UDPPeer{Data: "127.0.0.1:7401"}); u.Listen != want {
		t.Errorf("ring 1 listen = %+v, want %+v", u.Listen, want)
	}
	if want := (transport.UDPPeer{Data: "127.0.0.1:7501"}); u.Peers[2] != want {
		t.Errorf("ring 1 peer 2 = %+v, want %+v", u.Peers[2], want)
	}
	k0, k1 := cfg.subkey(0), cfg.subkey(1)
	if len(k0) == 0 || bytes.Equal(k0, k1) {
		t.Errorf("ring subkeys %x and %x: want two distinct keys", k0, k1)
	}
}
