package accelring

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"
)

// freeUDPPorts reserves n distinct ephemeral UDP ports and returns them.
// The sockets are closed before returning, so a parallel process could
// in principle grab one — acceptable for tests.
func freeUDPPorts(t *testing.T, n int) []int {
	t.Helper()
	conns := make([]net.PacketConn, n)
	ports := make([]int, n)
	for i := range conns {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		ports[i] = c.LocalAddr().(*net.UDPAddr).Port
	}
	for _, c := range conns {
		c.Close()
	}
	return ports
}

// TestOpenWithWireUDP opens a two-node ring through the unified
// WithWire option — unicast mode with adaptive packing on — and checks ordered delivery end to end over real UDP
// sockets.
func TestOpenWithWireUDP(t *testing.T) {
	ports := freeUDPPorts(t, 2)
	addrs := []UDPAddrs{
		{Data: fmt.Sprintf("127.0.0.1:%d", ports[0])},
		{Data: fmt.Sprintf("127.0.0.1:%d", ports[1])},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	nodes := make([]*Node, 2)
	for i := range nodes {
		peers := map[ProcID]UDPAddrs{}
		for j := range addrs {
			if j != i {
				peers[ProcID(j+1)] = addrs[j]
			}
		}
		n, err := Open(ctx,
			WithSelf(ProcID(i+1)),
			WithWire(WireConfig{
				Listen:  addrs[i],
				Peers:   peers,
				Packing: true,
			}),
			WithWindows(10, 100, 7),
			WithTimeouts(fastTimeouts()),
		)
		if err != nil {
			t.Fatalf("Open node %d with WithWire: %v", i+1, err)
		}
		nodes[i] = n
		t.Cleanup(func() { n.Close() })
	}
	for _, n := range nodes {
		if err := n.WaitReady(ctx); err != nil {
			t.Fatalf("node %v WaitReady: %v", n.ID(), err)
		}
	}

	for _, n := range nodes {
		if err := n.Join("wire"); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		for {
			v := nextEvent[*GroupView](t, n)
			if v.Group == "wire" && len(v.Members) == 2 {
				break
			}
		}
	}
	const per = 10
	for i, n := range nodes {
		for j := 0; j < per; j++ {
			if err := n.Send(Agreed, []byte(fmt.Sprintf("w%d-%d", i+1, j)), "wire"); err != nil {
				t.Fatal(err)
			}
		}
	}
	var sequences [2][]string
	for i, n := range nodes {
		for len(sequences[i]) < 2*per {
			m := nextEvent[*Message](t, n)
			sequences[i] = append(sequences[i], fmt.Sprintf("%v:%s", m.Sender, m.Payload))
		}
	}
	for j := range sequences[0] {
		if sequences[0][j] != sequences[1][j] {
			t.Fatalf("order diverged at %d: %q vs %q", j, sequences[0][j], sequences[1][j])
		}
	}
}

// TestOpenWithWireSharded proves WithWire carries per-ring transports
// for a sharded node (the WireConfig.Transports path).
func TestOpenWithWireSharded(t *testing.T) {
	const nn, shards = 2, 2
	hubs := make([]*Hub, shards)
	for r := range hubs {
		hubs[r] = NewHub()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	nodes := make([]*Node, nn)
	for i := 0; i < nn; i++ {
		ts := make([]Transport, shards)
		for r := range ts {
			ep, err := hubs[r].Endpoint(ProcID(i+1), 4096, 64)
			if err != nil {
				t.Fatal(err)
			}
			ts[r] = ep
		}
		n, err := Open(ctx,
			WithSelf(ProcID(i+1)),
			WithShards(shards),
			WithWire(WireConfig{Transports: ts}),
			WithWindows(10, 100, 7),
			WithTimeouts(fastTimeouts()),
		)
		if err != nil {
			t.Fatalf("Open sharded node %d with WithWire: %v", i+1, err)
		}
		nodes[i] = n
		t.Cleanup(func() { n.Close() })
	}
	for _, n := range nodes {
		if err := n.WaitReady(ctx); err != nil {
			t.Fatalf("WaitReady: %v", err)
		}
	}
	// One group lands on some shard; both members converge and order.
	for _, n := range nodes {
		if err := n.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		for {
			v := nextEvent[*GroupView](t, n)
			if v.Group == "g" && len(v.Members) == nn {
				break
			}
		}
	}
	if err := nodes[0].Send(Agreed, []byte("sharded-wire"), "g"); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if m := nextEvent[*Message](t, n); string(m.Payload) != "sharded-wire" {
			t.Fatalf("node %v delivered %q", n.ID(), m.Payload)
		}
	}
}
