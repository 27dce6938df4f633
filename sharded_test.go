package accelring

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"accelring/internal/obs"
)

// openShardedCluster starts nn facade nodes, each running `shards` rings
// over per-ring hubs, and waits until every ring on every node is ready.
func openShardedCluster(t *testing.T, nn, shards int, opts ...Option) []*Node {
	t.Helper()
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
		all := append([]Option{
			WithSelf(ProcID(i + 1)),
			WithShards(shards),
			WithWire(WireConfig{Transports: ts}),
			WithWindows(10, 100, 7),
			WithTimeouts(fastTimeouts()),
		}, opts...)
		n, err := Open(ctx, all...)
		if err != nil {
			t.Fatalf("Open node %d: %v", i+1, err)
		}
		nodes[i] = n
		t.Cleanup(func() { n.Close() })
	}
	for _, n := range nodes {
		if err := n.WaitReady(ctx); err != nil {
			t.Fatalf("WaitReady: %v", err)
		}
	}
	return nodes
}

func TestShardsValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr error
	}{
		{"shards default to one", func(c *Config) { c.Shards = 0 }, nil},
		{"negative shards", func(c *Config) { c.Shards = -1 }, ErrBadShards},
		{"too many shards", func(c *Config) { c.Shards = MaxShards + 1 }, ErrBadShards},
		{"single transport with shards", func(c *Config) {
			c.Shards = 2
			ep, _ := NewHub().Endpoint(1, 0, 0)
			c.Wire = WireConfig{Transport: ep}
		}, ErrBadShards},
		{"transports length mismatch", func(c *Config) {
			c.Shards = 2
			ep, _ := NewHub().Endpoint(1, 0, 0)
			c.Wire = WireConfig{Transports: []Transport{ep}}
		}, ErrBadShards},
		{"nil per-ring transport", func(c *Config) {
			c.Shards = 2
			ep, _ := NewHub().Endpoint(1, 0, 0)
			c.Wire = WireConfig{Transports: []Transport{ep, nil}}
		}, ErrBadShards},
		{"sharded UDP with numeric ports", func(c *Config) { c.Shards = 2 }, nil},
		{"sharded UDP with ephemeral port", func(c *Config) {
			c.Shards = 2
			c.Wire.Listen.Data = "127.0.0.1:0"
		}, ErrShardPorts},
		{"sharded UDP with service-name port", func(c *Config) {
			c.Shards = 2
			c.Wire.Peers[2] = UDPAddrs{Data: "127.0.0.1:domain"}
		}, ErrShardPorts},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validUDPConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Validate() = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestRingOfExported(t *testing.T) {
	// Pinned alongside the internal goldens: the public hash is the same
	// stable function every node routes by.
	if got := RingOf("g-0", 2); got != 1 {
		t.Fatalf("RingOf(g-0, 2) = %d, want 1", got)
	}
	if got := RingOf("g-1", 2); got != 0 {
		t.Fatalf("RingOf(g-1, 2) = %d, want 0", got)
	}
}

// TestShardedNodeOrder drives the sharded facade end to end: groups land
// on distinct rings, every member delivers each group's stream in one
// identical order, and a ring-spanning send splits per ring.
func TestShardedNodeOrder(t *testing.T) {
	nodes := openShardedCluster(t, 3, 2)

	gA, gB := "g-0", "g-1" // ring 1 and ring 0, pinned
	if nodes[0].RingFor(gA) == nodes[0].RingFor(gB) {
		t.Fatal("test groups collapsed onto one ring")
	}
	for _, n := range nodes {
		if n.Shards() != 2 {
			t.Fatalf("Shards() = %d", n.Shards())
		}
		for _, g := range []string{gA, gB} {
			if err := n.Join(g); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Wait until everyone agrees both groups have all three members.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		full := true
		for _, n := range nodes {
			if len(n.Members(gA)) != 3 || len(n.Members(gB)) != 3 {
				full = false
			}
		}
		if full {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	const perSender = 15
	for k := 0; k < perSender; k++ {
		for i, n := range nodes {
			for _, g := range []string{gA, gB} {
				if err := n.Send(Agreed, []byte(fmt.Sprintf("%s/n%d/%d", g, i, k)), g); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Each node delivers 3*perSender messages per group; streams must be
	// identical across nodes group by group.
	want := 3 * perSender
	streams := make([]map[string][]string, len(nodes))
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for i, n := range nodes {
		streams[i] = map[string][]string{}
		got := 0
		for got < 2*want {
			ev, err := n.Receive(ctx)
			if err != nil {
				t.Fatalf("node %d after %d messages: %v", i+1, got, err)
			}
			m, isMsg := ev.(*Message)
			if !isMsg {
				continue
			}
			if len(m.Groups) != 1 {
				t.Fatalf("single-group send delivered with groups %v", m.Groups)
			}
			streams[i][m.Groups[0]] = append(streams[i][m.Groups[0]], string(m.Payload))
			got++
		}
	}
	for _, g := range []string{gA, gB} {
		ref := streams[0][g]
		if len(ref) != want {
			t.Fatalf("node 1 delivered %d in %s, want %d", len(ref), g, want)
		}
		for i := 1; i < len(streams); i++ {
			if len(streams[i][g]) != want {
				t.Fatalf("node %d delivered %d in %s, want %d", i+1, len(streams[i][g]), g, want)
			}
			for k := range ref {
				if streams[i][g][k] != ref[k] {
					t.Fatalf("group %s delivery %d diverged: node %d %q, node 1 %q",
						g, k, i+1, streams[i][g][k], ref[k])
				}
			}
		}
	}

	// A send spanning both rings splits into one ordered copy per ring.
	if err := nodes[0].Send(Agreed, []byte("both"), gA, gB); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for len(seen) < 2 {
		ev, err := nodes[1].Receive(ctx)
		if err != nil {
			t.Fatalf("waiting for split send: %v", err)
		}
		if m, isMsg := ev.(*Message); isMsg && string(m.Payload) == "both" {
			if len(m.Groups) != 1 {
				t.Fatalf("split copy carries groups %v", m.Groups)
			}
			seen[m.Groups[0]] = true
		}
	}
	if !seen[gA] || !seen[gB] {
		t.Fatalf("split send did not cover both rings: %v", seen)
	}
}

// TestShardedViewChangeRings checks that every ring announces its own
// tagged ViewChange and per-ring views are queryable.
func TestShardedViewChangeRings(t *testing.T) {
	nodes := openShardedCluster(t, 2, 2)
	n := nodes[0]

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ringsSeen := map[int]bool{}
	for len(ringsSeen) < 2 {
		ev, err := n.Receive(ctx)
		if err != nil {
			t.Fatalf("waiting for view changes: %v", err)
		}
		if vc, isVC := ev.(*ViewChange); isVC {
			if vc.Ring < 0 || vc.Ring >= 2 {
				t.Fatalf("ViewChange.Ring = %d", vc.Ring)
			}
			if !vc.Transitional {
				ringsSeen[vc.Ring] = true
			}
		}
	}
	for r := 0; r < 2; r++ {
		if n.ViewOf(r).IsZero() {
			t.Fatalf("ring %d view still zero after ready", r)
		}
	}
	if n.View() != n.ViewOf(0) {
		t.Fatal("View() is not ring 0's view")
	}
}

// TestShardedObserver checks per-ring metric labels and that the node's
// one recorder keeps the rings' token rounds apart by label.
func TestShardedObserver(t *testing.T) {
	reg := NewRegistry()
	nodes := openShardedCluster(t, 2, 2, WithObserver(reg))
	n := nodes[0]

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rounds := obs.Rounds(n.Recorder().Snapshot(0))
		if reg.Counter("shard0.ring.rounds").Value() > 0 &&
			reg.Counter("shard1.ring.rounds").Value() > 0 &&
			len(rounds["shard0"]) > 0 && len(rounds["shard1"]) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("per-ring round counters never incremented: shard0=%d shard1=%d",
		reg.Counter("shard0.ring.rounds").Value(),
		reg.Counter("shard1.ring.rounds").Value())
}
