package ringnode

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/transport"
)

// startPackedHubNodes is startHubNodes with adaptive message packing
// enabled on every node.
func startPackedHubNodes(t *testing.T, n int) ([]*Node, []*eventLog) {
	t.Helper()
	hub := transport.NewHub()
	nodes := make([]*Node, n)
	logs := make([]*eventLog, n)
	for i := 0; i < n; i++ {
		id := evs.ProcID(i + 1)
		ep, err := hub.Endpoint(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		log := &eventLog{}
		cfg := Accelerated(id, ep, 10, 100, 7)
		cfg.Timeouts = fastTimeouts()
		cfg.OnEvent = log.add
		cfg.Packing = true
		node, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		nodes[i] = node
		logs[i] = log
	}
	return nodes, logs
}

// TestPackedRingOrders drives a packed ring under enough load to form
// multi-message bundles and requires every node to deliver every
// payload, unpacked, in the identical total order — packing must be
// invisible above the transport.
func TestPackedRingOrders(t *testing.T) {
	nodes, logs := startPackedHubNodes(t, 3)
	waitFullRing(t, nodes, 3, 5*time.Second)

	const perNode = 40
	for i, n := range nodes {
		for k := 0; k < perNode; k++ {
			if err := n.Submit([]byte(fmt.Sprintf("p-%d-%03d", i, k)), evs.Agreed); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
	}
	total := perNode * len(nodes)
	waitMessages(t, logs, total, 10*time.Second)

	ref := logs[0].messages()
	for i, l := range logs {
		ms := l.messages()
		if len(ms) != total {
			t.Fatalf("node %d delivered %d, want %d", i, len(ms), total)
		}
		for k := range ms {
			if ms[k].Seq != ref[k].Seq || !bytes.Equal(ms[k].Payload, ref[k].Payload) {
				t.Fatalf("total order violated at %d on node %d: %q vs %q",
					k, i, ms[k].Payload, ref[k].Payload)
			}
		}
	}
	// Per-sender FIFO survives bundling: each node's payloads appear in
	// submission order within the total order.
	for i := range nodes {
		next := 0
		prefix := fmt.Sprintf("p-%d-", i)
		for _, m := range ref {
			if !bytes.HasPrefix(m.Payload, []byte(prefix)) {
				continue
			}
			want := fmt.Sprintf("p-%d-%03d", i, next)
			if string(m.Payload) != want {
				t.Fatalf("sender %d FIFO violated: got %q, want %q", i, m.Payload, want)
			}
			next++
		}
		if next != perNode {
			t.Fatalf("sender %d: %d payloads in order, want %d", i, next, perNode)
		}
	}
}

// TestPackedOversizeSolo checks that a payload too large for the bundle
// budget still travels (solo-framed) on a packed ring, interleaved with
// small bundled messages.
func TestPackedOversizeSolo(t *testing.T) {
	nodes, logs := startPackedHubNodes(t, 2)
	waitFullRing(t, nodes, 2, 5*time.Second)

	big := bytes.Repeat([]byte{0xBB}, 4000) // far over the pack.DefaultLimit bundle budget
	if err := nodes[0].Submit([]byte("small-before"), evs.Agreed); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Submit(big, evs.Agreed); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Submit([]byte("small-after"), evs.Agreed); err != nil {
		t.Fatal(err)
	}
	waitMessages(t, logs, 3, 5*time.Second)
	for i, l := range logs {
		ms := l.messages()
		if string(ms[0].Payload) != "small-before" || !bytes.Equal(ms[1].Payload, big) ||
			string(ms[2].Payload) != "small-after" {
			t.Fatalf("node %d delivered wrong sequence: %d/%d/%d bytes",
				i, len(ms[0].Payload), len(ms[1].Payload), len(ms[2].Payload))
		}
	}
}

// TestPackedMixedServices: Agreed and Safe messages never share a
// bundle (a bundle carries one service class), but both classes deliver
// with their own guarantees on a packed ring.
func TestPackedMixedServices(t *testing.T) {
	nodes, logs := startPackedHubNodes(t, 3)
	waitFullRing(t, nodes, 3, 5*time.Second)

	for k := 0; k < 10; k++ {
		svc := evs.Agreed
		if k%2 == 1 {
			svc = evs.Safe
		}
		if err := nodes[0].Submit([]byte(fmt.Sprintf("mix-%d", k)), svc); err != nil {
			t.Fatal(err)
		}
	}
	waitMessages(t, logs, 10, 10*time.Second)
	for i, l := range logs {
		ms := l.messages()
		for k, m := range ms {
			wantSvc := evs.Agreed
			if k%2 == 1 {
				wantSvc = evs.Safe
			}
			if string(m.Payload) != fmt.Sprintf("mix-%d", k) || m.Service != wantSvc {
				t.Fatalf("node %d message %d: %q service %v", i, k, m.Payload, m.Service)
			}
		}
	}
}
