package ringnode

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/faults"
	"accelring/internal/transport"
)

// TestStressJitterLossAndReorder runs the full stack under randomized
// delivery delays (which reorder frames, as UDP may) plus 10% data loss,
// and verifies total order and complete delivery.
func TestStressJitterLossAndReorder(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	hub := transport.NewHub()
	var plan faults.Plan
	plan.Add(faults.Rule{Name: "data-loss", Classes: faults.ClassData, Model: faults.Loss{P: 0.10}})
	// Jitter the token mildly; heavy token delay just slows rounds.
	plan.Add(faults.Rule{Name: "token-jitter", Classes: faults.ClassToken,
		Model: faults.Delay{Max: 300 * time.Microsecond}})
	// Data frames get up to 2 ms of jitter — enough to overtake the token
	// and each other.
	plan.Add(faults.Rule{Name: "data-jitter", Classes: faults.ClassData,
		Model: faults.Delay{Max: 2 * time.Millisecond}})
	hub.SetInjector(faults.New(17, plan))

	const n = 4
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
		// Generous token-loss timeout: jitter must not masquerade as
		// failure for this test.
		cfg.Timeouts.TokenLoss = 500 * time.Millisecond
		cfg.Timeouts.TokenRetransmit = 100 * time.Millisecond
		cfg.OnEvent = log.add
		node, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		nodes[i] = node
		logs[i] = log
	}
	waitFullRing(t, nodes, n, 15*time.Second)

	const perNode = 50
	var wg sync.WaitGroup
	for i, node := range nodes {
		i, node := i, node
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				svc := evs.Agreed
				if k%3 == 0 {
					svc = evs.Safe
				}
				for {
					err := node.Submit([]byte(fmt.Sprintf("s-%d-%d", i, k)), svc)
					if err == nil {
						break
					}
					time.Sleep(2 * time.Millisecond) // reforming; retry
				}
			}
		}()
	}
	wg.Wait()
	waitMessages(t, logs, perNode*n, 60*time.Second)

	ref := logs[0].messages()
	for i, l := range logs {
		ms := l.messages()
		if len(ms) < perNode*n {
			t.Fatalf("node %d delivered %d", i, len(ms))
		}
		for k := range ref {
			if ms[k].Seq != ref[k].Seq || string(ms[k].Payload) != string(ref[k].Payload) {
				t.Fatalf("total order violated at %d on node %d under jitter+loss", k, i)
			}
		}
	}
	// The stress must have actually exercised retransmission.
	var retrans uint64
	for _, n := range nodes {
		retrans += n.Status().Engine.Retransmitted
	}
	if retrans == 0 {
		t.Fatal("no retransmissions under 10% loss; test is vacuous")
	}
	t.Logf("stress: %d retransmissions, %d installs at node 0",
		retrans, nodes[0].Status().Membership.Installs)
}
