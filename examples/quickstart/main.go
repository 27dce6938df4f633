// Quickstart: three in-process participants form a ring over the
// in-memory transport, join a group, and exchange totally ordered
// messages through the public accelring facade.
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -obs :6060   # and browse /debug/vars, /debug/ring
//
// Every participant prints the identical delivery sequence — that is the
// total-order guarantee of the Accelerated Ring protocol. With -obs the
// demo keeps the ring running so the debug endpoints stay live.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"accelring"
)

func main() {
	obsAddr := flag.String("obs", "", "serve /debug/vars, /debug/ring and /debug/pprof on this address (e.g. :6060)")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// One shared metrics registry across the three nodes (as one process
	// hosting three participants; real deployments use one per process).
	var reg *accelring.Registry
	var dbg *accelring.DebugServer
	if *obsAddr != "" {
		reg = accelring.NewRegistry()
		var err error
		dbg, err = accelring.StartDebugServer(*obsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("observability: http://%s/debug/vars and /debug/ring\n", dbg.Addr())
	}

	// Short timeouts so the demo forms its ring quickly.
	timeouts := accelring.Timeouts{
		JoinInterval:    10 * time.Millisecond,
		Gather:          50 * time.Millisecond,
		Commit:          100 * time.Millisecond,
		TokenLoss:       250 * time.Millisecond,
		TokenRetransmit: 60 * time.Millisecond,
	}

	// Start three participants with the Accelerated Ring protocol:
	// personal window 10, global window 100, accelerated window 7.
	hub := accelring.NewHub()
	if reg != nil {
		hub.SetObserver(reg) // transport.inmem.* frame counters + bufpool.* gauges
	}
	var nodes []*accelring.Node
	for id := accelring.ProcID(1); id <= 3; id++ {
		ep, err := hub.Endpoint(id, 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		node, err := accelring.Open(ctx,
			accelring.WithSelf(id),
			accelring.WithWire(accelring.WireConfig{Transport: ep}),
			accelring.WithWindows(10, 100, 7),
			accelring.WithTimeouts(timeouts),
			accelring.WithObserver(reg), // nil is fine: observation disabled
		)
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		if dbg != nil {
			dbg.Add(fmt.Sprintf("node%d", id), node.Recorder())
		}
		nodes = append(nodes, node)
	}

	// Wait for the ring to form and join a common group.
	for _, n := range nodes {
		if err := n.WaitReady(ctx); err != nil {
			log.Fatalf("ring did not form: %v", err)
		}
	}
	fmt.Println("ring formed:", nodes[0].View())
	for _, n := range nodes {
		if err := n.Join("chat"); err != nil {
			log.Fatal(err)
		}
	}
	// Everyone waits until the agreed view holds all three members.
	for _, n := range nodes {
		for {
			ev, err := n.Receive(ctx)
			if err != nil {
				log.Fatal(err)
			}
			if v, ok := ev.(*accelring.GroupView); ok && len(v.Members) == 3 {
				break
			}
		}
	}

	// Everyone multicasts concurrently; Agreed delivery totally orders it
	// all, and Safe delivery waits until every member has the message.
	for i, n := range nodes {
		for k := 0; k < 3; k++ {
			msg := fmt.Sprintf("hello %d from node %d", k, i+1)
			if err := n.Send(accelring.Agreed, []byte(msg), "chat"); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := nodes[0].Send(accelring.Safe, []byte("and this one is Safe"), "chat"); err != nil {
		log.Fatal(err)
	}

	// Collect the 10 deliveries at every node.
	delivered := make(map[accelring.ProcID][]string)
	for _, n := range nodes {
		id := n.ID().Daemon
		for len(delivered[id]) < 10 {
			ev, err := n.Receive(ctx)
			if err != nil {
				log.Fatal(err)
			}
			if m, ok := ev.(*accelring.Message); ok {
				delivered[id] = append(delivered[id],
					fmt.Sprintf("%s from=%v %q", m.Service, m.Sender, m.Payload))
			}
		}
	}

	for id := accelring.ProcID(1); id <= 3; id++ {
		fmt.Printf("\nparticipant %d delivered %d messages:\n", id, len(delivered[id]))
		for _, line := range delivered[id] {
			fmt.Println("  ", line)
		}
	}
	same := fmt.Sprint(delivered[1]) == fmt.Sprint(delivered[2]) &&
		fmt.Sprint(delivered[2]) == fmt.Sprint(delivered[3])
	fmt.Printf("\nall participants delivered the identical sequence: %v\n", same)

	if dbg != nil {
		fmt.Printf("\nring still running; metrics live at http://%s/debug/vars (Ctrl-C to exit)\n", dbg.Addr())
		keepBusy(ctx, nodes)
	}
}

// keepBusy trickles traffic so the debug endpoints show a moving system.
func keepBusy(ctx context.Context, nodes []*accelring.Node) {
	// Drain events so slow-consumer protection never trips.
	for _, n := range nodes {
		n := n
		go func() {
			for {
				if _, err := n.Receive(context.Background()); err != nil {
					return
				}
			}
		}()
	}
	i := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(100 * time.Millisecond):
		}
		i++
		msg := fmt.Sprintf("tick %d", i)
		if err := nodes[i%len(nodes)].Send(accelring.Agreed, []byte(msg), "chat"); err != nil {
			return
		}
	}
}
