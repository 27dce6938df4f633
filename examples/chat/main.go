// Chat: the full client-daemon architecture over real UDP sockets.
//
//	go run ./examples/chat
//
// Three ordering daemons (one per "host") form a ring over UDP on
// loopback, exactly as cmd/ringdaemon deploys them. Three chat clients
// connect to their local daemons over TCP, join the #general group, and
// exchange messages with open-group, multi-group, and total-order
// semantics — everyone prints the identical transcript.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"accelring/internal/client"
	"accelring/internal/daemon"
	"accelring/internal/evs"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/transport"
)

func main() {
	const hosts = 3

	obsAddr := flag.String("obs", "", "serve /debug/vars, /debug/ring and /debug/pprof on this address (e.g. :6060)")
	flag.Parse()

	// One registry for all three daemons (this demo hosts them in one
	// process; a real deployment passes -obs to each ringdaemon).
	var reg *obs.Registry
	var dbg *obs.Server
	if *obsAddr != "" {
		reg = obs.NewRegistry()
		var err error
		dbg, err = obs.StartServer(*obsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("observability: http://%s/debug/vars\n", dbg.Addr())
	}

	// Open the UDP transports first so every daemon can learn the
	// others' ports, then interconnect them (in a real deployment these
	// are fixed addresses in a config file; see cmd/ringdaemon).
	transports := make([]*transport.UDP, hosts)
	for i := range transports {
		u, err := transport.NewUDP(transport.UDPConfig{
			Self:   evs.ProcID(i + 1),
			Listen: transport.UDPPeer{Data: "127.0.0.1:0"},
			Obs:    reg,
		})
		if err != nil {
			log.Fatal(err)
		}
		transports[i] = u
	}
	for i, u := range transports {
		for j, peer := range transports {
			if i != j {
				if err := u.AddPeer(evs.ProcID(j+1), peer.LocalAddrs()); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	// Start the daemons.
	daemons := make([]*daemon.Daemon, hosts)
	for i := range daemons {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		ringCfg := ringnode.Accelerated(evs.ProcID(i+1), transports[i], 20, 160, 15)
		ringCfg.Timeouts = membership.Timeouts{
			JoinInterval:    10 * time.Millisecond,
			Gather:          60 * time.Millisecond,
			Commit:          120 * time.Millisecond,
			TokenLoss:       300 * time.Millisecond,
			TokenRetransmit: 75 * time.Millisecond,
		}
		if reg != nil {
			flight := obs.NewRecorder(0)
			ringCfg.Observer = &obs.RingObserver{Reg: reg, Flight: flight}
			dbg.Add(fmt.Sprintf("daemon%d", i+1), flight)
		}
		d, err := daemon.Start(daemon.Config{Ring: ringCfg, Listener: ln, Obs: reg})
		if err != nil {
			log.Fatal(err)
		}
		defer d.Stop()
		daemons[i] = d
	}
	for i, d := range daemons {
		if !d.WaitOperational(10 * time.Second) {
			log.Fatalf("daemon %d did not become operational", i+1)
		}
	}
	fmt.Println("daemons up, ring:", daemons[0].RingNode(0).Status().Ring)

	// Connect one chat client per daemon and join #general.
	names := []string{"alice", "bob", "carol"}
	clients := make([]*client.Client, hosts)
	transcripts := make([][]string, hosts)
	fullView := make([]chan struct{}, hosts)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := range clients {
		c, err := client.Dial("tcp", daemons[i].Addr().String(), names[i])
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		if err := c.Join("#general"); err != nil {
			log.Fatal(err)
		}
		i := i
		fullView[i] = make(chan struct{})
		var sawFull bool
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range c.Events() {
				switch e := ev.(type) {
				case *client.Message:
					mu.Lock()
					transcripts[i] = append(transcripts[i],
						fmt.Sprintf("[%v] %s", e.Sender, e.Payload))
					mu.Unlock()
				case *client.View:
					fmt.Printf("%s sees %s = %v\n", names[i], e.Group, e.Members)
					if !sawFull && len(e.Members) == hosts {
						sawFull = true
						close(fullView[i])
					}
				}
			}
		}()
	}

	// Wait until every client saw the complete 3-member view, so the
	// chat lines below reach everyone.
	for i, ready := range fullView {
		select {
		case <-ready:
		case <-time.After(10 * time.Second):
			log.Fatalf("%s never saw the full view", names[i])
		}
	}

	// Chat! Everyone talks at once; the ring orders it.
	lines := map[int][]string{
		0: {"hi all", "how is the paper reproduction going?"},
		1: {"hello!", "the token is fast today"},
		2: {"hey", "accelerated indeed"},
	}
	for i, c := range clients {
		for _, line := range lines[i] {
			if err := c.Multicast(evs.Agreed, []byte(line), "#general"); err != nil {
				log.Fatal(err)
			}
		}
	}

	// An "announcer" that never joined sends to the group anyway — open
	// group semantics — and to a second group in the same message.
	announcer, err := client.Dial("tcp", daemons[0].Addr().String(), "announcer")
	if err != nil {
		log.Fatal(err)
	}
	defer announcer.Close()
	if err := announcer.Multicast(evs.Safe, []byte("<maintenance at noon>"), "#general", "#ops"); err != nil {
		log.Fatal(err)
	}

	time.Sleep(1 * time.Second)
	for _, c := range clients {
		c.Close()
	}
	wg.Wait()

	total := 7 // 6 chat lines + 1 announcement
	fmt.Println("\ntranscripts:")
	same := true
	for i, tr := range transcripts {
		fmt.Printf("-- %s (%d lines)\n", names[i], len(tr))
		for _, l := range tr {
			fmt.Println("   ", l)
		}
		if len(tr) != total || fmt.Sprint(tr) != fmt.Sprint(transcripts[0]) {
			same = false
		}
	}
	fmt.Printf("\nall transcripts identical: %v\n", same)
	if !same {
		log.Fatal("transcripts diverged")
	}
}
