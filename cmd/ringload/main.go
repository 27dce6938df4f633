// Command ringload measures the real (wall-clock, UDP sockets, kernel
// scheduling) daemon stack end to end: client → daemon → ring → daemons →
// clients. By default it is self-contained: it spins up N daemons over UDP
// on loopback, attaches one sending and one receiving client per daemon
// (the paper's benchmark arrangement), offers load at a fixed rate, and
// reports goodput and delivery latency. A sender whose multicast fails
// ends the run with that error.
//
//	ringload -nodes 4 -rate 5000 -payload 1350 -duration 5s
//	ringload -daemons 127.0.0.1:4801,127.0.0.1:4802   # external daemons
//	ringload -nodes 2 -churn 8                         # session churn under load
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accelring/internal/client"
	"accelring/internal/daemon"
	"accelring/internal/evs"
	"accelring/internal/ringnode"
	"accelring/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ringload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ringload", flag.ContinueOnError)
	nodes := fs.Int("nodes", 4, "daemons to spawn in self-contained mode")
	rate := fs.Float64("rate", 5000, "aggregate injection rate, messages/second")
	payload := fs.Int("payload", 1350, "payload bytes per message (>= 8)")
	duration := fs.Duration("duration", 5*time.Second, "measurement duration")
	warmup := fs.Duration("warmup", time.Second, "warmup before measuring")
	daemonsFlag := fs.String("daemons", "", "comma-separated client addresses of external daemons (skips self-contained setup)")
	churn := fs.Int("churn", 0, "churning sessions per daemon: each repeatedly connects, joins, sends, and disconnects for the whole run (session-lifecycle stress)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *payload < 8 {
		return fmt.Errorf("-payload must be at least 8 (latency stamp)")
	}
	if *churn < 0 {
		return fmt.Errorf("-churn must be non-negative")
	}

	var addrs []string
	if *daemonsFlag != "" {
		addrs = strings.Split(*daemonsFlag, ",")
	} else {
		var stop func()
		var err error
		addrs, stop, err = selfContained(*nodes)
		if err != nil {
			return err
		}
		defer stop()
	}
	return measure(addrs, *rate, *payload, *warmup, *duration, *churn)
}

// selfContained spins up n daemons on one Accelerated Ring over UDP
// loopback and returns their client addresses and a stop function.
func selfContained(n int) ([]string, func(), error) {
	transports := make([]*transport.UDP, n)
	for i := range transports {
		u, err := transport.NewUDP(transport.UDPConfig{
			Self:   evs.ProcID(i + 1),
			Listen: transport.UDPPeer{Data: "127.0.0.1:0"},
		})
		if err != nil {
			return nil, nil, err
		}
		transports[i] = u
	}
	for i, u := range transports {
		for j, peer := range transports {
			if i != j {
				if err := u.AddPeer(evs.ProcID(j+1), peer.LocalAddrs()); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	daemons := make([]*daemon.Daemon, n)
	addrs := make([]string, n)
	for i, u := range transports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		d, err := daemon.Start(daemon.Config{
			Ring:     ringnode.Accelerated(evs.ProcID(i+1), u, 20, 160, 15),
			Listener: ln,
		})
		if err != nil {
			return nil, nil, err
		}
		daemons[i] = d
		addrs[i] = ln.Addr().String()
	}
	for i, d := range daemons {
		if !d.WaitOperational(15 * time.Second) {
			return nil, nil, fmt.Errorf("daemon %d did not become operational", i+1)
		}
	}
	fmt.Fprintf(os.Stderr, "self-contained: %d daemons over UDP, ring %v\n",
		n, daemons[0].RingNode(0).Status().Ring)
	stop := func() {
		for _, d := range daemons {
			d.Stop()
		}
	}
	return addrs, stop, nil
}

// measure attaches a sender and a receiver client per daemon, offers load,
// and reports results. The first sender whose multicast fails ends the
// run early, and measure returns its error.
func measure(addrs []string, rate float64, payloadBytes int,
	warmup, duration time.Duration, churn int) error {
	const groupName = "bench"
	n := len(addrs)

	// Receivers: every receiver joins the group and records latencies.
	var mu sync.Mutex
	var lats []time.Duration
	var delivered int
	var receivers []*client.Client
	var wg sync.WaitGroup
	measStart := time.Now().Add(warmup)
	measEnd := measStart.Add(duration)
	for _, addr := range addrs {
		rc, err := client.Dial("tcp", addr, "recv")
		if err != nil {
			return err
		}
		defer rc.Close()
		receivers = append(receivers, rc)
		if err := rc.Join(groupName); err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range rc.Events() {
				m, ok := ev.(*client.Message)
				if !ok || len(m.Payload) < 8 {
					continue
				}
				sent := time.Unix(0, int64(binary.BigEndian.Uint64(m.Payload)))
				now := time.Now()
				if sent.Before(measStart) || !sent.Before(measEnd) {
					continue
				}
				mu.Lock()
				lats = append(lats, now.Sub(sent))
				delivered++
				mu.Unlock()
			}
		}()
	}

	// Senders: one per daemon at rate/n messages per second.
	stopSend := make(chan struct{})
	sendErr := make(chan error, n)
	var senders sync.WaitGroup
	perSender := rate / float64(n)
	for _, addr := range addrs {
		sc, err := client.Dial("tcp", addr, "send")
		if err != nil {
			return err
		}
		defer sc.Close()
		senders.Add(1)
		go func() {
			defer senders.Done()
			interval := time.Duration(float64(time.Second) / perSender)
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			buf := make([]byte, payloadBytes)
			for {
				select {
				case <-stopSend:
					return
				case <-ticker.C:
					binary.BigEndian.PutUint64(buf, uint64(time.Now().UnixNano()))
					payload := append([]byte(nil), buf...)
					if err := sc.Multicast(evs.Agreed, payload, groupName); err != nil {
						sendErr <- fmt.Errorf("sender to %s: %w", addr, err)
						return
					}
				}
			}
		}()
	}

	// Churners: short-lived sessions cycling connect → join → send →
	// disconnect for the whole run, stressing the daemon's session
	// lifecycle (ordered joins/leaves, outbox setup/teardown) alongside
	// the steady load.
	var churned atomic.Int64
	var churners sync.WaitGroup
	for ci := 0; ci < churn*n; ci++ {
		churners.Add(1)
		go func(ci int) {
			defer churners.Done()
			addr := addrs[ci%n]
			g := fmt.Sprintf("churn-%d", ci%8)
			msg := make([]byte, 64)
			for {
				select {
				case <-stopSend:
					return
				default:
				}
				cc, err := client.Dial("tcp", addr, "churn")
				if err != nil {
					time.Sleep(10 * time.Millisecond)
					continue
				}
				if cc.Join(g) == nil && cc.Multicast(evs.Agreed, msg, g) == nil {
					churned.Add(1)
				}
				cc.Close()
			}
		}(ci)
	}

	var err error
	select {
	case <-time.After(warmup + duration + 500*time.Millisecond):
	case err = <-sendErr:
	}
	close(stopSend)
	senders.Wait()
	churners.Wait()
	for _, rc := range receivers {
		rc.Close()
	}
	wg.Wait()
	if err != nil {
		return err
	}

	mu.Lock()
	defer mu.Unlock()
	if len(lats) == 0 {
		return fmt.Errorf("no deliveries measured")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	mean := sum / time.Duration(len(lats))
	p50 := lats[len(lats)/2]
	p99 := lats[len(lats)*99/100]
	// Goodput: distinct messages = deliveries / receivers.
	msgs := float64(delivered) / float64(n)
	goodput := msgs * float64(payloadBytes) * 8 / duration.Seconds() / 1e6

	fmt.Printf("service=%v payload=%dB offered=%.0f msg/s over %v\n", evs.Agreed, payloadBytes, rate, duration)
	fmt.Printf("ordered: %.0f msg/s (%.1f Mbps goodput)\n", msgs/duration.Seconds(), goodput)
	fmt.Printf("latency: mean=%v p50=%v p99=%v max=%v (n=%d deliveries)\n",
		mean.Round(time.Microsecond), p50.Round(time.Microsecond),
		p99.Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond), len(lats))
	if churn > 0 {
		total := churned.Load()
		fmt.Printf("churn: %d sessions cycled (%.0f /s across %d churners)\n",
			total, float64(total)/(warmup+duration).Seconds(), churn*n)
	}
	return nil
}
