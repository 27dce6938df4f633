// Command ringload measures the real (wall-clock, UDP sockets, kernel
// scheduling) daemon stack end to end: client → daemon → ring → daemons →
// clients. By default it is self-contained: it spins up N daemons over UDP
// on loopback, attaches one sending and one receiving client per daemon
// (the paper's benchmark arrangement), offers load at a fixed rate, and
// reports goodput and delivery latency.
//
//	ringload -nodes 4 -rate 5000 -payload 1350 -duration 5s
//	ringload -nodes 4 -original            # baseline protocol
//	ringload -daemons 127.0.0.1:4801,127.0.0.1:4802   # external daemons
//	ringload -nodes 2 -shards 2 -migrate-every 500ms  # hot-group migration under load
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
	"accelring/internal/obs"
	"accelring/internal/pack"
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
	original := fs.Bool("original", false, "use the original Ring protocol")
	safe := fs.Bool("safe", false, "use Safe delivery instead of Agreed")
	daemonsFlag := fs.String("daemons", "", "comma-separated client addresses of external daemons (skips self-contained setup)")
	churn := fs.Int("churn", 0, "churning sessions per daemon: each repeatedly connects, joins, sends, and disconnects for the whole run (session-lifecycle stress)")
	shards := fs.Int("shards", 1, "self-contained mode: independent rings per daemon with cross-ring merge (see README § Multi-ring sharding)")
	migrateEvery := fs.Duration("migrate-every", 0, "self-contained sharded mode: live-migrate the bench group to the next ring this often during the run, reporting the mean blackout (0 disables)")
	packOn := fs.Bool("pack", false, "self-contained mode: bundle small messages into shared frames under load")
	fanout := fs.Int("fanout", 0, "fan-out mode: one daemon, one publisher, N subscriber sessions; reports frames/s and write syscalls/frame (ignores -nodes/-daemons)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fanout < 0 {
		return fmt.Errorf("-fanout must be non-negative")
	}
	if *fanout > 0 {
		return measureFanout(*fanout, *rate, *payload, *warmup, *duration)
	}
	if *payload < 8 {
		return fmt.Errorf("-payload must be at least 8 (latency stamp)")
	}
	if *churn < 0 {
		return fmt.Errorf("-churn must be non-negative")
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1")
	}
	if *migrateEvery < 0 {
		return fmt.Errorf("-migrate-every must be non-negative")
	}
	if *migrateEvery > 0 && *shards < 2 {
		return fmt.Errorf("-migrate-every needs -shards >= 2 (a group can only migrate between rings)")
	}

	var addrs []string
	var locals []*daemon.Daemon
	if *daemonsFlag != "" {
		if *shards > 1 || *migrateEvery > 0 {
			return fmt.Errorf("-shards/-migrate-every apply to self-contained mode only")
		}
		addrs = strings.Split(*daemonsFlag, ",")
	} else {
		var stop func()
		var err error
		addrs, locals, stop, err = selfContained(*nodes, *shards, *original, *packOn)
		if err != nil {
			return err
		}
		defer stop()
	}

	// The migrator ping-pongs the bench group around the rings while the
	// measured load flows, so the reported latency distribution includes
	// the handoff blackouts (EXPERIMENTS § migrating a hot group).
	var migStop chan struct{}
	var migWG sync.WaitGroup
	var migCount atomic.Int64
	var migBlackout atomic.Int64 // cumulative ns spent inside Migrate
	if *migrateEvery > 0 {
		migStop = make(chan struct{})
		migWG.Add(1)
		go func() {
			defer migWG.Done()
			tick := time.NewTicker(*migrateEvery)
			defer tick.Stop()
			for {
				select {
				case <-migStop:
					return
				case <-tick.C:
					target := (locals[0].RingOfGroup("bench") + 1) % *shards
					start := time.Now()
					if err := locals[0].Migrate("bench", target); err != nil {
						fmt.Fprintf(os.Stderr, "migrate to ring %d: %v\n", target, err)
						continue
					}
					migBlackout.Add(int64(time.Since(start)))
					migCount.Add(1)
				}
			}
		}()
	}

	svc := evs.Agreed
	if *safe {
		svc = evs.Safe
	}
	err := measure(addrs, *rate, *payload, svc, *warmup, *duration, *churn)
	if migStop != nil {
		close(migStop)
		migWG.Wait()
		if n := migCount.Load(); n > 0 {
			fmt.Printf("migrations: %d (every %v), mean blackout %v\n",
				n, *migrateEvery, (time.Duration(migBlackout.Load()) / time.Duration(n)).Round(time.Microsecond))
		}
	}
	return err
}

// selfContained spins up n daemons over UDP loopback — each running
// `shards` independent rings when shards > 1 — and returns their client
// addresses, the daemons themselves, and a stop function.
func selfContained(n, shards int, original, packOn bool) ([]string, []*daemon.Daemon, func(), error) {
	// transports[i][r] is daemon i's endpoint on ring r; every ring is its
	// own fully cross-wired UDP mesh.
	transports := make([][]*transport.UDP, n)
	for i := range transports {
		transports[i] = make([]*transport.UDP, shards)
		for r := range transports[i] {
			u, err := transport.NewUDP(transport.UDPConfig{
				Self:   evs.ProcID(i + 1),
				Listen: transport.UDPPeer{Data: "127.0.0.1:0", Token: "127.0.0.1:0"},
			})
			if err != nil {
				return nil, nil, nil, err
			}
			transports[i][r] = u
		}
	}
	for i := range transports {
		for r, u := range transports[i] {
			for j := range transports {
				if i != j {
					if err := u.AddPeer(evs.ProcID(j+1), transports[j][r].LocalAddrs()); err != nil {
						return nil, nil, nil, err
					}
				}
			}
		}
	}
	daemons := make([]*daemon.Daemon, n)
	addrs := make([]string, n)
	for i := range daemons {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		var ringCfg ringnode.Config
		var ringTr transport.Transport
		if shards == 1 {
			ringTr = transports[i][0]
		}
		if original {
			ringCfg = ringnode.Original(evs.ProcID(i+1), ringTr, 20, 160)
		} else {
			ringCfg = ringnode.Accelerated(evs.ProcID(i+1), ringTr, 20, 160, 15)
		}
		if packOn {
			ringCfg.Packing = &pack.AdaptiveConfig{}
		}
		dcfg := daemon.Config{Ring: ringCfg, Listener: ln}
		if shards > 1 {
			mine := transports[i]
			dcfg.Shards = shards
			dcfg.NewTransport = func(ring int) (transport.Transport, error) {
				return mine[ring], nil
			}
		}
		d, err := daemon.Start(dcfg)
		if err != nil {
			return nil, nil, nil, err
		}
		daemons[i] = d
		addrs[i] = ln.Addr().String()
	}
	for i, d := range daemons {
		if !d.WaitOperational(15 * time.Second) {
			return nil, nil, nil, fmt.Errorf("daemon %d did not become operational", i+1)
		}
	}
	fmt.Fprintf(os.Stderr, "self-contained: %d daemons x %d rings over UDP, ring 0 %v\n",
		n, shards, daemons[0].RingNode(0).Status().Ring)
	stop := func() {
		for _, d := range daemons {
			d.Stop()
		}
	}
	return addrs, daemons, stop, nil
}

// measureFanout is the daemon fan-out figure: one self-contained daemon,
// one publisher, and subs subscriber sessions in one group. The publisher
// multicasts at rate for duration; the daemon's own counters report how
// many write syscalls the encode-once batched writers spent per delivered
// frame.
func measureFanout(subs int, rate float64, payloadBytes int,
	warmup, duration time.Duration) error {
	if payloadBytes < 8 {
		return fmt.Errorf("-payload must be at least 8 (latency stamp)")
	}
	u, err := transport.NewUDP(transport.UDPConfig{
		Self:   1,
		Listen: transport.UDPPeer{Data: "127.0.0.1:0", Token: "127.0.0.1:0"},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	d, err := daemon.Start(daemon.Config{
		Ring:     ringnode.Accelerated(1, u, 20, 160, 15),
		Listener: ln,
		Obs:      reg,
	})
	if err != nil {
		return err
	}
	defer d.Stop()
	if !d.WaitOperational(15 * time.Second) {
		return fmt.Errorf("daemon did not become operational")
	}

	const groupName = "fan"
	var delivered atomic.Int64
	var lastLat atomic.Int64 // most recent delivery latency, ns
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		rc, err := client.Dial("tcp", ln.Addr().String(), fmt.Sprintf("sub%d", i))
		if err != nil {
			return err
		}
		defer rc.Close()
		if err := rc.Join(groupName); err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range rc.Events() {
				if m, ok := ev.(*client.Message); ok && len(m.Payload) >= 8 {
					delivered.Add(1)
					sent := int64(binary.BigEndian.Uint64(m.Payload))
					lastLat.Store(time.Now().UnixNano() - sent)
				}
			}
		}()
	}
	pub, err := client.Dial("tcp", ln.Addr().String(), "pub")
	if err != nil {
		return err
	}
	defer pub.Close()

	fmt.Fprintf(os.Stderr, "fan-out: 1 publisher -> %d subscribers\n", subs)
	// Warm up, then snapshot the counters around the measured window.
	interval := time.Duration(float64(time.Second) / rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	buf := make([]byte, payloadBytes)
	send := func() error {
		binary.BigEndian.PutUint64(buf, uint64(time.Now().UnixNano()))
		return pub.Multicast(evs.Agreed, append([]byte(nil), buf...), groupName)
	}
	warmEnd := time.Now().Add(warmup)
	for time.Now().Before(warmEnd) {
		<-ticker.C
		if err := send(); err != nil {
			return err
		}
	}
	startFrames := reg.Counter("daemon.writer_frames").Value()
	startFlushes := reg.Counter("daemon.writer_flushes").Value()
	startDelivered := delivered.Load()
	startEnc := reg.Counter("daemon.fanout_encodes").Value()
	start := time.Now()
	end := start.Add(duration)
	sent := 0
	for time.Now().Before(end) {
		<-ticker.C
		if err := send(); err != nil {
			return err
		}
		sent++
	}
	time.Sleep(200 * time.Millisecond) // let the tail drain
	elapsed := time.Since(start).Seconds()
	frames := reg.Counter("daemon.writer_frames").Value() - startFrames
	flushes := reg.Counter("daemon.writer_flushes").Value() - startFlushes
	got := delivered.Load() - startDelivered
	encodes := reg.Counter("daemon.fanout_encodes").Value() - startEnc

	fmt.Printf("fanout=%d payload=%dB offered=%.0f msg/s over %v\n", subs, payloadBytes, rate, duration)
	fmt.Printf("delivered: %.0f frames/s to subscribers (%d total, %d sent)\n",
		float64(got)/elapsed, got, sent)
	if frames > 0 {
		fmt.Printf("writer: %d frames in %d flushes = %.3f write syscalls/frame (batch avg %.1f)\n",
			frames, flushes, float64(flushes)/float64(frames), float64(frames)/float64(flushes))
	}
	if encodes > 0 {
		fmt.Printf("encode-once: %d encodes for %d deliveries = %.1f deliveries/encode\n",
			encodes, got, float64(got)/float64(encodes))
	}
	fmt.Printf("latency (last sample): %v\n", time.Duration(lastLat.Load()).Round(time.Microsecond))
	return nil
}

// measure attaches a sender and a receiver client per daemon, offers load,
// and reports results.
func measure(addrs []string, rate float64, payloadBytes int, svc evs.Service,
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
	var senders sync.WaitGroup
	perSender := rate / float64(n)
	for _, addr := range addrs {
		sc, err := client.Dial("tcp", addr, "send")
		if err != nil {
			return err
		}
		defer sc.Close()
		senders.Add(1)
		go func(sc *client.Client) {
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
					if err := sc.Multicast(svc, payload, groupName); err != nil {
						return
					}
				}
			}
		}(sc)
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

	time.Sleep(warmup + duration + 500*time.Millisecond)
	close(stopSend)
	senders.Wait()
	churners.Wait()
	for _, rc := range receivers {
		rc.Close()
	}
	wg.Wait()

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

	fmt.Printf("service=%v payload=%dB offered=%.0f msg/s over %v\n", svc, payloadBytes, rate, duration)
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
