// Command ringdaemon runs one ordering daemon: the ring protocol over UDP
// plus a TCP (or Unix-socket) listener for local clients, mirroring the
// deployment model of Spread and of the paper's daemon-based prototype.
//
// Example three-daemon deployment on one machine:
//
//	ringdaemon -id 1 -data 127.0.0.1:5001 -token 127.0.0.1:6001 -client 127.0.0.1:4801 \
//	  -peers "2=127.0.0.1:5002/127.0.0.1:6002,3=127.0.0.1:5003/127.0.0.1:6003"
//	ringdaemon -id 2 -data 127.0.0.1:5002 -token 127.0.0.1:6002 -client 127.0.0.1:4802 \
//	  -peers "1=127.0.0.1:5001/127.0.0.1:6001,3=127.0.0.1:5003/127.0.0.1:6003"
//	ringdaemon -id 3 -data 127.0.0.1:5003 -token 127.0.0.1:6003 -client 127.0.0.1:4803 \
//	  -peers "1=127.0.0.1:5001/127.0.0.1:6001,2=127.0.0.1:5002/127.0.0.1:6002"
//
// The daemons find each other through the membership algorithm; clients
// connect with the client library (see examples/chat).
//
// With -shards N every daemon runs N independent rings and routes each
// group to one of them by a stable hash of the group name (see README
// § "Multi-ring sharding"). Ring r listens on every base port +
// stride*r (-shard-stride, default 2), so all daemons must use the same
// -shards value and numeric ports with a gap of stride*N free above
// each base port.
//
// Wire-path tuning (see README § "Wire modes"): -mcast switches the
// data path to true IP multicast, -batch-send/-batch-recv coalesce
// datagrams into sendmmsg/recvmmsg calls, and -pack bundles small
// messages into shared frames under load.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"accelring/internal/daemon"
	"accelring/internal/evs"
	"accelring/internal/obs"
	"accelring/internal/pack"
	"accelring/internal/ringnode"
	"accelring/internal/transport"
	"accelring/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ringdaemon:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ringdaemon", flag.ContinueOnError)
	id := fs.Uint("id", 0, "participant ID (non-zero, unique per daemon)")
	dataAddr := fs.String("data", "127.0.0.1:5001", "UDP listen address for data messages")
	tokenAddr := fs.String("token", "127.0.0.1:6001", "UDP listen address for the token")
	clientAddr := fs.String("client", "127.0.0.1:4801", "TCP listen address for clients (or unix:PATH)")
	peerSpec := fs.String("peers", "", "comma-separated peers: id=dataAddr/tokenAddr")
	original := fs.Bool("original", false, "run the original Ring protocol instead of the Accelerated Ring")
	personal := fs.Int("personal", 20, "personal window (messages per participant per round)")
	global := fs.Int("global", 160, "global window (messages per round, ring-wide)")
	accel := fs.Int("accelerated", 15, "accelerated window (post-token messages per round)")
	obsAddr := fs.String("obs", "", "serve /debug/vars, /debug/ring, /metrics, /debug/health and /debug/pprof on this address (e.g. :6060)")
	traceSample := fs.Int("trace-sample", 0, "sample every Nth sequence number for message-lifecycle tracing at /debug/msgtrace and latency attribution at /debug/latency (0 disables)")
	sloP99 := fs.Duration("slo-p99", 0, "p99 end-to-end latency target per ring; burn rate past -slo-burn flips the health slo_burn flag (0 disables; needs -obs and -trace-sample)")
	sloP999 := fs.Duration("slo-p999", 0, "p999 end-to-end latency target per ring (0 disables; needs -obs and -trace-sample)")
	sloBurn := fs.Float64("slo-burn", 0, "burn-rate factor at or above which an SLO scope is breaching (0 = default 1.0)")
	shards := fs.Int("shards", 1, "independent rings per daemon; ring r uses every base port + stride*r (numeric ports required)")
	stride := fs.Int("shard-stride", 2, "port gap between consecutive rings of a sharded daemon (all daemons must agree)")
	skipInterval := fs.Duration("skip-interval", 0, "cross-ring merge lambda-pacing tick: how often idle rings blocking the global order are skipped (0 = default 2ms; shards > 1 only)")
	skipAhead := fs.Uint64("skip-ahead", 0, "virtual slots each cross-ring skip claims past the blocked head (0 = merge default; shards > 1 only)")
	mcast := fs.String("mcast", "", "IPv4 multicast group for the data path, e.g. 239.1.1.7:5100 (empty keeps unicast fan-out; all daemons must agree)")
	mcastTTL := fs.Int("mcast-ttl", 1, "IP_MULTICAST_TTL for outgoing multicast data (1 = link-local)")
	mcastIf := fs.String("mcast-if", "", "network interface for multicast send/join (empty lets the kernel choose)")
	batchSend := fs.Int("batch-send", 0, "stage up to N data frames and send them in one sendmmsg call (0 disables)")
	batchRecv := fs.Int("batch-recv", 0, "drain up to N datagrams per recvmmsg call (0 disables)")
	packOn := fs.Bool("pack", false, "bundle small messages into shared frames under load (all daemons must agree)")
	packLimit := fs.Int("pack-limit", 0, "packed-frame size budget in bytes (0 = pack.DefaultLimit)")
	packDelay := fs.Duration("pack-delay", 0, "longest a message may wait in a partial bundle (0 = pack.DefaultMaxDelay)")
	ringKey := fs.String("ring-key", "", "shared secret authenticating ring wire frames and client sessions with HMAC-SHA256 (all daemons and clients must agree; empty disables)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "graceful-drain budget on SIGINT/SIGTERM before hard stop")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == 0 {
		return fmt.Errorf("-id is required and must be non-zero")
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1")
	}
	if *stride < 1 {
		return fmt.Errorf("-shard-stride must be at least 1")
	}
	if *mcastTTL < 0 || *mcastTTL > 255 {
		return fmt.Errorf("-mcast-ttl must be in [0,255]")
	}
	if *batchSend < 0 || *batchSend > transport.MaxBatch || *batchRecv < 0 || *batchRecv > transport.MaxBatch {
		return fmt.Errorf("-batch-send/-batch-recv must be in [0,%d]", transport.MaxBatch)
	}
	if *traceSample < 0 {
		return fmt.Errorf("-trace-sample must be non-negative")
	}
	if *skipInterval < 0 {
		return fmt.Errorf("-skip-interval must be non-negative")
	}
	// A flag that only tunes a feature does nothing while the feature is
	// off; accepting it silently hides a typo'd or forgotten switch.
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	for _, dep := range []struct {
		tuning []string
		needs  string
		on     bool
	}{
		{[]string{"trace-sample", "slo-p99", "slo-p999", "slo-burn"}, "obs", *obsAddr != ""},
		{[]string{"pack-limit", "pack-delay"}, "pack", *packOn},
		{[]string{"mcast-ttl", "mcast-if"}, "mcast", *mcast != ""},
	} {
		for _, name := range dep.tuning {
			if explicit[name] && !dep.on {
				return fmt.Errorf("-%s has no effect without -%s", name, dep.needs)
			}
		}
	}

	var reg *obs.Registry
	var srv *obs.Server
	var flight *obs.Recorder
	if *obsAddr != "" {
		reg = obs.NewRegistry()
		// The flight recorder is always on with -obs: it is a fixed-size
		// black box, cheap enough to leave running, dumped on SIGQUIT,
		// and the source of /debug/ring's round traces.
		flight = obs.NewRecorder(0)
		var err error
		if srv, err = obs.StartServer(*obsAddr, reg); err != nil {
			return err
		}
		defer srv.Close()
		srv.Add(fmt.Sprintf("daemon%d", *id), flight)
		log.Printf("observability: http://%s/debug/vars", srv.Addr())
	}

	peers, err := parsePeers(*peerSpec)
	if err != nil {
		return err
	}
	self := evs.ProcID(*id)
	newTransport := func(ring int) (transport.Transport, error) {
		listenAddrs, err := transport.UDPPeer{Data: *dataAddr, Token: *tokenAddr}.Shift(*stride * ring)
		if err != nil {
			return nil, err
		}
		ringPeers := make(map[evs.ProcID]transport.UDPPeer, len(peers))
		for pid, p := range peers {
			if ringPeers[pid], err = p.Shift(*stride * ring); err != nil {
				return nil, err
			}
		}
		var mc *transport.UDPMulticast
		if *mcast != "" {
			group := *mcast
			if *shards > 1 {
				// Each ring joins its own group address, same stride rule as
				// the unicast ports, so shards never see each other's data.
				if group, err = transport.ShiftPort(group, *stride*ring); err != nil {
					return nil, err
				}
			}
			mc = &transport.UDPMulticast{Group: group, TTL: *mcastTTL, Interface: *mcastIf}
		}
		udp, err := transport.NewUDP(transport.UDPConfig{
			Self:      self,
			Listen:    listenAddrs,
			Peers:     ringPeers,
			Batch:     transport.BatchConfig{Send: *batchSend, Recv: *batchRecv},
			Multicast: mc,
			Obs:       reg,
		})
		if err != nil {
			return nil, err
		}
		var tr transport.Transport = udp
		if *ringKey != "" {
			// Per-ring subkeys, matching the facade's WithRingKey rule, so
			// frames cannot be replayed across rings.
			sub := wire.DeriveKey([]byte(*ringKey), "ring"+strconv.Itoa(ring))
			tr = transport.WithAuth(tr, sub, reg, flight)
		}
		return tr, nil
	}

	dcfg := daemon.Config{
		Obs: reg, Flight: flight, Key: []byte(*ringKey),
		Shards: *shards, NewTransport: newTransport,
		SkipInterval: *skipInterval, SkipAhead: *skipAhead,
	}
	if *original {
		dcfg.Ring = ringnode.Original(self, nil, *personal, *global)
	} else {
		dcfg.Ring = ringnode.Accelerated(self, nil, *personal, *global, *accel)
	}
	if reg != nil {
		// A single ring uses this observer as it is. Several rings each
		// derive their own from it — "shard<r>"-labeled, with per-ring
		// message tracers, registered below; the flight recorder is
		// shared and its events carry the shard label.
		dcfg.Ring.Observer = &obs.RingObserver{
			Reg: reg, Flight: flight,
			Msg: obs.NewMsgTracer(*traceSample, 0),
		}
	}

	if *packOn {
		pc := pack.AdaptiveConfig{Limit: *packLimit, MaxDelay: *packDelay}
		if err := pc.Validate(); err != nil {
			return err
		}
		dcfg.Ring.Packing = &pc
	}

	ln, err := listen(*clientAddr)
	if err != nil {
		return err
	}
	dcfg.Listener = ln

	d, err := daemon.Start(dcfg)
	if err != nil {
		ln.Close()
		return err
	}
	if srv != nil {
		for r := 0; r < d.Shards(); r++ {
			o := d.RingNode(r).Observer()
			name := fmt.Sprintf("daemon%d", *id)
			if o.Label != "" {
				name += "." + o.Label
			}
			srv.Add(name, o.MsgTracer())
		}
	}

	var health *obs.Health
	if reg != nil {
		// A ring's metric scope is its observer's label: "" for a single
		// ring, "shard<r>" otherwise.
		var scopes []string
		for r := 0; r < d.Shards(); r++ {
			scopes = append(scopes, d.RingNode(r).Observer().Label)
		}
		// Latency attribution: fold each ring's sampled spans into
		// per-stage histograms under the ring's metric scope. With
		// -trace-sample 0 the tracers are nil and AddTracer no-ops, so
		// /debug/latency serves empty scopes at zero cost.
		lat := obs.NewLatencyAgg(reg)
		for r, scope := range scopes {
			lat.AddTracer(scope, d.RingNode(r).Observer().MsgTracer())
		}
		srv.SetLatency(lat)
		var slo *obs.SLO
		if *sloP99 > 0 || *sloP999 > 0 {
			slo = obs.NewSLO(reg, obs.SLOConfig{
				TargetP99:  *sloP99,
				TargetP999: *sloP999,
				BurnFactor: *sloBurn,
			})
			for _, scope := range scopes {
				slo.Track(scope, lat.E2E(scope))
			}
		}
		health = obs.NewHealth(reg, obs.HealthConfig{
			Scopes:        scopes,
			RetransBudget: *global,
			Latency:       lat,
			SLO:           slo,
			Flight:        flight,
			OnChange: func(st obs.HealthStatus) {
				log.Printf("health: ring=%q healthy=%v token_stall=%v aru_stagnation=%v retrans_storm=%v slow_consumer=%v backpressure=%v merge_stall=%v slo_burn=%v",
					st.Ring, st.Healthy(), st.TokenStall, st.AruStagnation, st.RetransStorm, st.SlowConsumer, st.Backpressure, st.MergeStall, st.SLOBurn)
			},
		})
		health.Start()
		defer health.Close()
		srv.SetHealth(health)
	}
	proto := "accelerated"
	if *original {
		proto = "original"
	}
	wireMode := "unicast"
	if *mcast != "" {
		wireMode = "multicast " + *mcast
	}
	log.Printf("daemon %d up: protocol=%s shards=%d data=%s token=%s wire=%s batch=%d/%d pack=%v clients=%s peers=%d",
		*id, proto, d.Shards(), *dataAddr, *tokenAddr, wireMode, *batchSend, *batchRecv, *packOn, ln.Addr(), len(peers))

	go func() {
		for {
			time.Sleep(5 * time.Second)
			healthy := make(map[string]bool)
			for _, st := range health.Status() {
				healthy[st.Ring] = st.Healthy()
			}
			for r := 0; r < d.Shards(); r++ {
				st := d.RingNode(r).Status()
				line := fmt.Sprintf("ring=%d state=%v members=%v rounds=%d sent=%d delivered=%d retrans=%d",
					r, st.State, st.Ring, st.Engine.Rounds, st.Engine.Sent,
					st.Engine.Delivered, st.Engine.Retransmitted)
				if health != nil {
					line += fmt.Sprintf(" healthy=%v", healthy[d.RingNode(r).Observer().Label])
				}
				log.Print(line)
			}
		}
	}()

	// SIGQUIT dumps the black box (and keeps running, like a Java thread
	// dump); SIGINT/SIGTERM drain the client sessions — flush every
	// queue, hand out resumable Detach notices, emit the final ordered
	// leaves — then stop the ring.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	for s := range sig {
		if s == syscall.SIGQUIT && flight != nil {
			path := fmt.Sprintf("ringdaemon-%d-flight.jsonl", *id)
			if err := flight.DumpFile(path); err != nil {
				log.Printf("flight dump failed: %v", err)
			} else {
				log.Printf("flight recorder dumped to %s (%d events recorded)", path, flight.Total())
			}
			continue
		}
		break
	}
	log.Printf("draining (budget %v)", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	if err := d.Drain(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	cancel()
	log.Printf("shutting down")
	d.Stop()
	return nil
}

func listen(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

func parsePeers(spec string) (map[evs.ProcID]transport.UDPPeer, error) {
	peers := make(map[evs.ProcID]transport.UDPPeer)
	if spec == "" {
		return peers, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		idPart, addrs, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return nil, fmt.Errorf("bad peer %q (want id=dataAddr/tokenAddr)", entry)
		}
		pid, err := strconv.ParseUint(idPart, 10, 32)
		if err != nil || pid == 0 {
			return nil, fmt.Errorf("bad peer id %q", idPart)
		}
		data, token, ok := strings.Cut(addrs, "/")
		if !ok {
			return nil, fmt.Errorf("bad peer addresses %q (want dataAddr/tokenAddr)", addrs)
		}
		peers[evs.ProcID(pid)] = transport.UDPPeer{Data: data, Token: token}
	}
	return peers, nil
}
