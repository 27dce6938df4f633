// Command ringdaemon runs one ordering daemon: the ring protocol over UDP
// plus a TCP (or Unix-socket) listener for local clients, mirroring the
// deployment model of Spread and of the paper's daemon-based prototype.
//
// Example three-daemon deployment on one machine:
//
//	ringdaemon -id 1 -data 127.0.0.1:5001 -client 127.0.0.1:4801 \
//	  -peers "2=127.0.0.1:5002,3=127.0.0.1:5003"
//	ringdaemon -id 2 -data 127.0.0.1:5002 -client 127.0.0.1:4802 \
//	  -peers "1=127.0.0.1:5001,3=127.0.0.1:5003"
//	ringdaemon -id 3 -data 127.0.0.1:5003 -client 127.0.0.1:4803 \
//	  -peers "1=127.0.0.1:5001,2=127.0.0.1:5002"
//
// The daemons find each other through the membership algorithm; clients
// connect with the client library (see examples/chat).
//
// With -shards N every daemon runs N independent rings and routes each
// group to one of them by a stable hash of the group name (see README
// § "Multi-ring sharding"). Ring r listens on the base port + stride*r
// (-shard-stride, default 1), so all daemons must use the same -shards
// value and numeric ports with a gap of stride*N free above each base
// port.
//
// Each ring has one UDP socket, which receives data and tokens alike.
// Data frames reach the other daemons by unicast fan-out, one datagram
// per peer; the token is unicast to the next daemon on the ring.
// Wire-path tuning (see README § "Wire modes"): -pack bundles small
// messages into shared frames under load.
//
// Every ring flag binds to a field of internal/ringconf's Config, the
// declaration the accelring facade validates and opens, so the daemon
// shares its defaults, its validation (run before anything is bound) and
// its per-ring port and subkey derivation.
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
	"accelring/internal/ringconf"
	"accelring/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ringdaemon:", err)
		os.Exit(1)
	}
}

// options are the flags run translates into Config fields of another
// type, and those that do not declare the ring at all.
type options struct {
	id                            uint
	client, peers, obs, ringKey   string
	original                      bool
	sloP99, sloP999, drainTimeout time.Duration
	sloBurn                       float64
}

// flags declares the command line, binding every ring setting into cfg.
func flags(cfg *ringconf.Config, o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("ringdaemon", flag.ContinueOnError)
	w := &cfg.Wire
	fs.UintVar(&o.id, "id", 0, "participant ID (non-zero, unique per daemon)")
	fs.StringVar(&w.Listen.Data, "data", "127.0.0.1:5001", "UDP listen address of the ring (data and token)")
	fs.StringVar(&o.client, "client", "127.0.0.1:4801", "TCP listen address for clients (or unix:PATH)")
	fs.StringVar(&o.peers, "peers", "", "comma-separated peers: id=addr")
	fs.BoolVar(&o.original, "original", false, "run the original Ring protocol instead of the Accelerated Ring")
	fs.IntVar(&cfg.PersonalWindow, "personal", ringconf.DefaultPersonalWindow, "personal window (messages per participant per round)")
	fs.IntVar(&cfg.GlobalWindow, "global", ringconf.DefaultGlobalWindow, "global window (messages per round, ring-wide)")
	fs.IntVar(&cfg.AcceleratedWindow, "accelerated", ringconf.DefaultAcceleratedWindow, "accelerated window (post-token messages per round)")
	fs.StringVar(&o.obs, "obs", "", "serve /debug/vars, /debug/ring, /metrics, /debug/health and /debug/pprof on this address (e.g. :6060)")
	fs.IntVar(&cfg.TraceSampling, "trace-sample", 0, "sample every Nth sequence number for message-lifecycle tracing at /debug/msgtrace and latency attribution at /debug/latency (0 disables)")
	fs.DurationVar(&o.sloP99, "slo-p99", 0, "p99 end-to-end latency target per ring; burn rate past -slo-burn flips the health slo_burn flag (0 disables; needs -obs and -trace-sample)")
	fs.DurationVar(&o.sloP999, "slo-p999", 0, "p999 end-to-end latency target per ring (0 disables; needs -obs and -trace-sample)")
	fs.Float64Var(&o.sloBurn, "slo-burn", 0, "burn-rate factor at or above which an SLO scope is breaching (0 = default 1.0)")
	fs.IntVar(&cfg.Shards, "shards", 1, "independent rings per daemon; ring r uses the base port + stride*r (numeric ports required)")
	fs.IntVar(&w.ShardStride, "shard-stride", ringconf.DefaultShardStride, "port gap between consecutive rings of a sharded daemon (all daemons must agree)")
	fs.BoolVar(&w.Packing, "pack", false, "bundle small messages into shared frames under load (all daemons must agree)")
	fs.StringVar(&o.ringKey, "ring-key", "", "shared secret authenticating ring wire frames and client sessions with HMAC-SHA256 (all daemons and clients must agree; empty disables)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 5*time.Second, "graceful-drain budget on SIGINT/SIGTERM before hard stop")
	return fs
}

func run(args []string) error {
	var cfg ringconf.Config
	var o options
	fs := flags(&cfg, &o)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	// Config reads zero as "take the default"; on the command line an
	// explicit 0 is a mistake, not a request for the default.
	for _, name := range []string{"shards", "shard-stride", "personal", "global", "accelerated"} {
		if explicit[name] && fs.Lookup(name).Value.String() == "0" {
			return fmt.Errorf("-%s must be at least 1", name)
		}
	}
	// A flag that only tunes observability does nothing without -obs;
	// accepting it silently hides a typo'd or forgotten switch.
	for _, name := range []string{"trace-sample", "slo-p99", "slo-p999", "slo-burn"} {
		if explicit[name] && o.obs == "" {
			return fmt.Errorf("-%s has no effect without -obs", name)
		}
	}

	w := &cfg.Wire
	var err error
	if w.Peers, err = parsePeers(o.peers); err != nil {
		return err
	}
	cfg.Self = evs.ProcID(o.id)
	if o.original {
		cfg.Protocol = ringconf.ProtocolOriginal
	}
	cfg.RingKey = []byte(o.ringKey)
	if o.obs != "" {
		cfg.Observer = obs.NewRegistry()
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	// With -obs, flight is the always-on black box: dumped on SIGQUIT, and
	// the source of /debug/ring's round traces.
	ring, open, flight := cfg.Stack()
	ln, err := listen(o.client)
	if err != nil {
		return err
	}
	d, err := daemon.Start(daemon.Config{
		Ring: ring, Shards: cfg.Shards, NewTransport: open,
		Listener: ln, Key: cfg.RingKey, Obs: cfg.Observer, Flight: flight,
	})
	if err != nil {
		ln.Close()
		return err
	}
	var health *obs.Health
	if cfg.Observer != nil {
		srv, err := obs.StartServer(o.obs, cfg.Observer)
		if err != nil {
			d.Stop()
			return err
		}
		defer srv.Close()
		srv.Add(fmt.Sprintf("daemon%d", cfg.Self), flight)
		log.Printf("observability: http://%s/debug/vars", srv.Addr())
		// Each ring's metric scope is its observer's label: "" for a single
		// ring, "shard<r>" otherwise. Latency attribution folds the ring's
		// sampled spans into per-stage histograms under that scope; with
		// -trace-sample 0 the tracers are nil and AddTracer no-ops, so
		// /debug/latency serves empty scopes at zero cost.
		lat := obs.NewLatencyAgg(cfg.Observer)
		var scopes []string
		for r := 0; r < d.Shards(); r++ {
			ob := d.RingNode(r).Observer()
			scopes = append(scopes, ob.Label)
			lat.AddTracer(ob.Label, ob.MsgTracer())
			srv.Add(strings.TrimSuffix(fmt.Sprintf("daemon%d.%s", cfg.Self, ob.Label), "."), ob.MsgTracer())
		}
		srv.SetLatency(lat)
		var slo *obs.SLO
		if o.sloP99 > 0 || o.sloP999 > 0 {
			slo = obs.NewSLO(cfg.Observer, obs.SLOConfig{TargetP99: o.sloP99, TargetP999: o.sloP999, BurnFactor: o.sloBurn})
			for _, scope := range scopes {
				slo.Track(scope, lat.E2E(scope))
			}
		}
		health = obs.NewHealth(cfg.Observer, obs.HealthConfig{
			Scopes:        scopes,
			RetransBudget: cfg.GlobalWindow,
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
	log.Printf("daemon %d up: protocol=%v shards=%d data=%s pack=%v clients=%s peers=%d",
		cfg.Self, cfg.Protocol, d.Shards(), w.Listen.Data,
		w.Packing, ln.Addr(), len(w.Peers))

	go func() {
		for range time.Tick(5 * time.Second) {
			healthy := health.Status() // one per ring, in ring order; nil without -obs
			for r := 0; r < d.Shards(); r++ {
				st := d.RingNode(r).Status()
				line := fmt.Sprintf("ring=%d state=%v members=%v rounds=%d sent=%d delivered=%d retrans=%d",
					r, st.State, st.Ring, st.Engine.Rounds, st.Engine.Sent,
					st.Engine.Delivered, st.Engine.Retransmitted)
				if healthy != nil {
					line += fmt.Sprintf(" healthy=%v", healthy[r].Healthy())
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
		if s != syscall.SIGQUIT || flight == nil {
			break
		}
		path := fmt.Sprintf("ringdaemon-%d-flight.jsonl", cfg.Self)
		if err := flight.DumpFile(path); err != nil {
			log.Printf("flight dump failed: %v", err)
		} else {
			log.Printf("flight recorder dumped to %s (%d events recorded)", path, flight.Total())
		}
	}
	log.Printf("draining (budget %v)", o.drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
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
		idPart, addr, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return nil, fmt.Errorf("bad peer %q (want id=addr)", entry)
		}
		pid, err := strconv.ParseUint(idPart, 10, 32)
		if err != nil || pid == 0 {
			return nil, fmt.Errorf("bad peer id %q", idPart)
		}
		if addr == "" || strings.Contains(addr, "/") {
			return nil, fmt.Errorf("bad peer address %q (want one host:port per peer)", addr)
		}
		if _, dup := peers[evs.ProcID(pid)]; dup {
			return nil, fmt.Errorf("peer id %d given twice", pid)
		}
		peers[evs.ProcID(pid)] = transport.UDPPeer{Data: addr}
	}
	return peers, nil
}
