package daemon

import (
	"bytes"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"accelring/internal/evs"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/transport"
)

// startObservedDaemon is the startDaemons rig with the full observability
// stack attached, the way ringdaemon -obs wires it.
func startObservedDaemon(t *testing.T, id evs.ProcID, hub *transport.Hub) (*Daemon, *obs.Registry) {
	t.Helper()
	ep, err := hub.Endpoint(id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ringCfg := ringnode.Accelerated(id, ep, 10, 100, 7)
	ringCfg.Timeouts = fastTimeouts()
	ringCfg.Observer = &obs.RingObserver{
		Reg:    reg,
		Msg:    obs.NewMsgTracer(1, 64),
		Flight: obs.NewRecorder(0),
	}
	d, err := Start(Config{Ring: ringCfg, Listener: ln, Obs: reg, Flight: ringCfg.Observer.Flight})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d, reg
}

// TestMetricsNamesLint starts a real daemon cluster with registries
// attached, pushes traffic through it, and lints every exported
// Prometheus series against the stable naming scheme. Any metric added
// anywhere in the stack with a bad name fails here.
func TestMetricsNamesLint(t *testing.T) {
	hub := transport.NewHub()
	const n = 3
	daemons := make([]*Daemon, n)
	regs := make([]*obs.Registry, n)
	for i := 0; i < n; i++ {
		daemons[i], regs[i] = startObservedDaemon(t, evs.ProcID(i+1), hub)
	}
	// The shared in-memory hub reports transport.inmem.* into the first
	// daemon's registry (a real deployment has one UDP socket per node).
	hub.SetObserver(regs[0])
	// A ringdaemon over real sockets registers the UDP transport's series
	// as well.
	u, err := transport.NewUDP(transport.UDPConfig{Self: 9,
		Listen: transport.UDPPeer{Data: "127.0.0.1:0"}, Obs: regs[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	for i, d := range daemons {
		if !d.WaitOperational(10 * time.Second) {
			t.Fatalf("daemon %d did not become operational", i)
		}
	}

	// Traffic exercises the delivery, session, and retransmission series.
	a := dial(t, daemons[0], "alice")
	b := dial(t, daemons[1], "bob")
	for _, c := range []interface{ Join(string) error }{a, b} {
		if err := c.Join("lint"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if err := a.Multicast(evs.Agreed, []byte("ping"), "lint"); err != nil {
		t.Fatal(err)
	}
	nextMessage(t, b, 5*time.Second)

	name := regexp.MustCompile(`^accelring_[a-z0-9_]+$`)
	line := regexp.MustCompile(`^(accelring_[a-z0-9_]+)(\{[^}]*\})? `)
	total := 0
	for i, reg := range regs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(buf.String(), "\n") {
			if l == "" || strings.HasPrefix(l, "#") {
				continue
			}
			m := line.FindStringSubmatch(l)
			if m == nil {
				t.Errorf("daemon %d: unparseable exposition line %q", i, l)
				continue
			}
			if !name.MatchString(m[1]) {
				t.Errorf("daemon %d: series %q violates ^accelring_[a-z0-9_]+$", i, m[1])
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no series exported from a live cluster")
	}
	// The big families must actually be present from live traffic.
	var buf bytes.Buffer
	if err := regs[0].WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"accelring_ring_rounds",
		"accelring_ring_token_parks",
		"accelring_ring_token_parked_ns",
		"accelring_daemon_clients",
		"accelring_transport_",
		"accelring_transport_udp_rx_syscalls",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("live registry missing family %q", want)
		}
	}
}

// TestMetricsNamesLintSharded is the lint over a 2-shard daemon running
// the full observability stack — merger, latency attribution, SLO, and
// health — the families added by the backpressure, wire-batching, fanout
// and merge work. Every series must parse and match the naming scheme,
// and the newer families must be present with ring labels where scoped.
func TestMetricsNamesLintSharded(t *testing.T) {
	var regs []*obs.Registry
	daemons := startShardedDaemonsCfg(t, 2, 2, func(cfg *Config) {
		reg := obs.NewRegistry()
		regs = append(regs, reg)
		cfg.Obs = reg
		cfg.Ring.Observer = &obs.RingObserver{Reg: reg, Msg: obs.NewMsgTracer(1, 1024)}
	})

	a := dial(t, daemons[0], "alice")
	b := dial(t, daemons[1], "bob")
	for _, g := range []string{"g-0", "g-1"} {
		if err := a.Join(g); err != nil {
			t.Fatal(err)
		}
		if err := b.Join(g); err != nil {
			t.Fatal(err)
		}
		nextView(t, a, g, 5*time.Second)
	}
	for _, g := range []string{"g-0", "g-1"} {
		if err := b.Multicast(evs.Agreed, []byte("ping"), g); err != nil {
			t.Fatal(err)
		}
		nextMessage(t, a, 5*time.Second)
	}

	// Attach the aggregation layers the way ringdaemon -obs does and run
	// one evaluation so their gauges and histograms register.
	lat := obs.NewLatencyAgg(regs[0])
	slo := obs.NewSLO(regs[0], obs.SLOConfig{TargetP99: time.Second})
	scopes := []string{"shard0", "shard1"}
	for r, scope := range scopes {
		lat.AddTracer(scope, daemons[0].RingNode(r).Observer().MsgTracer())
	}
	lat.Fold()
	for _, scope := range scopes {
		slo.Track(scope, lat.E2E(scope))
	}
	slo.Pass()
	health := obs.NewHealth(regs[0], obs.HealthConfig{Scopes: scopes, Latency: lat, SLO: slo})
	health.Check()

	name := regexp.MustCompile(`^accelring_[a-z0-9_]+$`)
	line := regexp.MustCompile(`^(accelring_[a-z0-9_]+)(\{[^}]*\})? `)
	for i, reg := range regs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(buf.String(), "\n") {
			if l == "" || strings.HasPrefix(l, "#") {
				continue
			}
			m := line.FindStringSubmatch(l)
			if m == nil {
				t.Errorf("daemon %d: unparseable exposition line %q", i, l)
				continue
			}
			if !name.MatchString(m[1]) {
				t.Errorf("daemon %d: series %q violates ^accelring_[a-z0-9_]+$", i, m[1])
			}
		}
	}

	var buf bytes.Buffer
	if err := regs[0].WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		// Outbox tiers, writer, fanout, session routing, auth.
		"accelring_daemon_tier_spill",
		"accelring_daemon_tier_throttle",
		"accelring_daemon_writer_flushes",
		"accelring_daemon_writer_frames",
		"accelring_daemon_fanout_encodes",
		"accelring_daemon_fanout_shared",
		"accelring_daemon_frames_routed",
		"accelring_daemon_submits",
		"accelring_daemon_auth_drops",
		"accelring_daemon_slow_disconnects",
		// Cross-ring merge, scoped per ring.
		"accelring_merge_emitted",
		"accelring_merge_pending",
		`accelring_merge_frontier{ring="0"}`,
		`accelring_merge_frontier{ring="1"}`,
		`accelring_ring_rounds{ring="0"}`,
		`accelring_ring_rounds{ring="1"}`,
		`accelring_ring_token_parks{ring="0"}`,
		`accelring_ring_token_parked_ns{ring="1"}`,
		// Latency attribution and SLO families from the aggregators.
		`accelring_latency_spans_folded{ring="0"}`,
		`accelring_latency_e2e_ns_count{ring="0"}`,
		`accelring_slo_breach{ring="0"}`,
		`accelring_slo_p99_burn_ppm{ring="1"}`,
		// Health detector verdicts per ring.
		`accelring_health_healthy{ring="0"}`,
		`accelring_health_merge_stall{ring="1"}`,
		`accelring_health_slo_burn{ring="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("sharded registry missing series %q", want)
		}
	}
}
