package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"accelring/internal/obs"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := fn()
	w.Close()
	got := <-out
	if runErr != nil {
		t.Fatalf("run: %v\n%s", runErr, got)
	}
	return got
}

// TestOnceGolden renders ringtop -once against an in-process debug server
// whose registry, latency aggregator and health detector are pre-loaded
// the way a sharded ringdaemon -obs -trace-sample -slo-p99 fills them. The
// golden screen pins the /debug/vars, /debug/latency and /debug/health
// JSON ringtop reads — including a span past the top latency bucket, which
// once blanked the latency columns for good.
func TestOnceGolden(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := obs.StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg.Gauge("daemon.clients").Set(3)
	reg.Gauge("daemon.clients_spilling").Set(1)
	reg.Counter("transport.udp.tx_syscalls").Add(12345)
	reg.Counter("transport.udp.rx_syscalls").Add(678)
	scopes := []string{"shard0", "shard1"}
	tracers := make(map[string]*obs.MsgTracer)
	lat := obs.NewLatencyAgg(reg)
	slo := obs.NewSLO(reg, obs.SLOConfig{TargetP99: 10 * time.Millisecond})
	for i, scope := range scopes {
		reg.Gauge(scope + ".ring.seq").Set(int64(1000 * (i + 1)))
		reg.Gauge(scope + ".ring.aru").Set(int64(1000 * (i + 1)))
		reg.Counter(scope + ".ring.rounds").Add(500)
		reg.Gauge(scope + ".merge.frontier").Set(int64(4000 + i))
		tracers[scope] = obs.NewMsgTracer(1, 256)
		lat.AddTracer(scope, tracers[scope])
		slo.Track(scope, lat.E2E(scope))
	}
	health := obs.NewHealth(reg, obs.HealthConfig{Scopes: scopes, Latency: lat, SLO: slo})
	srv.SetLatency(lat)
	srv.SetHealth(health)
	health.Check() // baseline pass

	// Between the passes: ring 0 rotates and delivers fast; ring 1 stands
	// still and its spans blow the p99 target, one of them by more than
	// the top latency bucket (+Inf).
	reg.Counter("shard0.ring.rounds").Add(100)
	base := time.Unix(100, 0)
	span := func(scope string, seq uint64, wire, ordering time.Duration) {
		tr := tracers[scope]
		tr.Record(obs.Event{Kind: obs.StageSubmit, Seq: seq, At: base})
		tr.Record(obs.Event{Kind: obs.StageRecv, Seq: seq, At: base.Add(wire)})
		tr.Record(obs.Event{Kind: obs.StageDeliver, Seq: seq, At: base.Add(wire + ordering)})
	}
	for seq := uint64(1); seq <= 20; seq++ {
		span("shard0", seq, 200*time.Microsecond, 600*time.Microsecond)
		span("shard1", seq, 10*time.Millisecond, 90*time.Millisecond)
	}
	span("shard1", 21, time.Millisecond, 20*time.Second)
	health.Check()

	got := captureStdout(t, func() error { return run([]string{"-once", "-nodes", srv.Addr()}) })
	got = strings.ReplaceAll(got, srv.Addr(), "NODE")
	got = regexp.MustCompile(`ringtop  \d\d:\d\d:\d\d`).ReplaceAllString(got, "ringtop  HH:MM:SS")
	got = regexp.MustCompile(`up \d+s`).ReplaceAllString(got, "up 0s")

	const want = `ringtop  HH:MM:SS  1 node(s)

node NODE  up 0s  clients 3 (spill 1, throttle 0)  tx_sys Σ12.3k  rx_sys Σ678
  RING              SEQ     ROUNDS   FRONTIER   E2E p50   E2E p99 HOT STAGE SLO p99-burn   BREACH  HEALTH
  shard0           1000        600       4000     614µs     815µs ordering 75%            -       no  ok
  shard1           2000        500       4001  79.954ms 13.421773s ordering 99%       100.00      YES  slo_burn,token_stall
`
	if got != want {
		t.Fatalf("ringtop -once rendered\n%s\nwant\n%s", got, want)
	}
}
