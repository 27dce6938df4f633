// Command ringtop is a live terminal console over the observability
// endpoints of one or more ringdaemons: it polls /debug/vars,
// /debug/latency and /debug/health on every node and renders one screen
// per refresh — rings with their sequence/merge frontiers, outbox
// backpressure tiers, syscall rates, per-stage latency attribution and
// SLO burn — the "where is the tail coming from" view the paper's
// latency experiments need.
//
//	ringtop -nodes 127.0.0.1:6060,127.0.0.1:6061
//	ringtop -nodes 127.0.0.1:6060 -once        # one snapshot (CI, scripts)
//
// Each address is a daemon's -obs endpoint. Latency columns appear when
// the daemons run with -trace-sample, SLO columns when they also set
// -slo-p99/-slo-p999.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"regexp"
	"sort"
	"strings"
	"time"

	"accelring/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ringtop:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ringtop", flag.ContinueOnError)
	nodesFlag := fs.String("nodes", "", "comma-separated daemon -obs addresses (host:port)")
	interval := fs.Duration("interval", 2*time.Second, "refresh period")
	once := fs.Bool("once", false, "print a single snapshot and exit (no screen clearing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodesFlag == "" {
		return fmt.Errorf("-nodes is required (comma-separated host:port of daemon -obs endpoints)")
	}
	if *interval <= 0 {
		return fmt.Errorf("-interval must be positive")
	}
	var nodes []*nodeState
	for _, a := range strings.Split(*nodesFlag, ",") {
		if a = strings.TrimSpace(a); a != "" {
			nodes = append(nodes, &nodeState{addr: a})
		}
	}
	if len(nodes) == 0 {
		return fmt.Errorf("-nodes contained no addresses")
	}

	client := &http.Client{Timeout: 3 * time.Second}
	poll := func() {
		for _, n := range nodes {
			n.poll(client)
		}
	}
	poll()
	if *once {
		fmt.Print(render(nodes))
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		// Home + clear-to-end keeps the screen from flickering the way a
		// full erase would.
		fmt.Print("\x1b[H\x1b[2J" + render(nodes))
		select {
		case <-sig:
			return nil
		case <-tick.C:
			poll()
		}
	}
}

// nodeState is one daemon's latest poll plus the previous counters for
// rate computation.
type nodeState struct {
	addr string
	err  error

	vars    map[string]any
	latency []obs.LatencyScopeSnapshot
	health  []obs.HealthStatus
	at      time.Time

	prevVars map[string]any
	prevAt   time.Time
}

func (n *nodeState) poll(client *http.Client) {
	n.prevVars, n.prevAt = n.vars, n.at
	n.vars, n.latency, n.health, n.err = nil, nil, nil, nil
	n.at = time.Now()

	if err := getJSON(client, n.addr, "/debug/vars", &n.vars); err != nil {
		n.err = err
		return
	}
	// Latency and health 404 until attached; treat those as "not
	// configured", not as node failure.
	_ = getJSON(client, n.addr, "/debug/latency", &n.latency)
	_ = getJSON(client, n.addr, "/debug/health", &n.health)
}

func getJSON(client *http.Client, addr, path string, v any) error {
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// num reads one numeric metric from a vars snapshot (counters and gauges
// decode as float64); missing or non-numeric names read as 0.
func num(vars map[string]any, name string) float64 {
	if f, ok := vars[name].(float64); ok {
		return f
	}
	return 0
}

// scopedName prefixes base with a ring scope, the registry convention
// ("" -> base, "shard0" -> "shard0.base").
func scopedName(scope, base string) string {
	if scope == "" {
		return base
	}
	return scope + "." + base
}

var shardScopeRe = regexp.MustCompile(`^(shard\d+)\.`)

// scopesOf discovers the ring scopes a node exports: health statuses and
// latency digests name theirs, and any shardN.-prefixed metric implies
// one. A node with no shard prefixes is one unscoped ring.
func scopesOf(n *nodeState) []string {
	set := map[string]bool{}
	for _, st := range n.health {
		set[st.Ring] = true
	}
	for _, sc := range n.latency {
		set[sc.Scope] = true
	}
	for name := range n.vars {
		if m := shardScopeRe.FindStringSubmatch(name); m != nil {
			set[m[1]] = true
		}
	}
	if len(set) == 0 {
		set[""] = true
	}
	scopes := make([]string, 0, len(set))
	for s := range set {
		scopes = append(scopes, s)
	}
	sort.Strings(scopes)
	return scopes
}

func render(nodes []*nodeState) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ringtop  %s  %d node(s)\n", time.Now().Format("15:04:05"), len(nodes))
	for _, n := range nodes {
		b.WriteByte('\n')
		renderNode(&b, n)
	}
	return b.String()
}

func renderNode(b *strings.Builder, n *nodeState) {
	if n.err != nil {
		fmt.Fprintf(b, "node %s  UNREACHABLE: %v\n", n.addr, n.err)
		return
	}
	v := n.vars
	fmt.Fprintf(b, "node %s  up %s  clients %.0f (spill %.0f, throttle %.0f)  tx_sys %s  rx_sys %s\n",
		n.addr,
		(time.Duration(num(v, "uptime_seconds")) * time.Second).String(),
		num(v, "daemon.clients"), num(v, "daemon.clients_spilling"), num(v, "daemon.clients_throttled"),
		n.rate("transport.udp.tx_syscalls"), n.rate("transport.udp.rx_syscalls"))

	lat := map[string]obs.LatencyScopeSnapshot{}
	for _, sc := range n.latency {
		lat[sc.Scope] = sc
	}
	health := map[string]obs.HealthStatus{}
	for _, st := range n.health {
		health[st.Ring] = st
	}

	fmt.Fprintf(b, "  %-8s %12s %10s %10s %9s %9s %9s %12s %8s  %s\n",
		"RING", "SEQ", "ROUNDS", "FRONTIER", "E2E p50", "E2E p99", "HOT STAGE", "SLO p99-burn", "BREACH", "HEALTH")
	for _, scope := range scopesOf(n) {
		name := scope
		if name == "" {
			name = "ring"
		}
		seq := num(v, scopedName(scope, "ring.seq"))
		rounds := num(v, scopedName(scope, "ring.rounds"))
		frontier := "-"
		if f, ok := v[scopedName(scope, "merge.frontier")].(float64); ok {
			frontier = fmt.Sprintf("%.0f", f)
		}
		p50, p99, hot := "-", "-", "-"
		if sc, ok := lat[scope]; ok && sc.E2E.Count > 0 {
			p50 = fmtNs(sc.E2E.P50Ns)
			p99 = fmtNs(sc.E2E.P99Ns)
			hot = hotStage(sc)
		}
		burn, breach := "-", "-"
		if st, ok := health[scope]; ok && st.SLOP99Burn > 0 {
			burn = fmt.Sprintf("%.2f", st.SLOP99Burn)
		}
		if bg, ok := v[scopedName(scope, "slo.breach")].(float64); ok {
			breach = map[bool]string{false: "no", true: "YES"}[bg != 0]
		}
		fmt.Fprintf(b, "  %-8s %12.0f %10.0f %10s %9s %9s %9s %12s %8s  %s\n",
			name, seq, rounds, frontier, p50, p99, hot, burn, breach, healthFlags(health, scope))
	}
}

// rate renders a counter as a per-second rate against the previous poll,
// or the running total (prefixed Σ) on the first one.
func (n *nodeState) rate(name string) string {
	cur := num(n.vars, name)
	if n.prevVars == nil || n.at.Sub(n.prevAt) <= 0 {
		return "Σ" + fmtCount(cur)
	}
	dt := n.at.Sub(n.prevAt).Seconds()
	return fmtCount((cur-num(n.prevVars, name))/dt) + "/s"
}

// hotStage names the stage holding the largest share of attributed time.
func hotStage(sc obs.LatencyScopeSnapshot) string {
	best, bestSum := "-", 0.0
	for name, st := range sc.Stages {
		if st.SumNs > bestSum {
			best, bestSum = name, st.SumNs
		}
	}
	if bestSum > 0 && sc.StageSumNs > 0 {
		return fmt.Sprintf("%s %.0f%%", best, 100*bestSum/sc.StageSumNs)
	}
	return best
}

func healthFlags(health map[string]obs.HealthStatus, scope string) string {
	st, ok := health[scope]
	if !ok {
		return "-"
	}
	if st.Healthy() {
		return "ok"
	}
	var flags []string
	for name, on := range map[string]bool{
		"token_stall": st.TokenStall, "aru_stagnation": st.AruStagnation,
		"retrans_storm": st.RetransStorm, "slow_consumer": st.SlowConsumer,
		"backpressure": st.Backpressure, "merge_stall": st.MergeStall,
		"slo_burn": st.SLOBurn,
	} {
		if on {
			flags = append(flags, name)
		}
	}
	sort.Strings(flags)
	return strings.Join(flags, ",")
}

func fmtNs(ns float64) string {
	if ns <= 0 {
		return "-"
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}

func fmtCount(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
