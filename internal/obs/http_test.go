package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ring.rounds").Add(42)
	s, err := StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	fr := NewRecorder(16)
	visit(fr, "", time.Unix(1, 0), 1, 0, 3, 2, 0, 0)
	visit(fr, "", time.Unix(2, 0), 2, 3, 3, 2, 0, 0)
	s.Add("node1", fr)

	base := "http://" + s.Addr()

	var vars map[string]any
	if err := json.Unmarshal(get(t, base+"/debug/vars"), &vars); err != nil {
		t.Fatal(err)
	}
	if vars["ring.rounds"] != float64(42) {
		t.Fatalf("ring.rounds = %v, want 42", vars["ring.rounds"])
	}

	var ring map[string][]RoundTrace
	if err := json.Unmarshal(get(t, base+"/debug/ring"), &ring); err != nil {
		t.Fatal(err)
	}
	if len(ring["node1"]) != 2 || ring["node1"][1].Round != 2 || ring["node1"][1].SentSeq != 6 {
		t.Fatalf("ring traces = %+v", ring["node1"])
	}

	if err := json.Unmarshal(get(t, fmt.Sprintf("%s/debug/ring?n=1", base)), &ring); err != nil {
		t.Fatal(err)
	}
	if len(ring["node1"]) != 1 || ring["node1"][0].Round != 2 {
		t.Fatalf("ring?n=1 = %+v", ring["node1"])
	}

	// pprof index answers.
	if body := get(t, base+"/debug/pprof/"); len(body) == 0 {
		t.Fatal("empty pprof index")
	}
}

// startTestServer brings up a server with one of everything registered.
func startTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("ring.rounds").Add(9)
	reg.Histogram("ring.token_hold_ns", []float64{10, 100}).Observe(50)
	s, err := StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// A node's message tracer and its flight recorder share its name.
	mt := NewMsgTracer(1, 8)
	mt.Record(Event{Seq: 7, Kind: StageSubmit})
	mt.Record(Event{Seq: 7, Kind: StageDeliver})
	mt.Record(Event{Seq: 8, Kind: StageSubmit})
	s.Add("node1", mt)

	fr := NewRecorder(8)
	fr.Record(Event{Kind: FlightState, Note: "operational"})
	s.Add("node1", fr)

	return s, "http://" + s.Addr()
}

func status(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestDebugServerParamValidation pins the 400 behavior of every query
// parameter: counts must be small non-negative integers, names must be
// registered.
func TestDebugServerParamValidation(t *testing.T) {
	_, base := startTestServer(t)
	cases := []struct {
		name string
		path string
		want int
	}{
		{"ring default", "/debug/ring", 200},
		{"ring n ok", "/debug/ring?n=2", 200},
		{"ring n zero", "/debug/ring?n=0", 200},
		{"ring n negative", "/debug/ring?n=-1", 400},
		{"ring n huge", "/debug/ring?n=9999999", 400},
		{"ring n overflow", "/debug/ring?n=99999999999999999999", 400},
		{"ring n junk", "/debug/ring?n=abc", 400},
		{"ring tracer known", "/debug/ring?tracer=node1", 200},
		{"ring tracer unknown", "/debug/ring?tracer=nope", 400},
		{"msgtrace default", "/debug/msgtrace", 200},
		{"msgtrace seq", "/debug/msgtrace?seq=7", 200},
		{"msgtrace seq junk", "/debug/msgtrace?seq=abc", 400},
		{"msgtrace seq negative", "/debug/msgtrace?seq=-1", 400},
		{"msgtrace n negative", "/debug/msgtrace?n=-5", 400},
		{"msgtrace tracer unknown", "/debug/msgtrace?tracer=nope", 400},
		{"flight default", "/debug/flight", 200},
		{"flight name known", "/debug/flight?name=node1", 200},
		{"flight name unknown", "/debug/flight?name=nope", 400},
		{"metrics", "/metrics", 200},
		{"health unattached", "/debug/health", 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := status(t, base+tc.path); got != tc.want {
				t.Fatalf("GET %s = %d, want %d", tc.path, got, tc.want)
			}
		})
	}
}

func TestDebugServerMsgTraceMergesBySeq(t *testing.T) {
	s, base := startTestServer(t)
	// A second node's tracer: the same deterministic sampling records the
	// same seq, so ?seq=7 returns the span from both.
	mt2 := NewMsgTracer(1, 8)
	mt2.Record(Event{Seq: 7, Kind: StageRecv})
	s.Add("node2", mt2)

	var out map[string][]map[string]any
	if err := json.Unmarshal(get(t, base+"/debug/msgtrace?seq=7"), &out); err != nil {
		t.Fatal(err)
	}
	if len(out["node1"]) != 2 || len(out["node2"]) != 1 {
		t.Fatalf("merged span = %+v", out)
	}
	for _, evs := range out {
		for _, ev := range evs {
			if ev["seq"] != float64(7) {
				t.Fatalf("event for wrong seq: %+v", ev)
			}
		}
	}
	if out["node1"][0]["stage"] != "submit" || out["node2"][0]["stage"] != "recv" {
		t.Fatalf("stages not rendered by name: %+v", out)
	}
}

func TestDebugServerFlightJSONL(t *testing.T) {
	_, base := startTestServer(t)
	resp, err := http.Get(base + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	lines := 0
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		lines++
	}
	// {"recorder": "node1"} + its one black-box event: the stages the
	// name's message tracer holds belong to /debug/msgtrace.
	if lines != 2 || !strings.HasPrefix(string(body), `{"recorder":"node1"}`+"\n"+`{"at":`) || !strings.Contains(string(body), `"kind":"state","note":"operational"`) {
		t.Fatalf("got %d JSONL lines:\n%s", lines, body)
	}
}

func TestDebugServerMetrics(t *testing.T) {
	_, base := startTestServer(t)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE accelring_ring_rounds counter",
		"accelring_ring_rounds 9",
		"# TYPE accelring_ring_token_hold_ns histogram",
		`accelring_ring_token_hold_ns_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestDebugServerHealth(t *testing.T) {
	s, base := startTestServer(t)
	h := NewHealth(s.reg, HealthConfig{})
	s.SetHealth(h)
	var sts []HealthStatus
	if err := json.Unmarshal(get(t, base+"/debug/health"), &sts); err != nil {
		t.Fatal(err)
	}
	if len(sts) != 1 || sts[0].Ring != "" {
		t.Fatalf("health = %+v", sts)
	}
	s.SetHealth(nil)
	if got := status(t, base+"/debug/health"); got != 404 {
		t.Fatalf("detached health = %d, want 404", got)
	}
}

// TestDebugServerRingViewSharded: one recorder shared by a node's rings is
// rendered as one key per ring, "name.shardN", as the per-ring tracers
// were.
func TestDebugServerRingViewSharded(t *testing.T) {
	s, base := startTestServer(t)
	fr := NewRecorder(32)
	visit(fr, "shard0", time.Unix(1, 0), 1, 0, 2, 1, 0, 0)
	visit(fr, "shard1", time.Unix(1, 0), 1, 0, 1, 1, 0, 0)
	visit(fr, "shard0", time.Unix(2, 0), 2, 2, 0, 0, 0, 0)
	s.Add("daemon1", fr)

	var ring map[string][]RoundTrace
	if err := json.Unmarshal(get(t, base+"/debug/ring?n=1"), &ring); err != nil {
		t.Fatal(err)
	}
	if len(ring) != 2 || len(ring["daemon1.shard0"]) != 1 || len(ring["daemon1.shard1"]) != 1 ||
		ring["daemon1.shard0"][0].Round != 2 {
		t.Fatalf("sharded ring view = %+v", ring)
	}
}

// TestDebugServerLatencyOverflowSpan is the regression for the endpoint
// going blank forever: one span longer than the top latency bucket
// (~13.4 s, e.g. a message delivered after a healed partition) lands in the
// +Inf bucket, whose bound JSON cannot carry; the digest must clamp it to
// the last finite bound and the endpoint keep answering.
func TestDebugServerLatencyOverflowSpan(t *testing.T) {
	s, base := startTestServer(t)
	mt := NewMsgTracer(1, 8)
	agg := NewLatencyAgg(s.reg)
	agg.AddTracer("", mt)
	s.SetLatency(agg)
	at := time.Unix(100, 0)
	mt.Record(Event{Seq: 1, Kind: StageSubmit, At: at})
	mt.Record(Event{Seq: 1, Kind: StageDeliver, At: at.Add(20 * time.Second)})

	var scopes []LatencyScopeSnapshot
	if err := json.Unmarshal(get(t, base+"/debug/latency"), &scopes); err != nil {
		t.Fatalf("/debug/latency after a 20 s span: %v", err)
	}
	bounds := LatencyBuckets()
	if top := bounds[len(bounds)-1]; len(scopes) != 1 || scopes[0].SpansFolded != 1 ||
		scopes[0].E2E.MaxNs != top || scopes[0].Stages["ordering"].MaxNs != top {
		t.Fatalf("digest = %+v, want max_ns clamped to the last finite bound", scopes)
	}
}

// TestWriteJSONEncodeErrorIs500: a value JSON cannot carry must answer
// 500 with the reason, never an empty 200.
func TestWriteJSONEncodeErrorIs500(t *testing.T) {
	s, base := startTestServer(t)
	s.reg.Publish("bad", func() any { return math.Inf(1) })
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "encode response") {
		t.Fatalf("status %d body %q, want a 500 naming the encode error", resp.StatusCode, body)
	}
}
