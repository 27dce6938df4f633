package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const compareDecl = `{
 "workloads": [{"name": "w", "why": "test"}],
 "end_to_end": [
  {"name": "lat_us", "unit": "us", "better": "lower", "bound": 0.10},
  {"name": "rate", "unit": "msg/s", "better": "higher", "bound": 0.10}
 ]
}`

func TestCompare(t *testing.T) {
	steady := `[100,101,99,100,102,98,100,101,99,100]`
	wild := `[40,160,70,130,100,20,180,100,55,145]`
	file := func(lat, rate float64, latWindows string, attempted, failed int) string {
		b, _ := json.Marshal(map[string]any{
			"workloads": map[string]any{"w": map[string]any{
				"correct": true, "attempted": attempted, "failed": failed,
				"end_to_end": map[string]any{
					"lat_us": map[string]any{"value": lat, "unit": "us"},
					"rate":   map[string]any{"value": rate, "unit": "msg/s"},
				},
				"windows": map[string]json.RawMessage{"lat_us": json.RawMessage(latWindows)},
			}},
		})
		return string(b)
	}
	cases := []struct {
		name          string
		old, new      string
		wantLat       string
		wantRate      string
		wantFailed    string
		wantRegressed bool
	}{
		{"unchanged", file(100, 1000, steady, 1000, 0), file(100, 1000, steady, 1000, 0), "ok", "ok", "ok", false},
		{"within the bound", file(100, 1000, steady, 1000, 0), file(108, 950, steady, 1000, 0), "ok", "ok", "ok", false},
		{"latency regressed", file(100, 1000, steady, 1000, 0), file(115, 1000, steady, 1000, 0), "regressed", "ok", "ok", true},
		{"latency improved", file(100, 1000, steady, 1000, 0), file(80, 1000, steady, 1000, 0), "improved", "ok", "ok", false},
		{"higher is better: a drop regresses", file(100, 1000, steady, 1000, 0), file(100, 850, steady, 1000, 0), "ok", "regressed", "ok", true},
		{"higher is better: a rise improves", file(100, 1000, steady, 1000, 0), file(100, 1200, steady, 1000, 0), "ok", "improved", "ok", false},
		{"noisy windows leave it unresolved", file(100, 1000, steady, 1000, 0), file(130, 1000, wild, 1000, 0), "unresolved", "ok", "ok", false},
		{"noise on the old side too", file(100, 1000, wild, 1000, 0), file(70, 1000, steady, 1000, 0), "unresolved", "ok", "ok", false},
		{"any rise in failures regresses", file(100, 1000, steady, 1000, 0), file(100, 1000, steady, 1000, 1), "ok", "ok", "regressed", true},
		{"fewer failures do not", file(100, 1000, steady, 1000, 2), file(100, 1000, steady, 1000, 1), "ok", "ok", "ok", false},
	}
	var decl benchDecl
	if err := json.Unmarshal([]byte(compareDecl), &decl); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var oldR, newR resultFile
			if err := json.Unmarshal([]byte(tc.old), &oldR); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(tc.new), &newR); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			regressed, err := compareResults(&buf, &decl, &oldR, &newR)
			if err != nil {
				t.Fatal(err)
			}
			if regressed != tc.wantRegressed {
				t.Errorf("regressed = %v, want %v\n%s", regressed, tc.wantRegressed, buf.String())
			}
			got := make(map[string]string) // metric -> verdict, the last column of each row
			for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] {
				f := strings.Fields(line)
				got[f[1]] = f[len(f)-1]
			}
			want := map[string]string{"lat_us": tc.wantLat, "rate": tc.wantRate, "failed_ops_share": tc.wantFailed}
			for m, v := range want {
				if got[m] != v {
					t.Errorf("%s: verdict %q, want %q\n%s", m, got[m], v, buf.String())
				}
			}
		})
	}
}

// A timing that moved together with the box's own speed is not judged;
// a count is.
func TestCompareBoxDrift(t *testing.T) {
	var decl benchDecl
	if err := json.Unmarshal([]byte(`{"workloads": [{"name": "w", "why": "test"}], "end_to_end": [
		{"name": "lat_us", "unit": "us", "better": "lower", "bound": 0.10},
		{"name": "allocs", "unit": "count", "better": "lower", "bound": 0.10}]}`), &decl); err != nil {
		t.Fatal(err)
	}
	run := func(lat, allocs, probe float64) *resultFile {
		return &resultFile{Workloads: map[string]*workloadResult{"w": {
			Correct: true, Attempted: 1000,
			EndToEnd: map[string]metric{"lat_us": {Value: lat, Unit: "us"}, "allocs": {Value: allocs, Unit: "count"}},
			Windows:  map[string][]float64{"box_probe_us": {probe, probe, probe, probe}},
		}}}
	}
	var buf bytes.Buffer
	regressed, err := compareResults(&buf, &decl, run(100, 50, 150), run(140, 60, 210))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !regressed || !strings.Contains(out, "unresolved") || strings.Count(out, "regressed") != 1 {
		t.Errorf("want the timing unresolved and the count regressed:\n%s", out)
	}
}

func TestCompareMissingWorkload(t *testing.T) {
	var decl benchDecl
	if err := json.Unmarshal([]byte(compareDecl), &decl); err != nil {
		t.Fatal(err)
	}
	empty := &resultFile{Workloads: map[string]*workloadResult{}}
	if _, err := compareResults(&bytes.Buffer{}, &decl, empty, empty); err == nil {
		t.Fatal("comparing files that lack a declared workload succeeded")
	}
}
