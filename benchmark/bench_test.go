package main

import (
	"sort"
	"strings"
	"testing"
)

func loadDecl(t *testing.T) *benchDecl {
	t.Helper()
	var decl benchDecl
	if err := readJSON("../BENCHMARK.json", &decl); err != nil {
		t.Fatal(err)
	}
	return &decl
}

// TestDeclaredNamesMatch keeps BENCHMARK.json and the program from
// drifting apart: same workloads with the same reasons, same metrics with
// the same units, on both sides.
func TestDeclaredNamesMatch(t *testing.T) {
	decl := loadDecl(t)

	var want, got []string
	for _, wl := range workloads {
		want = append(want, wl.name+": "+wl.why)
	}
	for _, wl := range decl.Workloads {
		got = append(got, wl.Name+": "+wl.Why)
	}
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Errorf("workloads differ\nprogram:\n%s\nBENCHMARK.json:\n%s", strings.Join(want, "\n"), strings.Join(got, "\n"))
	}

	want, got = nil, nil
	for _, m := range endToEnd {
		want = append(want, m.name+" "+m.unit)
	}
	for _, m := range decl.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
		if m.Better != "lower" && m.Better != "higher" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: direction %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Errorf("end-to-end metrics differ\nprogram: %v\nBENCHMARK.json: %v", want, got)
	}

	want, got = nil, nil
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit)
	}
	for _, m := range decl.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: direction %q", m.Name, m.Better)
		}
	}
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Errorf("per-layer metrics differ\nprogram: %v\nBENCHMARK.json: %v", want, got)
	}
}

func metricNames(m map[string]metric) []string {
	var names []string
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestQuickRunsEveryWorkload is the benchmark's own smoke test: every
// workload, both passes, in -quick mode. Each must come out correct —
// order, exactly-once, no failed operation, no reconfiguration — and emit
// exactly the metrics BENCHMARK.json declares.
func TestQuickRunsEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the real stack eight times")
	}
	decl := loadDecl(t)
	var wantE2E, wantLayer []string
	for _, m := range decl.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range decl.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)

	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 1, seconds: quickSeconds, traced: traced, quick: true}
			run, want := runUntraced, wantE2E
			if traced {
				run, want = runTraced, wantLayer
			}
			// A busy test machine can starve the stack into a token loss
			// or a slow drain, which invalidates a run without saying
			// anything about the program: such a run is repeated. A real
			// ordering bug fails every attempt.
			var out *runOutput
			for attempt := 1; attempt <= 3; attempt++ {
				var err error
				if out, err = run(wl, cfg); err != nil {
					t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
				}
				if out.res.Correct {
					break
				}
				t.Logf("%s traced=%v attempt %d: %v", wl.name, traced, attempt, out.problems)
			}
			if !out.res.Correct {
				t.Errorf("%s traced=%v: never came out correct", wl.name, traced)
			}
			if got := metricNames(out.res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s traced=%v emitted %v, BENCHMARK.json declares %v", wl.name, traced, got, want)
			}
			if out.res.Attempted < 1 {
				t.Errorf("%s traced=%v attempted %d operations", wl.name, traced, out.res.Attempted)
			}
		}
	}
}
