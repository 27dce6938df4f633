package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"accelring/internal/simproc"
)

// TestForcedViolationDumpsFlights exercises the violation → black-box
// path end to end: a forced violation must produce per-incarnation (and
// network) JSONL dumps of real recorded protocol events.
func TestForcedViolationDumpsFlights(t *testing.T) {
	dir := t.TempDir()
	res := Run(Options{Seed: 11, ForceViolation: true, FlightDir: dir})

	forced := false
	for _, v := range res.Violations {
		if v.Invariant == "forced" {
			forced = true
		}
	}
	if !forced {
		t.Fatalf("forced violation missing: %+v", res.Violations)
	}

	files, err := filepath.Glob(filepath.Join(dir, "chaos-flight-seed11-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 { // at least one incarnation plus the injector
		t.Fatalf("got %d dump files, want >= 2: %v", len(files), files)
	}
	sawNet, sawNode := false, false
	for _, f := range files {
		if strings.HasSuffix(f, "-net.jsonl") {
			sawNet = true
		}
		if strings.Contains(filepath.Base(f), "-node") {
			sawNode = true
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("%s: bad JSONL line %q: %v", f, line, err)
			}
			if _, ok := m["kind"]; !ok {
				t.Fatalf("%s: event without kind: %q", f, line)
			}
			// Dumps line up with the deterministic schedule: every event
			// is stamped from the simulator's clock, never from the wall.
			at, err := time.Parse(time.RFC3339Nano, fmt.Sprint(m["at"]))
			if epoch := simproc.Wall(0); err != nil || at.Before(epoch) || at.After(epoch.Add(time.Hour)) {
				t.Fatalf("%s: event not on the virtual clock: %q (%v)", f, line, err)
			}
			lines++
		}
		if lines == 0 {
			t.Fatalf("%s: empty dump (recorders with no events must be skipped)", f)
		}
	}
	if !sawNet || !sawNode {
		t.Fatalf("dumps missing a category: net=%v node=%v (%v)", sawNet, sawNode, files)
	}
}

// TestFlightDumpIsPureSideEffect pins that flight recording and dumping
// never perturb the deterministic Result: the same seed with and without
// the dump machinery must replay identically (modulo the planted
// violation itself).
func TestFlightDumpIsPureSideEffect(t *testing.T) {
	plain := Run(Options{Seed: 23})
	dumped := Run(Options{Seed: 23, ForceViolation: true, FlightDir: t.TempDir()})

	var rest []Violation
	for _, v := range dumped.Violations {
		if v.Invariant != "forced" {
			rest = append(rest, v)
		}
	}
	dumped.Violations = rest
	if !reflect.DeepEqual(plain, dumped) {
		t.Fatalf("flight machinery changed the run:\nplain:  %+v\ndumped: %+v", plain, dumped)
	}
}

// TestNoViolationNoDump: a clean run must leave the dump directory empty.
func TestNoViolationNoDump(t *testing.T) {
	dir := t.TempDir()
	res := Run(Options{Seed: 23, FlightDir: dir})
	if len(res.Violations) != 0 {
		t.Skipf("seed 23 not clean on this build: %+v", res.Violations)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != 0 {
		t.Fatalf("clean run wrote dumps: %v", files)
	}
}
