package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchDecl is BENCHMARK.json: the declaration the driver and -compare
// read. The program's own lists (workloads, endToEnd, perLayer) must name
// the same things; a test keeps them equal.
type benchDecl struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// resultFile is what a full run writes (results/latest.json) and what
// -compare reads.
type resultFile struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string]metric    `json:"end_to_end"`
	PerLayer  map[string]metric    `json:"per_layer"`
	Windows   map[string][]float64 `json:"windows"` // per-window values of the end-to-end metrics that have them, and of box_probe_us
}

func (w *workloadResult) failedShare() float64 {
	return ratio(float64(w.Failed), float64(w.Attempted))
}

// windowNoise estimates how far a run's figure may sit from the truth,
// as a share of it: the spread between the quartiles of the run's own
// windows, over their median, shrunk by the square root of the window
// count as the error of an average over them would be. 0 when the metric
// has no windows.
func windowNoise(windows []float64) float64 {
	if len(windows) < 4 {
		return 0
	}
	s := append([]float64(nil), windows...)
	sort.Float64s(s)
	q1, q3 := s[len(s)/4], s[len(s)*3/4]
	return ratio(q3-q1, median(s)) / math.Sqrt(float64(len(s)))
}

// boxDrift is how much the box's own speed differed between two runs, as
// a share: the change in the time the same fixed work took (see
// boxProbe). 0 when either run has no probes.
func boxDrift(o, n *workloadResult) float64 {
	a, b := median(o.Windows["box_probe_us"]), median(n.Windows["box_probe_us"])
	return math.Abs(ratio(b-a, a))
}

// verdict compares one metric. worse is the change as a share of the old
// value, positive when the new value is worse.
func verdict(better string, bound, oldV, newV, noise float64) (status string, worse float64) {
	worse = ratio(newV-oldV, math.Abs(oldV))
	if better == "higher" {
		worse = -worse
	}
	switch {
	case noise > bound:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	case worse < -bound:
		return "improved", worse
	}
	return "ok", worse
}

// compareResults prints one row per workload and end-to-end metric and
// reports whether anything regressed: a metric worse by more than its
// bound, or a larger share of failed operations.
func compareResults(w io.Writer, decl *benchDecl, oldR, newR *resultFile) (regressed bool, err error) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tworse by\tbound\tverdict")
	for _, wl := range decl.Workloads {
		o, n := oldR.Workloads[wl.Name], newR.Workloads[wl.Name]
		if o == nil || n == nil {
			return false, fmt.Errorf("workload %s is missing from one of the files", wl.Name)
		}
		for _, m := range decl.EndToEnd {
			ov, ook := o.EndToEnd[m.Name]
			nv, nok := n.EndToEnd[m.Name]
			if !ook || !nok {
				return false, fmt.Errorf("%s %s is missing from one of the files", wl.Name, m.Name)
			}
			noise := math.Max(windowNoise(o.Windows[m.Name]), windowNoise(n.Windows[m.Name]))
			if m.Unit != "count" && m.Unit != "MB" {
				// A timing cannot be judged across two speeds of the box.
				noise = math.Max(noise, boxDrift(o, n))
			}
			status, worse := verdict(m.Better, m.Bound, ov.Value, nv.Value, noise)
			regressed = regressed || status == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n", wl.Name, m.Name, ov.Value, nv.Value, 100*worse, 100*m.Bound, status)
		}
		status := "ok"
		if n.failedShare() > o.failedShare() || (!n.Correct && o.Correct) {
			status, regressed = "regressed", true
		}
		fmt.Fprintf(tw, "%s\tfailed_ops_share\t%.6g\t%.6g\t\t\t%s\n", wl.Name, o.failedShare(), n.failedShare(), status)
	}
	return regressed, tw.Flush()
}

// compareFiles compares two result files under the bounds declared in
// the BENCHMARK.json of the current directory.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	var decl benchDecl
	if err := readJSON("BENCHMARK.json", &decl); err != nil {
		return false, fmt.Errorf("read the declaration (run from the repository root): %w", err)
	}
	var oldR, newR resultFile
	if err := readJSON(oldPath, &oldR); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &newR); err != nil {
		return false, err
	}
	return compareResults(w, &decl, &oldR, &newR)
}
