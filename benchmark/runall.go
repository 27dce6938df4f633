package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

const resultsDir = "benchmark/results"

// runAll is the command with no -workload: every workload, each pass in a
// fresh process (clean set-up time, resident set and collector state),
// exactly the two invocations per workload the driver makes — all the
// untraced ones first, so no end-to-end figure is measured in the wake of
// a span file being written. It echoes the children's metric lines,
// writes results/latest.json and the traced passes' span files, and fails
// if any pass was incorrect.
func runAll(seed int64, seconds int, quick bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	file := resultFile{Seed: seed, Seconds: seconds, Workloads: make(map[string]*workloadResult)}
	var incorrect []string
	for _, wl := range workloads {
		file.Workloads[wl.name] = &workloadResult{Correct: true}
	}
	for trace := 0; trace <= 1; trace++ {
		for _, wl := range workloads {
			wr := file.Workloads[wl.name]
			args := []string{"-workload", wl.name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
			if quick {
				args = append(args, "-quick")
			}
			if trace == 1 {
				args = append(args, "-spans", filepath.Join(resultsDir, "trace-"+wl.name+".jsonl"))
			}
			res, windows, err := runChild(self, args)
			if err != nil {
				return fmt.Errorf("%s -trace %d: %w", wl.name, trace, err)
			}
			if !res.Correct {
				wr.Correct = false
				incorrect = append(incorrect, fmt.Sprintf("%s -trace %d", wl.name, trace))
			}
			if trace == 0 {
				wr.Attempted, wr.Failed = res.Attempted, res.Failed
				wr.EndToEnd, wr.Windows = res.Metrics, windows
			} else {
				wr.PerLayer = res.Metrics
			}
		}
	}
	out, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(resultsDir, "latest.json")
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "benchmark: wrote", path)
	if len(incorrect) > 0 {
		return fmt.Errorf("correctness checks failed: %s", strings.Join(incorrect, ", "))
	}
	return nil
}

// runChild runs one pass in a child process, echoes its metric lines and
// parses the result object it prints last.
func runChild(self string, args []string) (result, map[string][]float64, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, nil, err
	}
	var res result
	var windows map[string][]float64
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for i, line := range lines {
		switch {
		case i == len(lines)-1:
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return result{}, nil, fmt.Errorf("child printed no result: %w", err)
			}
		case strings.HasPrefix(line, "#windows "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "#windows ")), &windows); err != nil {
				return result{}, nil, fmt.Errorf("child printed bad windows: %w", err)
			}
		default:
			fmt.Println(line)
		}
	}
	return res, windows, nil
}
