// Command benchmark is the repository's end-to-end benchmark: it starts
// the real stack in one process at its default configuration — three
// daemons on loopback UDP, two client connections over TCP — offers one
// of four fixed workloads, checks the delivery order, and prints the
// end-to-end metrics (untraced) or the per-layer metrics (a traced pass,
// public counters and a ladder of per-layer timings). See README.md.
//
//	go run ./benchmark                                  every workload, both passes -> results/latest.json
//	go run ./benchmark -workload steady_agreed_1350 -seed 7 -seconds 20 -trace 0
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

const (
	warmUp       = 3 * time.Second
	quickWarmUp  = 300 * time.Millisecond
	setupRepeats = 3 // stacks brought up per untraced run; setup_s is their median
	quickSeconds = 2
	quickLadder  = 20 // -quick runs the ladder at 1/20 of its iterations
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workloadName := fs.String("workload", "", "run this one workload in this process (default: every workload, each in a fresh process)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs: Poisson gaps, group choice, payload fill")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass and ladder, per-layer metrics")
	quick := fs.Bool("quick", false, "smoke run: 2 s measured, short warm-up, one set-up, ladder at 1/20")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	spans := fs.String("spans", "", "with -trace 1: write the traced pass's per-message boundary spans to this JSONL file")
	fs.Parse(os.Args[1:])

	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case *workloadName == "":
		err = runAll(*seed, *seconds, *quick)
	default:
		wl, ok := findWorkload(*workloadName)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *workloadName)
			break
		}
		if *trace != 0 && *trace != 1 {
			err = fmt.Errorf("-trace must be 0 or 1")
			break
		}
		if *seconds < 1 || *seconds > 60 {
			err = fmt.Errorf("-seconds must be between 1 and 60")
			break
		}
		err = runOne(wl, runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, quick: *quick, spans: *spans})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	seed    int64
	seconds int
	traced  bool
	quick   bool
	spans   string
}

func (c runConfig) warm() time.Duration {
	if c.quick {
		return quickWarmUp
	}
	return warmUp
}

// runOne runs one workload in this process and prints one line per
// metric, the per-window values, and the result object last. A run that
// fails a correctness check prints its result with correct=false and the
// problems on standard error, and still exits 0: the verdict is in the
// result. Only a run that could not be made at all is an error.
func runOne(wl workload, cfg runConfig) error {
	if _, ok := processCPU(); !ok {
		return fmt.Errorf("process CPU time and resident set size are unavailable on this platform")
	}
	if cfg.quick {
		cfg.seconds = quickSeconds
	}
	var out *runOutput
	var err error
	if cfg.traced {
		out, err = runTraced(wl, cfg)
	} else {
		out, err = runUntraced(wl, cfg)
	}
	if err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "benchmark:", wl.name+":", p)
	}
	names := make([]string, 0, len(out.res.Metrics))
	for name := range out.res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.res.Metrics[name]
		fmt.Printf("%s %s %.6g %s\n", wl.name, name, m.Value, m.Unit)
	}
	if len(out.windows) > 0 {
		w, err := json.Marshal(out.windows)
		if err != nil {
			return err
		}
		fmt.Printf("#windows %s\n", w)
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runOutput is one run's result plus what does not fit the contract's
// result object.
type runOutput struct {
	res      result
	windows  map[string][]float64
	problems []string
}

// pick copies the declared metrics out of the computed values; a declared
// metric nobody computed is a bug in the benchmark.
func pick(decls []metricDecl, val map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		v, ok := val[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// onePass brings a stack up, runs one pass on it, stops it and evaluates
// the pass. afterPass runs while the stack is still up.
func onePass(wl workload, cfg runConfig, window time.Duration, traced bool, afterPass func()) (*passData, *passStats, error) {
	s, err := startStack(wl, traced, makeFill(cfg.seed), cfg.warm()+window)
	if err != nil {
		return nil, nil, err
	}
	pd, err := runPass(s, cfg.seed, cfg.warm(), window)
	if err == nil && afterPass != nil {
		afterPass()
	}
	s.stop()
	defer s.free()
	if err != nil {
		return nil, nil, err
	}
	pd.collect(s)
	return pd, evaluate(pd), nil
}

// runUntraced measures the end-to-end metrics: one untraced pass of the
// full length on the process's first stack — so the pass always meets the
// heap and the pools a fresh daemon would — then setupRepeats-1 further
// set-ups, for the median set-up time.
func runUntraced(wl workload, cfg runConfig) (*runOutput, error) {
	var rss float64
	pd, st, err := onePass(wl, cfg, time.Duration(cfg.seconds)*time.Second, false, func() { rss, _ = peakRSSMB() })
	if err != nil {
		return nil, err
	}
	setups := []float64{pd.setup.Seconds()}
	for len(setups) < setupRepeats && !cfg.quick {
		s, err := startStack(wl, false, makeFill(cfg.seed), 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		s.stop()
		s.free()
	}
	st.val["setup_s"] = median(setups)
	st.val["peak_rss_mb"] = rss
	metrics, err := pick(endToEnd, st.val)
	if err != nil {
		return nil, err
	}
	return &runOutput{
		res:      result{Correct: len(st.problems) == 0, Attempted: st.attempted, Failed: st.failed, Metrics: metrics},
		windows:  st.windows,
		problems: st.problems,
	}, nil
}

// runTraced measures the per-layer metrics: an untraced pass and a traced
// pass of half the length each — two separate stacks, same load — then
// the ladder. Figures that need no tracing come from the untraced pass,
// so tracing does not disturb them; the difference in CPU per message
// between the two passes is the tracing overhead.
func runTraced(wl workload, cfg runConfig) (*runOutput, error) {
	window := time.Duration(cfg.seconds) * time.Second / 2
	_, plain, err := onePass(wl, cfg, window, false, nil)
	if err != nil {
		return nil, err
	}
	tpd, traced, err := onePass(wl, cfg, window, true, nil)
	if err != nil {
		return nil, err
	}
	scale := 1
	if cfg.quick {
		scale = quickLadder
	}
	ladder, err := runLadder(wl, scale)
	if err != nil {
		return nil, err
	}

	// The traced pass contributes only the figures the untraced pass
	// cannot compute.
	overhead := ratio(traced.val["cpu_us_per_msg"]-plain.val["cpu_us_per_msg"], plain.val["cpu_us_per_msg"])
	val := traced.val
	for name, v := range plain.val {
		val[name] = v
	}
	for name, v := range ladder {
		val[name] = v
	}
	val["trace.overhead_share"] = overhead
	metrics, err := pick(perLayer, val)
	if err != nil {
		return nil, err
	}
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, tpd); err != nil {
			return nil, err
		}
	}
	problems := append(plain.problems, traced.problems...)
	return &runOutput{
		res: result{
			Correct:   len(problems) == 0,
			Attempted: plain.attempted + traced.attempted,
			Failed:    plain.failed + traced.failed,
			Metrics:   metrics,
		},
		problems: problems,
	}, nil
}
