package bench

import (
	"fmt"

	"accelring/internal/evs"
	"accelring/internal/simnet"
	"accelring/internal/simproc"
)

// Suite generates the paper's figures. Quick mode shortens measurement
// windows and thins sweeps for use in tests and `go test -bench`; the full
// mode (cmd/ringbench) regenerates complete curves.
type Suite struct {
	// Quick selects reduced sweeps and windows.
	Quick bool
	// Seed makes every run deterministic. Zero means 42.
	Seed int64
	// Progress, when set, is called before each run with a description.
	Progress func(string)
}

func (s *Suite) seed() int64 {
	if s.Seed == 0 {
		return 42
	}
	return s.Seed
}

func (s *Suite) times() (warmup, measure simnet.Time) {
	if s.Quick {
		return 20 * simnet.Millisecond, 60 * simnet.Millisecond
	}
	return 50 * simnet.Millisecond, 200 * simnet.Millisecond
}

// windows returns the tuned flow-control parameters for a fabric, chosen
// per the paper's method (smallest personal window reaching maximum
// throughput; accelerated window about three quarters of it).
func fabricWindows(fabric simnet.Config) Windows {
	if fabric.LinkBitsPerSec >= 1e10 {
		return Windows{Personal: 30, Global: 240, Accelerated: 20}
	}
	return Windows{Personal: 20, Global: 160, Accelerated: 15}
}

type impl struct {
	name string
	prof simproc.Profile
}

func allImpls() []impl {
	return []impl{
		{"library", simproc.Library()},
		{"daemon", simproc.Daemon()},
		{"spread", simproc.Spread()},
	}
}

func (s *Suite) progress(format string, args ...any) {
	if s.Progress != nil {
		s.Progress(fmt.Sprintf(format, args...))
	}
}

func (s *Suite) rates(full, quick []float64) []float64 {
	if s.Quick {
		return quick
	}
	return full
}

// run executes one point with the suite's windows and timing defaults.
func (s *Suite) run(cfg RunConfig, label string) (Result, error) {
	s.progress("%s", label)
	cfg.Warmup, cfg.Measure = s.times()
	if cfg.Seed == 0 {
		cfg.Seed = s.seed()
	}
	return Run(cfg)
}

// latencyCurve produces a latency-vs-throughput table: one row per offered
// rate, one column per implementation × protocol.
func (s *Suite) latencyCurve(id, title string, fabric simnet.Config, svc evs.Service,
	payload int, rateList []float64, impls []impl) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"Mbps"},
		Notes: []string{
			"cells: mean delivery latency in µs; '*' marks points where measured goodput fell below 95% of offered load (beyond saturation)",
		},
	}
	protos := []Protocol{OriginalRing, AcceleratedRing}
	for _, im := range impls {
		for _, p := range protos {
			t.Columns = append(t.Columns, fmt.Sprintf("%s/%s", im.name, p))
		}
	}
	w := fabricWindows(fabric)
	for _, rate := range rateList {
		row := []string{mbps(rate)}
		for _, im := range impls {
			for _, p := range protos {
				res, err := s.run(RunConfig{
					Fabric: fabric, Profile: im.prof, Protocol: p,
					Windows: w, Service: svc, PayloadBytes: payload,
					OfferedMbps: rate,
				}, fmt.Sprintf("%s %s/%s %.0fMbps", id, im.name, p, rate))
				if err != nil {
					return nil, err
				}
				row = append(row, us(res, rate))
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// payloadCurve compares 1350-byte and 8850-byte payloads for the
// accelerated protocol (Figures 5 and 7).
func (s *Suite) payloadCurve(id, title string, svc evs.Service) (*Table, error) {
	fabric := simnet.TenGigFabric(8)
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"Mbps"},
		Notes:   []string{"accelerated protocol only; cells as in the latency curves"},
	}
	impls := allImpls()
	payloads := []int{1350, 8850}
	for _, im := range impls {
		for _, pl := range payloads {
			t.Columns = append(t.Columns, fmt.Sprintf("%s/%dB", im.name, pl))
		}
	}
	rateList := s.rates(
		[]float64{250, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 5000, 6000, 7000},
		[]float64{500, 2000, 4000, 6000},
	)
	w := fabricWindows(fabric)
	for _, rate := range rateList {
		row := []string{mbps(rate)}
		for _, im := range impls {
			for _, pl := range payloads {
				res, err := s.run(RunConfig{
					Fabric: fabric, Profile: im.prof, Protocol: AcceleratedRing,
					Windows: w, Service: svc, PayloadBytes: pl,
					OfferedMbps: rate,
				}, fmt.Sprintf("%s %s/%dB %.0fMbps", id, im.name, pl, rate))
				if err != nil {
					return nil, err
				}
				row = append(row, us(res, rate))
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// lossCurve reproduces the §IV-A4 experiments: fixed goodput, sweeping the
// per-daemon loss rate, reporting mean and worst-5% latency for Agreed and
// Safe delivery under both protocols (Figures 9-12).
func (s *Suite) lossCurve(id, title string, fabric simnet.Config, goodputMbps float64) (*Table, error) {
	t := &Table{
		ID:    id,
		Title: title,
		Columns: []string{"loss%",
			"agreed/orig", "agreed/accel", "safe/orig", "safe/accel",
			"w5.agreed/orig", "w5.agreed/accel", "w5.safe/orig", "w5.safe/accel"},
		Notes: []string{
			fmt.Sprintf("daemon prototype, %d-node loss applied independently per daemon, aggregate goodput %.0f Mbps", fabric.Nodes, goodputMbps),
			"w5.* columns: mean of the worst 5% latencies per sender (the paper's dashed lines)",
		},
	}
	lossList := s.rates(
		[]float64{0, 1, 2.5, 5, 10, 15, 20, 25},
		[]float64{0, 5, 15, 25},
	)
	w := fabricWindows(fabric)
	prof := simproc.Daemon()
	for _, loss := range lossList {
		row := []string{fmt.Sprintf("%g", loss)}
		var means, worsts []string
		for _, svc := range []evs.Service{evs.Agreed, evs.Safe} {
			for _, p := range []Protocol{OriginalRing, AcceleratedRing} {
				res, err := s.run(RunConfig{
					Fabric: fabric, Profile: prof, Protocol: p,
					Windows: w, Service: svc, PayloadBytes: 1350,
					OfferedMbps: goodputMbps, LossPct: loss,
					DrainGrace: 200 * simnet.Millisecond,
				}, fmt.Sprintf("%s %v/%s loss=%g%%", id, svc, p, loss))
				if err != nil {
					return nil, err
				}
				means = append(means, us(res, goodputMbps))
				worsts = append(worsts, fmt.Sprintf("%.0f", res.Worst5Us))
			}
		}
		row = append(row, means...)
		row = append(row, worsts...)
		t.AddRow(row...)
	}
	return t, nil
}

// fig13 sweeps the ring distance between each losing daemon and the daemon
// it loses from, at 20% positional loss.
func (s *Suite) fig13() (*Table, error) {
	fabric := simnet.TenGigFabric(8)
	t := &Table{
		ID:    "fig13",
		Title: "Latency vs ring distance between loser and sender (20% positional loss, 480 Mbps, 10 GbE, daemon prototype)",
		Columns: []string{"distance",
			"agreed/orig", "agreed/accel", "safe/orig", "safe/accel"},
		Notes: []string{"each daemon drops 20% of the messages sent by the daemon `distance` positions before it on the ring"},
	}
	distances := []int{1, 2, 3, 4, 5, 6, 7}
	if s.Quick {
		distances = []int{1, 4, 7}
	}
	w := fabricWindows(fabric)
	prof := simproc.Daemon()
	for _, d := range distances {
		row := []string{fmt.Sprintf("%d", d)}
		for _, svc := range []evs.Service{evs.Agreed, evs.Safe} {
			for _, p := range []Protocol{OriginalRing, AcceleratedRing} {
				res, err := s.run(RunConfig{
					Fabric: fabric, Profile: prof, Protocol: p,
					Windows: w, Service: svc, PayloadBytes: 1350,
					OfferedMbps: 480, LossPct: 20, LossDistance: d,
					DrainGrace: 200 * simnet.Millisecond,
				}, fmt.Sprintf("fig13 %v/%s d=%d", svc, p, d))
				if err != nil {
					return nil, err
				}
				row = append(row, us(res, 480))
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// maxThroughput reproduces the maximum-throughput numbers quoted in the
// paper's abstract and §IV: saturating senders, measured goodput.
func (s *Suite) maxThroughput() (*Table, error) {
	t := &Table{
		ID:      "maxthroughput",
		Title:   "Maximum clean-payload throughput (Mbps), saturating senders, Agreed delivery",
		Columns: []string{"fabric", "payload", "impl", "orig", "accel", "accel gain"},
		Notes:   []string{"paper: 1G accel Spread >920; 10G 1350B lib 4.6G dmn 3.3G spr 2.1-2.3G; 10G 8850B lib 7.3G dmn 6G spr 5.2-5.3G"},
	}
	type point struct {
		fabric  simnet.Config
		name    string
		payload int
	}
	points := []point{
		{simnet.GigabitFabric(8), "1GbE", 1350},
		{simnet.TenGigFabric(8), "10GbE", 1350},
		{simnet.TenGigFabric(8), "10GbE", 8850},
	}
	for _, pt := range points {
		w := fabricWindows(pt.fabric)
		for _, im := range allImpls() {
			var got [2]float64
			for i, p := range []Protocol{OriginalRing, AcceleratedRing} {
				res, err := s.run(RunConfig{
					Fabric: pt.fabric, Profile: im.prof, Protocol: p,
					Windows: w, Service: evs.Agreed, PayloadBytes: pt.payload,
				}, fmt.Sprintf("max %s %dB %s/%s", pt.name, pt.payload, im.name, p))
				if err != nil {
					return nil, err
				}
				got[i] = res.GoodputMbps
			}
			gain := "-"
			if got[0] > 0 {
				gain = fmt.Sprintf("%+.0f%%", (got[1]/got[0]-1)*100)
			}
			t.AddRow(pt.name, fmt.Sprintf("%dB", pt.payload), im.name,
				mbps(got[0]), mbps(got[1]), gain)
		}
	}
	return t, nil
}

// Figure generates one experiment by ID.
func (s *Suite) Figure(id string) (*Table, error) {
	switch id {
	case "fig1":
		return s.fig1()
	case "fig2":
		return s.latencyCurve("fig2",
			"Agreed delivery latency vs throughput, 1 GbE, 1350-byte payloads",
			simnet.GigabitFabric(8), evs.Agreed, 1350,
			s.rates([]float64{100, 200, 300, 400, 500, 600, 700, 800, 900},
				[]float64{100, 400, 700, 900}),
			allImpls())
	case "fig3":
		return s.latencyCurve("fig3",
			"Safe delivery latency vs throughput, 1 GbE, 1350-byte payloads",
			simnet.GigabitFabric(8), evs.Safe, 1350,
			s.rates([]float64{100, 200, 300, 400, 500, 600, 700, 800, 900},
				[]float64{100, 400, 700, 900}),
			allImpls())
	case "fig4":
		return s.latencyCurve("fig4",
			"Agreed delivery latency vs throughput, 10 GbE, 1350-byte payloads",
			simnet.TenGigFabric(8), evs.Agreed, 1350,
			s.rates([]float64{100, 250, 500, 750, 1000, 1250, 1500, 1750, 2000, 2500, 3000, 3500, 4000, 4500},
				[]float64{250, 1000, 2000, 3000}),
			allImpls())
	case "fig5":
		return s.payloadCurve("fig5",
			"Agreed delivery latency vs throughput, 1350 vs 8850-byte payloads, 10 GbE", evs.Agreed)
	case "fig6":
		return s.latencyCurve("fig6",
			"Safe delivery latency vs throughput, 10 GbE, 1350-byte payloads",
			simnet.TenGigFabric(8), evs.Safe, 1350,
			s.rates([]float64{100, 250, 500, 750, 1000, 1250, 1500, 1750, 2000, 2500, 3000, 3500, 4000, 4500},
				[]float64{250, 1000, 2000, 3000}),
			allImpls())
	case "fig7":
		return s.payloadCurve("fig7",
			"Safe delivery latency vs throughput, 1350 vs 8850-byte payloads, 10 GbE", evs.Safe)
	case "fig8":
		return s.latencyCurve("fig8",
			"Safe delivery latency at low throughputs, 10 GbE (crossover region)",
			simnet.TenGigFabric(8), evs.Safe, 1350,
			s.rates([]float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000},
				[]float64{100, 400, 1000}),
			[]impl{{"spread", simproc.Spread()}, {"daemon", simproc.Daemon()}})
	case "fig9":
		return s.lossCurve("fig9",
			"Latency vs loss, 480 Mbps goodput, 10 GbE",
			simnet.TenGigFabric(8), 480)
	case "fig10":
		return s.lossCurve("fig10",
			"Latency vs loss, 1200 Mbps goodput, 10 GbE",
			simnet.TenGigFabric(8), 1200)
	case "fig11":
		return s.lossCurve("fig11",
			"Latency vs loss, 140 Mbps goodput, 1 GbE",
			simnet.GigabitFabric(8), 140)
	case "fig12":
		return s.lossCurve("fig12",
			"Latency vs loss, 350 Mbps goodput, 1 GbE",
			simnet.GigabitFabric(8), 350)
	case "fig13":
		return s.fig13()
	case "maxthroughput":
		return s.maxThroughput()
	case "ablation-aw":
		return s.ablationWindow()
	case "ablation-priority":
		return s.ablationPriority()
	case "ablation-rtr":
		return s.ablationRequestDelay()
	case "ablation-buffer":
		return s.ablationBuffer()
	case "ablation-packing":
		return s.ablationPacking()
	default:
		return nil, fmt.Errorf("bench: unknown figure %q (known: %v)", id, FigureIDs())
	}
}

// FigureIDs lists every reproducible experiment: the paper's figures and
// tables first, then the ablations of DESIGN.md §6.
func FigureIDs() []string {
	return []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "maxthroughput",
		"ablation-aw", "ablation-priority", "ablation-rtr", "ablation-buffer",
		"ablation-packing"}
}
