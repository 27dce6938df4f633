package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"accelring/internal/client"
	"accelring/internal/ringnode"
)

const (
	numWindows   = 10 // the measured window is cut into this many equal parts
	drainTimeout = 5 * time.Second
	sampleEvery  = 5 * time.Millisecond
	probeEvery   = 20 // in samples: one probe every 100 ms
)

// tracedCounters are the obs.Registry counters a traced pass diffs over
// the window, summed over the daemons.
var tracedCounters = []string{
	"daemon.writer_flushes", "daemon.writer_frames", "daemon.fanout_encodes",
	"daemon.backpressure_waits", "daemon.tier_spill",
	"merge.skips_applied", "merge.emitted",
}

// snapshot is every cumulative counter the benchmark diffs, read at one
// window boundary through public accessors only.
type snapshot struct {
	at         time.Duration // since the pass origin
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	nodes      []ringnode.Status
	tx, rx     uint64
	counters   map[string]uint64
}

// passData is what one pass recorded, before evaluation.
type passData struct {
	wl           workload
	traced       bool
	warm, window time.Duration
	origin       time.Duration // pass origin as an offset from the stack's base
	setup        time.Duration
	formRing     time.Duration

	sends [numClients][]sendRec
	recvs [numClients][]recvRec
	snaps []snapshot // numWindows+1 boundaries

	queueLen     []float64 // Status().QueueLen of the submitting daemons' nodes, every sampleEvery
	mergePending []float64 // merge.pending gauge of daemon 1 (traced, sharded)
	probes       []probe   // the box's own speed, every probeEvery
	goroutines   int

	rejections int
	anomalies  []string
	stages     map[string]stageDigest // traced: folded program spans
}

// probe is one timing of boxProbe, a fixed piece of single-threaded work.
type probe struct {
	at   time.Duration // since the pass origin
	took time.Duration
}

// boxProbe does a fixed amount of single-threaded work: 100 000 dependent
// read-modify-writes scattered over a 256 KiB table, about 165 us of it
// when the box is at its best. The benchmark shares its box — a small VM
// — with neighbours it cannot see, and the same instructions take up to
// 1.9 times longer in some stretches of seconds or minutes than in
// others; cache-resident memory traffic like this feels it most (a chain
// of pure arithmetic does not feel it at all), and so does the stack.
// The fastest probe of each window says how fast the box was while the
// window was measured, so a reader (and -compare) can tell a slow program
// from a slow minute. The probes cost 0.2% of one core.
func boxProbe() time.Duration {
	start := time.Now()
	var sum uint64
	for i := uint64(0); i < 100000; i++ {
		idx := i * 2654435761 % uint64(len(probeTable))
		probeTable[idx] += i
		sum += probeTable[idx*7%uint64(len(probeTable))]
	}
	probeTable[0] = sum
	return time.Since(start)
}

var probeTable [1 << 15]uint64

type stageDigest struct {
	count    uint64
	p50, p99 float64 // ns
}

// clientSink sends generated messages through one client connection.
type clientSink struct {
	c      *client.Client
	wl     workload
	fill   []byte
	sender int
}

func (k *clientSink) Send(id uint64, groupIdx int) error {
	return k.c.Multicast(k.wl.service, makePayload(k.fill, k.wl.size, k.sender, groupIdx, id), k.wl.groups[groupIdx])
}

// runPass offers the workload's load to a running stack for warm+window
// and records everything evaluate needs. The stack must be stopped before
// the result is evaluated: the delivery logs belong to the subscriber
// loops until then.
func runPass(s *stack, seed int64, warm, window time.Duration) (*passData, error) {
	wl := s.wl
	total := warm + window
	pd := &passData{wl: wl, traced: s.traced, warm: warm, window: window, setup: s.setup, formRing: s.formRing}

	pd.origin = time.Since(s.base) + 20*time.Millisecond
	clk := wallClock{origin: s.base.Add(pd.origin)}
	stopGen := make(chan struct{})
	var sendLogs [numClients]*reclog
	for i := range sendLogs {
		log, err := newReclog(sendRecSize, total, logRate/numClients)
		if err != nil {
			return nil, err
		}
		defer log.free()
		sendLogs[i] = log
	}
	var gens sync.WaitGroup
	for i := 0; i < numClients; i++ {
		gens.Add(1)
		go func(i int) {
			defer gens.Done()
			snk := &clientSink{c: s.clients[i], wl: wl, fill: s.fill, sender: i}
			record := func(r sendRec) {
				if b := sendLogs[i].slot(); b != nil {
					putSend(b, r)
				}
			}
			if wl.open {
				runOpen(clk, newSchedule(seed, i, wl.rate/numClients, wl.weights), total, snk, record)
			} else {
				runClosed(clk, total, s.subs[i].credits, stopGen, snk, record)
			}
		}(i)
	}

	sleepUntil(clk, warm)
	stopAux := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		pd.sample(s, clk, stopAux)
	}()
	if s.traced {
		aux.Add(1)
		go func() {
			defer aux.Done()
			s.foldSpans(stopAux)
		}()
	}

	pd.snaps = append(pd.snaps, takeSnapshot(s, clk))
	for w := 1; w <= numWindows; w++ {
		sleepUntil(clk, warm+window*time.Duration(w)/numWindows)
		pd.snaps = append(pd.snaps, takeSnapshot(s, clk))
	}
	pd.goroutines = runtime.NumGoroutine()
	close(stopAux)
	aux.Wait()

	close(stopGen)
	gens.Wait()
	sent := 0
	for i, log := range sendLogs {
		if log.full {
			return nil, fmt.Errorf("sender %d outran its log of %d records", i, log.n)
		}
		pd.sends[i] = make([]sendRec, log.n)
		for id := range pd.sends[i] {
			pd.sends[i][id] = getSend(log.record(id))
			if !pd.sends[i][id].failed {
				sent++
			}
		}
	}
	deadline := time.Now().Add(drainTimeout)
	for _, sub := range s.subs {
		for int(sub.count.Load()) < sent && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	if s.traced {
		pd.stages = digestStages(s)
	}
	return pd, nil
}

// collect takes the delivery logs over from a stopped stack.
func (pd *passData) collect(s *stack) {
	for i, sub := range s.subs {
		<-sub.done
		pd.recvs[i] = make([]recvRec, sub.log.n)
		for j := range pd.recvs[i] {
			pd.recvs[i][j] = getRecv(sub.log.record(j))
		}
		pd.rejections += sub.rejections
		pd.anomalies = append(pd.anomalies, sub.anomalies...)
		if sub.log.full {
			pd.anomalies = append(pd.anomalies, fmt.Sprintf("subscriber %d outran its log of %d records", i, sub.log.n))
		}
	}
}

func sleepUntil(clk clock, t time.Duration) {
	if now := clk.Now(); now < t {
		clk.Sleep(t - now)
	}
}

func takeSnapshot(s *stack, clk clock) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, _ := processCPU() // availability is checked once, before any run
	sn := snapshot{
		at: clk.Now(), cpu: cpu,
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, gcPauseNs: ms.PauseTotalNs,
	}
	for _, n := range s.nodes() {
		sn.nodes = append(sn.nodes, n.Status())
	}
	for _, u := range s.udps {
		tx, rx := u.Syscalls()
		sn.tx += tx
		sn.rx += rx
	}
	if s.traced {
		sn.counters = make(map[string]uint64, len(tracedCounters))
		for _, name := range tracedCounters {
			for _, reg := range s.regs {
				sn.counters[name] += reg.Counter(name).Value()
			}
		}
	}
	return sn
}

// sample records the send-queue depth of the daemons that have clients,
// the merger's backlog, and the box's speed, until stop closes.
func (pd *passData) sample(s *stack, clk clock, stop <-chan struct{}) {
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if n%probeEvery == 0 {
			pd.probes = append(pd.probes, probe{at: clk.Now(), took: boxProbe()})
		}
		for _, d := range s.daemons[:numClients] {
			for r := 0; r < s.wl.shards; r++ {
				pd.queueLen = append(pd.queueLen, float64(d.RingNode(r).Status().QueueLen))
			}
		}
		if s.traced && s.wl.shards > 1 {
			pd.mergePending = append(pd.mergePending, float64(s.regs[0].Gauge("merge.pending").Value()))
		}
	}
}

// digestStages reads the folded stage histograms of a traced stack.
func digestStages(s *stack) map[string]stageDigest {
	out := make(map[string]stageDigest)
	for _, sc := range s.agg.Snapshot() {
		out["e2e"] = stageDigest{count: sc.E2E.Count, p50: sc.E2E.P50Ns, p99: sc.E2E.P99Ns}
		for name, d := range sc.Stages {
			out[name] = stageDigest{count: d.Count, p50: d.P50Ns, p99: d.P99Ns}
		}
	}
	return out
}
