package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// passStats is one evaluated pass: the correctness verdict and every
// figure that can be computed from a single pass. Values are keyed by
// metric name; windows holds the per-window values of the end-to-end
// metrics that have them, which -compare uses to tell noise from change.
type passStats struct {
	problems  []string // empty on a correct pass
	attempted int      // messages due (open) or sent (closed) inside the window
	failed    int
	delivered int // of attempted: distinct messages delivered to every subscriber
	val       map[string]float64
	windows   map[string][]float64
}

// percentile returns the p-quantile (0 < p <= 1) of sorted values by the
// nearest-rank rule; 0 for no values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// evaluate checks a collected pass and computes its figures.
func evaluate(pd *passData) *passStats {
	st := &passStats{val: make(map[string]float64), windows: make(map[string][]float64)}
	wl := pd.wl
	winLen := pd.window / numWindows
	windowOf := func(due time.Duration) int { // -1 outside the measured window
		if due < pd.warm || due >= pd.warm+pd.window {
			return -1
		}
		return int((due - pd.warm) / winLen)
	}

	// Correctness: order, exactly-once, completeness, over the whole pass.
	sent := make([][]bool, numClients)
	for s := range pd.sends {
		sent[s] = make([]bool, len(pd.sends[s]))
		for id, r := range pd.sends[s] {
			sent[s][id] = !r.failed
		}
	}
	logs := make([][]uint64, numClients)
	for i, recs := range pd.recvs {
		logs[i] = make([]uint64, len(recs))
		for j, r := range recs {
			logs[i][j] = r.key
		}
	}
	for _, v := range checkOrder(logs, sent) {
		st.problems = append(st.problems, v.String())
	}
	st.problems = append(st.problems, pd.anomalies...)
	first, last := pd.snaps[0], pd.snaps[len(pd.snaps)-1]
	for i := range first.nodes {
		a, b := first.nodes[i], last.nodes[i]
		if a.Membership.Installs != b.Membership.Installs || a.Ring.ID != b.Ring.ID {
			st.problems = append(st.problems, fmt.Sprintf("ring node %d reconfigured during the window (%v -> %v): the run is invalid", i, a.Ring.ID, b.Ring.ID))
		}
	}

	// Join deliveries to sends. got[s][id] counts the subscribers that
	// received the message; latencies are grouped by the window of the
	// message's due time.
	got := make([][]uint8, numClients)
	for s := range pd.sends {
		got[s] = make([]uint8, len(pd.sends[s]))
	}
	lat := make([][]float64, numWindows)
	var local, remote []float64
	for sub, recs := range pd.recvs {
		for _, r := range recs {
			s, id := keySender(r.key), keyID(r.key)
			if s >= numClients || id >= uint64(len(got[s])) {
				continue // reported by the checker
			}
			got[s][id]++
			due := pd.sends[s][id].due
			w := windowOf(due)
			if w < 0 {
				continue
			}
			l := micros(r.at - pd.origin - due)
			lat[w] = append(lat[w], l)
			if s == sub {
				local = append(local, l)
			} else {
				remote = append(remote, l)
			}
		}
	}

	// Attempted, delivered and failed inside the window.
	perWindow := make([]int, numWindows)
	var callUs, lagUs []float64
	late := 0
	for s := range pd.sends {
		for id, r := range pd.sends[s] {
			w := windowOf(r.due)
			if w < 0 {
				continue
			}
			st.attempted++
			callUs = append(callUs, micros(r.end-r.start))
			lag := r.start - r.due
			lagUs = append(lagUs, micros(lag))
			if lag > time.Millisecond {
				late++
			}
			if !r.failed && got[s][id] >= numClients {
				st.delivered++
				perWindow[w]++
			}
		}
	}
	st.failed = st.attempted - st.delivered + pd.rejections
	if st.failed > st.attempted {
		st.failed = st.attempted
	}
	if st.attempted == 0 {
		st.problems = append(st.problems, "no message fell inside the measured window")
	}
	if st.failed > 0 {
		st.problems = append(st.problems, fmt.Sprintf("%d of %d operations failed (%d rejections)", st.failed, st.attempted, pd.rejections))
	}

	// End-to-end figures. Each is the median over the windows of the
	// window's own figure — its own percentile, its own rate — which
	// repeats far better than one figure over the whole run: a window
	// that met a slow episode moves the median little.
	var all []float64
	minSamples := math.MaxInt
	for w := range lat {
		sort.Float64s(lat[w])
		st.windows["lat_p50_us"] = append(st.windows["lat_p50_us"], percentile(lat[w], 0.50))
		st.windows["lat_p99_us"] = append(st.windows["lat_p99_us"], percentile(lat[w], 0.99))
		all = append(all, lat[w]...)
		if len(lat[w]) < minSamples {
			minSamples = len(lat[w])
		}
		a, b := pd.snaps[w], pd.snaps[w+1]
		n := float64(perWindow[w])
		st.windows["delivered_msgs_per_s"] = append(st.windows["delivered_msgs_per_s"], ratio(n, (b.at-a.at).Seconds()))
		st.windows["cpu_us_per_msg"] = append(st.windows["cpu_us_per_msg"], ratio(micros(b.cpu-a.cpu), n))
		st.windows["allocs_per_msg"] = append(st.windows["allocs_per_msg"], ratio(float64(b.mallocs-a.mallocs), n))
	}
	sort.Float64s(all)
	fastest := make([]float64, numWindows) // each window's fastest probe: the box's speed, free of scheduling delays
	for _, p := range pd.probes {
		if w := windowOf(p.at); w >= 0 && (fastest[w] == 0 || micros(p.took) < fastest[w]) {
			fastest[w] = micros(p.took)
		}
	}
	st.windows["box_probe_us"] = fastest
	for name, values := range st.windows {
		st.val[name] = median(values)
	}
	st.val["runtime.box_probe_us"] = st.val["box_probe_us"]
	st.val["setup_s"] = pd.setup.Seconds()
	span := (last.at - first.at).Seconds()
	msgs := float64(st.delivered)

	// Per-layer figures from the benchmark's own boundary spans.
	sort.Float64s(callUs)
	sort.Float64s(lagUs)
	sort.Float64s(local)
	sort.Float64s(remote)
	st.val["client.multicast_call_us_p50"] = percentile(callUs, 0.50)
	st.val["client.multicast_call_us_p99"] = percentile(callUs, 0.99)
	st.val["client.local_deliver_us_p50"] = percentile(local, 0.50)
	st.val["client.remote_deliver_us_p50"] = percentile(remote, 0.50)
	st.val["client.lat_p999_us"] = percentile(all, 0.999)
	st.val["client.lat_samples_per_window"] = float64(minSamples)
	st.val["loadgen.lag_p99_us"] = percentile(lagUs, 0.99)
	st.val["loadgen.late_share"] = ratio(float64(late), float64(st.attempted))
	st.val["loadgen.failed_ops_share"] = ratio(float64(st.failed), float64(st.attempted))

	// Per-layer figures from public accessors, diffed over the window.
	// Rounds are counted at daemon 1 (one per token rotation of a ring);
	// message counters are summed over every node.
	var rounds, sentMsgs, retrans, requested, dropped, tokRetrans float64
	var installs uint64
	for i := range first.nodes {
		a, b := first.nodes[i], last.nodes[i]
		if i < wl.shards {
			rounds += float64(b.Engine.Rounds - a.Engine.Rounds)
		}
		sentMsgs += float64(b.Engine.Sent - a.Engine.Sent)
		retrans += float64(b.Engine.Retransmitted - a.Engine.Retransmitted)
		requested += float64(b.Engine.Requested - a.Engine.Requested)
		dropped += float64(b.Engine.DataDropped - a.Engine.DataDropped)
		tokRetrans += float64(b.Membership.TokenRetransmits - a.Membership.TokenRetransmits)
		if b.Membership.Installs > installs {
			installs = b.Membership.Installs
		}
	}
	st.val["core.msgs_per_round"] = ratio(sentMsgs, rounds)
	st.val["core.rounds_per_s"] = ratio(rounds, span)
	st.val["core.retrans_per_kmsg"] = ratio(1000*retrans, sentMsgs)
	st.val["core.rtr_requested_per_kmsg"] = ratio(1000*requested, sentMsgs)
	st.val["core.data_dropped_per_kmsg"] = ratio(1000*dropped, sentMsgs)
	st.val["membership.form_ring_ms"] = float64(pd.formRing) / float64(time.Millisecond)
	st.val["membership.installs"] = float64(installs)
	st.val["membership.token_retransmits_per_s"] = ratio(tokRetrans, span)
	sort.Float64s(pd.queueLen)
	st.val["ringnode.queue_len_p50"] = percentile(pd.queueLen, 0.50)
	st.val["ringnode.queue_len_p99"] = percentile(pd.queueLen, 0.99)
	st.val["transport.tx_syscalls_per_msg"] = ratio(float64(last.tx-first.tx), msgs)
	st.val["transport.rx_syscalls_per_msg"] = ratio(float64(last.rx-first.rx), msgs)
	st.val["runtime.gc_cycles_per_s"] = ratio(float64(last.gcCycles-first.gcCycles), span)
	st.val["runtime.gc_pause_ms_per_s"] = ratio(float64(last.gcPauseNs-first.gcPauseNs)/1e6, span)
	st.val["runtime.alloc_bytes_per_msg"] = ratio(float64(last.allocBytes-first.allocBytes), msgs)
	st.val["runtime.goroutines"] = float64(pd.goroutines)

	if pd.traced {
		st.tracedFigures(pd, first, last, msgs)
	}
	return st
}

// tracedStages are the program's span stages, in pipeline order; the
// ones in tracedStagesP99 are also reported at the 99th percentile.
var (
	tracedStages    = []string{"pack_hold", "token_wait", "batch_wait", "wire", "ordering", "merge_hold", "fanout", "writer_flush", "client_wire"}
	tracedStagesP99 = []string{"token_wait", "ordering", "merge_hold", "writer_flush"}
)

// tracedFigures adds what only a traced pass can know: the daemons'
// registry counters and the program's own stage spans. A stage the
// configuration never enters (packing is off by default, the merge
// exists only when sharded) has no samples and reads 0.
func (st *passStats) tracedFigures(pd *passData, first, last snapshot, msgs float64) {
	diff := func(name string) float64 { return float64(last.counters[name] - first.counters[name]) }
	st.val["daemon.writer_flushes_per_frame"] = ratio(diff("daemon.writer_flushes"), diff("daemon.writer_frames"))
	st.val["daemon.fanout_encodes_per_msg"] = ratio(diff("daemon.fanout_encodes"), msgs)
	st.val["daemon.backpressure_waits"] = diff("daemon.backpressure_waits")
	st.val["daemon.tier_spill"] = diff("daemon.tier_spill")
	st.val["merge.skips_per_kmsg"] = ratio(1000*diff("merge.skips_applied"), diff("merge.emitted"))
	sort.Float64s(pd.mergePending)
	st.val["merge.pending_p99"] = percentile(pd.mergePending, 0.99)

	st.val["stage.e2e_us_p50"] = pd.stages["e2e"].p50 / 1e3
	st.val["stage.spans_folded"] = float64(pd.stages["e2e"].count)
	for _, name := range tracedStages {
		st.val["stage."+name+"_us_p50"] = pd.stages[name].p50 / 1e3
	}
	for _, name := range tracedStagesP99 {
		st.val["stage."+name+"_us_p99"] = pd.stages[name].p99 / 1e3
	}
	st.val["trace.bench_lat_p50_us"] = st.val["lat_p50_us"]
}
