package main

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

// fakeClock is advanced only by Sleep and by the fake sink's stalls.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration    { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now += d }

// fakeSink takes a fixed time per send, stalls once, and delivers each
// message the instant its send returns.
type fakeSink struct {
	clk       *fakeClock
	perSend   time.Duration
	stallAt   uint64
	stall     time.Duration
	delivered map[uint64]time.Duration
	order     []uint64
}

func (k *fakeSink) Send(id uint64, groupIdx int) error {
	k.clk.now += k.perSend
	if id == k.stallAt {
		k.clk.now += k.stall
	}
	k.delivered[id] = k.clk.now
	k.order = append(k.order, id)
	return nil
}

func drawSchedule(seed int64, conn int, n int) []item {
	s := newSchedule(seed, conn, 8000, []int{3, 1})
	out := make([]item, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b := drawSchedule(7, 0, 5000), drawSchedule(7, 0, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if reflect.DeepEqual(a, drawSchedule(8, 0, 5000)) {
		t.Fatal("a different seed drew the same schedule")
	}
	if reflect.DeepEqual(a, drawSchedule(7, 1, 5000)) {
		t.Fatal("two connections share one schedule")
	}
	// Poisson at 8000/s with a 3:1 group split, within sampling error.
	if mean := a[len(a)-1].due.Seconds() / float64(len(a)); mean < 1/8000.0*0.95 || mean > 1/8000.0*1.05 {
		t.Errorf("mean gap %.1f us, want about 125 us", mean*1e6)
	}
	heavy := 0
	for _, it := range a {
		if it.groupIdx == 0 {
			heavy++
		}
	}
	if share := float64(heavy) / float64(len(a)); share < 0.72 || share > 0.78 {
		t.Errorf("group 0 got %.3f of the traffic, want about 0.75", share)
	}
}

func TestOpenLoopChargesAStallToTheMessagesItDelays(t *testing.T) {
	const stall = 50 * time.Millisecond
	clk := &fakeClock{}
	snk := &fakeSink{clk: clk, perSend: 10 * time.Microsecond, stallAt: 1000, stall: stall, delivered: make(map[uint64]time.Duration)}
	var log []sendRec
	until := 2 * time.Second
	runOpen(clk, newSchedule(3, 0, 8000, []int{1}), until, snk, func(r sendRec) { log = append(log, r) })

	// Nothing is skipped: every message due before the end went out, once, in order.
	want := 0
	for s := newSchedule(3, 0, 8000, []int{1}); s.next().due < until; {
		want++
	}
	if len(log) != want || len(snk.order) != want {
		t.Fatalf("sent %d messages, want all %d scheduled", len(log), want)
	}
	if !sort.SliceIsSorted(snk.order, func(i, j int) bool { return snk.order[i] < snk.order[j] }) {
		t.Fatal("messages went out of order")
	}

	// The stalled send returned 50 ms late. Every message that fell due
	// meanwhile keeps its due time, so its latency from due includes the
	// wait: the first one behind the stall waited almost all of it.
	stalled := log[snk.stallAt]
	behind := log[snk.stallAt+1]
	if behind.due > stalled.end {
		t.Fatalf("no message fell due during the stall; pick a busier schedule")
	}
	if lat := snk.delivered[snk.stallAt+1] - behind.due; lat < stall-time.Millisecond {
		t.Errorf("message behind the stall shows %v latency from its due time, want about %v", lat, stall)
	}
	if lat := snk.delivered[snk.stallAt+1] - behind.start; lat > time.Millisecond {
		t.Errorf("from its actual send the same message shows only %v: the comparison is vacuous", lat)
	}
	// The backlog goes out back to back, not re-paced: some 400 messages
	// fell due during the stall, so the first hundred behind it are all late.
	for id := snk.stallAt + 1; id < snk.stallAt+100; id++ {
		if gap := log[id+1].start - log[id].start; gap != snk.perSend {
			t.Fatalf("message %d went out %v after its predecessor, want back to back (%v)", id+1, gap, snk.perSend)
		}
	}

	// The lag shows up in the generator's own figures.
	var lags []float64
	late := 0
	for _, r := range log {
		lags = append(lags, micros(r.start-r.due))
		if r.start-r.due > time.Millisecond {
			late++
		}
	}
	sort.Float64s(lags)
	if p99 := percentile(lags, 0.99); p99 < 1000 {
		t.Errorf("lag p99 %.0f us does not show a 50 ms stall behind 400 messages of %d", p99, len(log))
	}
	if late < 300 {
		t.Errorf("%d messages counted late, want the few hundred that fell due during the stall", late)
	}
}

func TestClosedLoopSendsOnePerCredit(t *testing.T) {
	clk := &fakeClock{}
	snk := &fakeSink{clk: clk, perSend: 100 * time.Microsecond, stallAt: ^uint64(0), delivered: make(map[uint64]time.Duration)}
	credits := make(chan struct{}, 4)
	for i := 0; i < 3; i++ {
		credits <- struct{}{}
	}
	stop := make(chan struct{})
	var log []sendRec
	done := make(chan struct{})
	go func() {
		defer close(done)
		runClosed(clk, time.Second, credits, stop, snk, func(r sendRec) { log = append(log, r) })
	}()
	// Three credits, three sends, then the sender waits for deliveries.
	for len(credits) > 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done
	if len(log) != 3 {
		t.Fatalf("sent %d messages on 3 credits", len(log))
	}
	for _, r := range log {
		if r.due != r.start {
			t.Errorf("closed-loop message due %v but sent %v: it is due when its send starts", r.due, r.start)
		}
	}
}
