package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	if r.Sampled(10) || r.Stamp(Event{Seq: 10, Kind: StageRecv}) {
		t.Fatal("nil recorder must sample nothing")
	}
	r.Record(Event{Kind: FlightTokenRx})
	if r.Total() != 0 || r.Snapshot(0) != nil || r.Fresh() != nil {
		t.Fatal("nil recorder must be empty")
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "none.jsonl")
	if err := r.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("nil recorder must not create a dump file")
	}
	if NewMsgTracer(0, 16) != nil || NewMsgTracer(-1, 16) != nil {
		t.Fatal("a non-positive sampling rate must disable tracing (nil tracer)")
	}
}

func TestRecorderSamplingDeterministic(t *testing.T) {
	// Two tracers with the same rate sample exactly the same seqs — the
	// property that lets ringtrace -follow merge spans across nodes. Seq
	// 0 is "no carrier sequence number" and never sampled; a recorder
	// without a gate samples nothing.
	a, b, flight := NewMsgTracer(10, 0), NewMsgTracer(10, 0), NewRecorder(0)
	for seq := uint64(0); seq < 100; seq++ {
		if a.Sampled(seq) != b.Sampled(seq) {
			t.Fatalf("tracers disagree at seq %d", seq)
		}
		if want := seq != 0 && seq%10 == 0; a.Sampled(seq) != want {
			t.Fatalf("Sampled(%d) = %v, want %v", seq, a.Sampled(seq), want)
		}
		if flight.Sampled(seq) {
			t.Fatalf("ungated recorder sampled seq %d", seq)
		}
	}
	if !a.Stamp(Event{Seq: 20, Kind: StageRecv}) || a.Stamp(Event{Seq: 21, Kind: StageRecv}) || a.Total() != 1 {
		t.Fatalf("Stamp must record exactly the sampled seqs (total %d)", a.Total())
	}
	if f := a.Fresh(); f == a || f.Total() != 0 || !f.Sampled(10) || f.Sampled(5) || len(f.slots) != len(a.slots) {
		t.Fatal("Fresh must return an empty recorder with the same gate and depth")
	}
}

// TestRecorderWrapOldestFirst: after wrapping, Snapshot keeps the newest
// depth events oldest first and Total keeps the exact lifetime count.
func TestRecorderWrapOldestFirst(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Record(Event{Kind: FlightDeliver, Seq: uint64(i)})
		if r.Total() != uint64(i) {
			t.Fatalf("Total = %d after %d records", r.Total(), i)
		}
	}
	got := r.Snapshot(0)
	if len(got) != 4 {
		t.Fatalf("Snapshot kept %d events, want 4", len(got))
	}
	for i, ev := range got {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest first)", i, ev.Seq, want)
		}
	}
	if got := r.Snapshot(2); len(got) != 2 || got[0].Seq != 9 || got[1].Seq != 10 {
		t.Fatalf("Snapshot(2) = %+v, want the 2 newest", got)
	}
}

func TestRecorderStampsAndCopies(t *testing.T) {
	r := NewRecorder(4)
	before := time.Now()
	ev := Event{Kind: StageRecv, Seq: 1, Note: "agreed"}
	r.Record(ev)
	ev.Seq, ev.Note = 99, "mutated"
	pinned := time.Unix(7, 0)
	r.Record(Event{Kind: FlightState, Note: "gather", At: pinned})
	got := r.Snapshot(0)
	if got[0].Seq != 1 || got[0].Note != "agreed" {
		t.Fatalf("recorded event changed after caller mutation: %+v", got[0])
	}
	if got[0].At.Before(before) || got[0].At.After(time.Now()) {
		t.Fatalf("zero At not stamped with wall time: %v", got[0].At)
	}
	if !got[1].At.Equal(pinned) {
		t.Fatalf("caller-stamped At overwritten: %v", got[1].At)
	}
}

// TestRecorderRecordDoesNotAllocate gates the recorder's half of the
// traced hot path: a stored event is a slot copy, never a heap object.
func TestRecorderRecordDoesNotAllocate(t *testing.T) {
	r := NewMsgTracer(1, 64)
	at := time.Unix(1, 0)
	seq := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		r.Stamp(Event{Kind: StageRecv, Seq: seq, Round: 3})
		r.Record(Event{Kind: FlightTokenRx, At: at, Ring: "shard1", Seq: seq, Count: 2})
	}); n != 0 {
		t.Fatalf("Record allocates %.1f times per op, want 0", n)
	}
}

// TestRecorderConcurrentWriters is the multi-writer contract (one tracer
// shared by several engines and clients) under the race detector: every
// event a reader sees is one some writer recorded whole, none twice, and
// each writer's events appear in the order it wrote them.
func TestRecorderConcurrentWriters(t *testing.T) {
	const writers, perWriter = 4, 2000
	r := NewRecorder(256)
	var wg sync.WaitGroup
	for w := 1; w <= writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(1); i <= perWriter; i++ {
				// Every field is a function of (w, i), so a torn slot —
				// fields from two different writes — is detectable.
				r.Record(Event{Kind: FlightDeliver, At: time.Unix(int64(w), int64(i)), Seq: w, Aru: i, Round: w * i, Count: int(i)})
			}
		}(uint64(w))
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			last := make(map[uint64]uint64)
			for _, ev := range r.Snapshot(0) {
				w, i := ev.Seq, ev.Aru
				if ev.Kind != FlightDeliver || ev.Round != w*i || ev.Count != int(i) ||
					!ev.At.Equal(time.Unix(int64(w), int64(i))) {
					t.Errorf("torn event: %+v", ev)
					return
				}
				if i <= last[w] {
					t.Errorf("writer %d: event %d after %d (duplicated or reordered)", w, i, last[w])
					return
				}
				last[w] = i
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if r.Total() != writers*perWriter {
		t.Fatalf("Total = %d, want %d", r.Total(), writers*perWriter)
	}
}

// TestEventJSONShapes pins the two wire shapes: a stage renders as the
// /debug/msgtrace object, anything else as the /debug/flight line.
func TestEventJSONShapes(t *testing.T) {
	r := NewRecorder(8)
	at := time.Unix(1, 0).UTC()
	r.Record(Event{Kind: FlightTokenRx, At: at, Ring: "shard1", Seq: 9, Aru: 7, Fcc: 3, Count: 2, Round: 4, TokenSeq: 5})
	r.Record(Event{Kind: FlightFault, At: at, Note: "loss:drop:token"})
	r.Record(Event{Kind: StageDeliver, At: at, Seq: 12, Round: 4, Note: "safe"})
	r.Record(Event{Kind: StageRecv, At: at, Seq: 12})

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`{"at":"1970-01-01T00:00:01Z","kind":"token_rx","ring":"shard1","seq":9,"aru":7,"fcc":3,"count":2}`,
		`{"at":"1970-01-01T00:00:01Z","kind":"fault","note":"loss:drop:token"}`,
		`{"seq":12,"stage":"deliver","at":"1970-01-01T00:00:01Z","round":4,"service":"safe"}`,
		`{"seq":12,"stage":"recv","at":"1970-01-01T00:00:01Z"}`,
	}
	sc := bufio.NewScanner(&buf)
	for i := 0; sc.Scan(); i++ {
		if i >= len(want) || sc.Text() != want[i] {
			t.Fatalf("line %d = %s\nwant      %s", i, sc.Text(), want[i])
		}
	}
}

func TestRecorderDumpFile(t *testing.T) {
	dir := t.TempDir()

	p := filepath.Join(dir, "empty.jsonl")
	if err := NewRecorder(4).DumpFile(p); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("empty recorder must not create a dump file")
	}

	r := NewRecorder(4)
	r.Record(Event{Kind: FlightDeliver, Seq: 5, Count: 5})
	p = filepath.Join(dir, "dump.jsonl")
	if err := r.DumpFile(p); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(data), &m); err != nil {
		t.Fatalf("dump is not JSONL: %v", err)
	}
	if m["kind"] != "deliver" {
		t.Fatalf("dump = %v", m)
	}
}

func TestKindNames(t *testing.T) {
	want := map[Kind]string{
		StageSubmit:      "submit",
		StageSentPre:     "sent_pre",
		StageSentPost:    "sent_post",
		StageRecv:        "recv",
		StageRecvDup:     "recv_dup",
		StageRtrRequest:  "rtr_request",
		StageRetransmit:  "retransmit",
		StageDeliver:     "deliver",
		StagePack:        "pack",
		StageBatchFlush:  "batch_flush",
		StageMergeOut:    "merge",
		StageFanout:      "fanout",
		StageWriterFlush: "writer_flush",
		StageClientRecv:  "client_recv",
		FlightTokenRx:    "token_rx",
		FlightTokenTx:    "token_tx",
		FlightState:      "state",
		FlightRetransReq: "rtr_req",
		FlightRetransAns: "rtr_ans",
		FlightDeliver:    "deliver",
		FlightFault:      "fault",
		FlightRxDrop:     "rx_drop",
		FlightClient:     "client",
		FlightSLO:        "slo",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), name)
		}
		b, err := json.Marshal(k)
		if err != nil || string(b) != `"`+name+`"` {
			t.Errorf("marshal %q: got %s, %v", name, b, err)
		}
		if k.IsStage() != (k <= StageClientRecv) {
			t.Errorf("%s.IsStage() = %v", name, k.IsStage())
		}
	}
	if Kind(200).String() == "" || Kind(200).IsStage() {
		t.Error("unknown kind must still render, and is not a stage")
	}
}
