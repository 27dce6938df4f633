package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Kind classifies an Event. The Stage kinds are the steps of one message's
// lifecycle through the stack, recorded for sampled sequence numbers; the
// Flight kinds are black-box protocol events recorded unconditionally.
type Kind uint8

const (
	// StageSubmit marks the moment a locally submitted message is
	// assigned its ring sequence number during a token visit.
	StageSubmit Kind = iota + 1
	// StageSentPre marks a multicast before forwarding the token.
	StageSentPre
	// StageSentPost marks a multicast after forwarding the token (the
	// accelerated share).
	StageSentPost
	// StageRecv marks the first copy of the message arriving from the
	// network.
	StageRecv
	// StageRecvDup marks a duplicate or retransmitted copy arriving.
	StageRecvDup
	// StageRtrRequest marks the sequence being placed on the outgoing
	// token's retransmission-request list (a gap was detected).
	StageRtrRequest
	// StageRetransmit marks the message being re-multicast in answer to
	// a retransmission request carried by the token.
	StageRetransmit
	// StageDeliver marks delivery to the application; Note is the service
	// level ("agreed", "safe").
	StageDeliver
	// StagePack marks the moment a payload entered an adaptive packing
	// bundle — the start of its pack hold. Recorded retroactively at seq
	// assignment (the seq does not exist while the bundle is open) with
	// the bundle's hold-start time, so the submit delta shows the hold.
	StagePack
	// StageBatchFlush marks the end of the send burst that carried the
	// message's multicast (the protocol input that sent it).
	StageBatchFlush
	// StageMergeOut marks the message's emission from the cross-ring
	// merger into the single global order (sharded deployments only).
	StageMergeOut
	// StageFanout marks the daemon encoding the delivery once and
	// enqueueing it toward its client sessions.
	StageFanout
	// StageWriterFlush marks the delivery frame leaving the daemon in a
	// session writer's vectored write.
	StageWriterFlush
	// StageClientRecv marks the client library decoding the delivery off
	// its daemon connection.
	StageClientRecv

	// FlightTokenRx: a regular token arrived. Seq/Aru/Fcc carry the
	// token's fields, Count its retransmission-request count, TokenSeq
	// its deduplication sequence number.
	FlightTokenRx
	// FlightTokenTx: the token was forwarded. Seq/Aru/Fcc carry the
	// outgoing fields, Count the requests on it, Pre how many of the
	// visit's new messages were multicast before it (the rest follow).
	// The membership machine's token retransmissions carry Note
	// "retransmit".
	FlightTokenTx
	// FlightState: a membership state transition; Note names the new
	// state ("gather", "commit", "recover", "operational", "install",
	// timeouts use their own notes).
	FlightState
	// FlightRetransReq: retransmission requests were added to the
	// outgoing token; Seq is the first requested seq, Count how many.
	FlightRetransReq
	// FlightRetransAns: requests carried by the token were answered by
	// re-multicasting; Seq is the first answered seq, Count how many.
	FlightRetransAns
	// FlightDeliver: a delivery batch went to the application; Seq is
	// the last delivered seq, Count the batch size.
	FlightDeliver
	// FlightFault: the fault injector acted on a packet; Note is
	// "<rule>:<effect>" (plus ":token" for token frames), Seq/Aru carry
	// the packet's from/to participant IDs.
	FlightFault
	// FlightRxDrop: the transport dropped an inbound frame (full receive
	// channel); Note is "data" or "token".
	FlightRxDrop
	// FlightClient: a daemon client event; Note is "connect",
	// "disconnect" or "slow_disconnect", Count the clients now attached.
	FlightClient
	// FlightSLO: a health detector flag crossed its rising edge; Note is
	// "slo_burn" or "merge_stall", Ring the affected scope. Recorded so
	// a flight dump around a tail-latency incident carries the moment the
	// burn started.
	FlightSLO
)

var kindNames = [...]string{
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

// String returns the kind's wire name ("submit", "token_rx", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// IsStage reports whether k is a message-lifecycle stage.
func (k Kind) IsStage() bool { return k >= StageSubmit && k <= StageClientRecv }

// Event is the one record every recorder holds. It is all scalars — no
// slices, no pointers into pooled protocol buffers — so a recorded event
// can never alias scratch memory that a later decode reuses. Ring and
// Note must be static or already-owned strings. The field tags are the
// /debug/flight shape (see MarshalJSON).
type Event struct {
	// At is the event time: the recording node's clock (see
	// RingObserver.Clock), or wall time when the writer left it zero.
	At time.Time `json:"at"`
	// Kind classifies the event; the kind constants say what the scalar
	// fields below mean for each.
	Kind Kind `json:"kind"`
	// Ring scopes the event on sharded nodes ("shard0", ...); empty on
	// single-ring nodes.
	Ring string `json:"ring,omitempty"`
	// Note is a small kind-specific tag: state name, drop class, fault
	// rule, or a delivery's service level.
	Note string `json:"note,omitempty"`
	// Seq is a stage's message sequence number — the span key: sampling
	// is a pure function of seq, so spans from different nodes of one run
	// merge by it — and a kind-specific sequence number otherwise.
	Seq uint64 `json:"seq,omitempty"`
	// Aru, Fcc and TokenSeq are the token's all-received-up-to line,
	// flow-control count and deduplication sequence number on token
	// events.
	Aru      uint64 `json:"aru,omitempty"`
	Fcc      uint32 `json:"fcc,omitempty"`
	TokenSeq uint32 `json:"-"`
	// Count and Pre are kind-specific counts.
	Count int `json:"count,omitempty"`
	Pre   int `json:"-"`
	// Round is the token round during which the event happened, when it
	// is tied to a token visit.
	Round uint64 `json:"-"`
}

// MarshalJSON renders a stage in the /debug/msgtrace shape and anything
// else in the /debug/flight shape, so a dump of mixed events reads the
// same as the two endpoints.
func (e Event) MarshalJSON() ([]byte, error) {
	if e.Kind.IsStage() {
		return json.Marshal(struct {
			Seq     uint64    `json:"seq"`
			Stage   Kind      `json:"stage"`
			At      time.Time `json:"at"`
			Round   uint64    `json:"round,omitempty"`
			Service string    `json:"service,omitempty"`
		}{e.Seq, e.Kind, e.At, e.Round, e.Note})
	}
	type flightShape Event // Event's tags without this method
	return json.Marshal(flightShape(e))
}

// DefaultDepth is the event-ring size used when none is given.
const DefaultDepth = 1024

// Recorder keeps the last N events in pre-allocated slots: the flight
// recorder every layer reports into, and — with a sampling gate — a
// ring's message tracer. It is cheap enough to leave on permanently;
// when a chaos invariant fires or a daemon gets SIGQUIT the buffer is
// dumped as JSONL so the final seconds before the failure are
// replayable. Safe for concurrent writers and readers, nil-safe
// throughout (a nil recorder is "recording off"), and Record does not
// allocate.
type Recorder struct {
	every uint64 // sampling gate of Sampled and Stamp; 0 samples nothing

	mu    sync.Mutex
	slots []Event
	total uint64
}

// MsgTracer is a Recorder built with a sampling gate (NewMsgTracer).
type MsgTracer = Recorder

// NewRecorder returns a recorder holding the last depth events (depth <=
// 0 uses DefaultDepth).
func NewRecorder(depth int) *Recorder {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Recorder{slots: make([]Event, depth)}
}

// NewMsgTracer returns a recorder that samples one sequence number in
// every `every` (1 samples everything). Sampling is deterministic in the
// sequence number, so every node of a run samples the same messages and
// their spans can be merged cross-node. every <= 0 returns nil: sampling
// off.
func NewMsgTracer(every, depth int) *MsgTracer {
	if every <= 0 {
		return nil
	}
	r := NewRecorder(depth)
	r.every = uint64(every)
	return r
}

// Fresh returns a new, empty recorder with r's depth and sampling gate
// (nil on a nil recorder): one ring's tracer derived from a template.
func (r *Recorder) Fresh() *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{every: r.every, slots: make([]Event, len(r.slots))}
}

// Sampled reports whether stages of message seq should be recorded. False
// on a nil or ungated recorder and for seq 0 (no carrier sequence number)
// — the single branch instrumented hot paths pay when tracing is off.
func (r *Recorder) Sampled(seq uint64) bool {
	return r != nil && r.every != 0 && seq != 0 && seq%r.every == 0
}

// Stamp records ev, a lifecycle stage of message ev.Seq, if the recorder
// samples that seq, and reports whether it did.
func (r *Recorder) Stamp(ev Event) bool {
	if !r.Sampled(ev.Seq) {
		return false
	}
	r.Record(ev)
	return true
}

// Record appends one event, evicting the oldest when full, stamping At
// with wall time when the caller left it zero. The event is copied by
// value. No-op on a nil recorder.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	r.mu.Lock()
	r.slots[r.total%uint64(len(r.slots))] = ev
	r.total++
	r.mu.Unlock()
}

// Total returns the number of events recorded over the recorder's
// lifetime (0 on a nil recorder).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns up to max of the most recent events, oldest first (max
// <= 0 returns everything buffered). Nil on a nil recorder.
func (r *Recorder) Snapshot(max int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.slots))
	if r.total < n {
		n = r.total
	}
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]Event, 0, n)
	for i := r.total - n; i < r.total; i++ {
		out = append(out, r.slots[i%uint64(len(r.slots))])
	}
	return out
}

// WriteJSONL writes the buffered events as JSON Lines, oldest first.
// No-op on a nil recorder.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.Snapshot(0) {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// DumpFile writes the buffered events as JSONL to path, creating or
// truncating it. No-op (no file) on a nil or empty recorder.
func (r *Recorder) DumpFile(path string) error {
	if r.Total() == 0 {
		return nil
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o666)
}
