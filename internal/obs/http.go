package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
)

// Server is the optional HTTP debug endpoint. It serves
//
//	/debug/vars      the registry snapshot as JSON (expvar-style)
//	/debug/ring      token visits as round traces, per recorder and ring
//	/debug/msgtrace  sampled per-message lifecycle spans (?seq=N merges
//	                 one message's span across recorders)
//	/debug/flight    black-box protocol events as JSONL
//	/debug/health    the health detector's latest per-ring statuses
//	/debug/latency   per-stage latency attribution digests per ring
//	/metrics         the registry in Prometheus text exposition format
//	/debug/pprof     the standard net/http/pprof profiles
//
// /debug/ring, /debug/msgtrace and /debug/flight are three views of the
// events held by the recorders registered with Add; each lists the names
// that hold events of its kinds.
type Server struct {
	reg *Registry
	ln  net.Listener
	srv *http.Server

	mu      sync.Mutex
	recs    map[string][]*Recorder
	health  *Health
	latency *LatencyAgg
}

// maxSnapshotQuery bounds ?n=/-style count parameters; anything larger
// (or negative, or non-numeric) is a 400, not an unbounded allocation.
const maxSnapshotQuery = 1 << 16

// StartServer listens on addr (e.g. ":6060" or "127.0.0.1:0") and serves
// the debug endpoints for reg in a background goroutine. Close shuts it
// down.
func StartServer(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{reg: reg, ln: ln, recs: make(map[string][]*Recorder)}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/debug/ring", s.handleRing)
	mux.HandleFunc("/debug/msgtrace", s.handleMsgTrace)
	mux.HandleFunc("/debug/flight", s.handleFlight)
	mux.HandleFunc("/debug/health", s.handleHealth)
	mux.HandleFunc("/debug/latency", s.handleLatency)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Add registers a recorder under name (e.g. "node1"). Recorders may be
// added while the server runs, and several may share a name — a node's
// flight recorder and its message tracer. A nil recorder is ignored.
func (s *Server) Add(name string, r *Recorder) {
	if r == nil {
		return
	}
	s.mu.Lock()
	s.recs[name] = append(s.recs[name], r)
	s.mu.Unlock()
}

// SetHealth attaches the health detector served at /debug/health (nil
// detaches).
func (s *Server) SetHealth(h *Health) {
	s.mu.Lock()
	s.health = h
	s.mu.Unlock()
}

// SetLatency attaches the latency aggregator served at /debug/latency
// (nil detaches).
func (s *Server) SetLatency(a *LatencyAgg) {
	s.mu.Lock()
	s.latency = a
	s.mu.Unlock()
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.reg.Snapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// queryCount parses an optional bounded count parameter. ok is false —
// and a 400 has been written — when the value is non-numeric, negative,
// or larger than maxSnapshotQuery.
func queryCount(w http.ResponseWriter, r *http.Request, key string) (n int, ok bool) {
	q := r.URL.Query().Get(key)
	if q == "" {
		return 0, true
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 0 || v > maxSnapshotQuery {
		http.Error(w, "bad "+key+" parameter: want 0.."+strconv.Itoa(maxSnapshotQuery), http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

// writeJSON answers with v as indented JSON, or with a 500 naming the
// encode error — never with an empty 200.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(append(body, '\n')) // a failed write means the client went away
}

// namedEvents is the snapshot of the recorders registered under one name.
type namedEvents struct {
	name   string
	events []Event
}

// snapshots returns the buffered events of every recorder registered
// under the name the query selects with key (all of them when absent), in
// name order. An unregistered name is a 400 and ok is false.
func (s *Server) snapshots(w http.ResponseWriter, r *http.Request, key string) (out []namedEvents, ok bool) {
	want := r.URL.Query().Get(key)
	s.mu.Lock()
	names := make([]string, 0, len(s.recs))
	for name := range s.recs {
		if want == "" || name == want {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var recs [][]*Recorder
	for _, name := range names {
		recs = append(recs, s.recs[name])
	}
	s.mu.Unlock()

	if want != "" && len(names) == 0 {
		http.Error(w, "unknown "+key+" "+strconv.Quote(want), http.StatusBadRequest)
		return nil, false
	}
	for i, name := range names {
		ne := namedEvents{name: name}
		for _, rec := range recs[i] {
			ne.events = append(ne.events, rec.Snapshot(0)...)
		}
		out = append(out, ne)
	}
	return out, true
}

// lastN keeps the newest max elements (all of them when max <= 0).
func lastN[T any](s []T, max int) []T {
	if max > 0 && len(s) > max {
		return s[len(s)-max:]
	}
	return s
}

// handleRing renders the last ?n= token visits (default: everything
// buffered) of every recorder — or just ?tracer=name — oldest first,
// keyed by name and, on sharded nodes, "name.shardN". Bad parameters
// (negative or huge n, unknown name) are a 400.
func (s *Server) handleRing(w http.ResponseWriter, r *http.Request) {
	max, ok := queryCount(w, r, "n")
	if !ok {
		return
	}
	snaps, ok := s.snapshots(w, r, "tracer")
	if !ok {
		return
	}
	out := make(map[string][]RoundTrace)
	for _, sn := range snaps {
		for ring, rounds := range Rounds(sn.events) {
			name := sn.name
			if ring != "" {
				name += "." + ring
			}
			out[name] = lastN(rounds, max)
		}
	}
	writeJSON(w, out)
}

// handleMsgTrace renders sampled message-lifecycle stages per name:
// ?seq=N selects one message's span (merged across nodes when several
// tracers are registered), ?n= bounds the events per name, ?tracer=name
// selects one. Bad parameters are a 400.
func (s *Server) handleMsgTrace(w http.ResponseWriter, r *http.Request) {
	max, ok := queryCount(w, r, "n")
	if !ok {
		return
	}
	var seq uint64
	q := r.URL.Query().Get("seq")
	if q != "" {
		var err error
		if seq, err = strconv.ParseUint(q, 10, 64); err != nil {
			http.Error(w, "bad seq parameter: want an unsigned integer", http.StatusBadRequest)
			return
		}
	}
	snaps, ok := s.snapshots(w, r, "tracer")
	if !ok {
		return
	}
	out := make(map[string][]Event)
	for _, sn := range snaps {
		for _, ev := range sn.events {
			if ev.Kind.IsStage() && (q == "" || ev.Seq == seq) {
				out[sn.name] = append(out[sn.name], ev)
			}
		}
	}
	if q == "" {
		for name := range out {
			out[name] = lastN(out[name], max)
		}
	}
	writeJSON(w, out)
}

// handleFlight streams black-box events as JSONL, one name after another
// (?name= selects one; unknown names are a 400). Each name's section is
// preceded by a {"recorder": name} line.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	snaps, ok := s.snapshots(w, r, "name")
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, sn := range snaps {
		header := false
		for _, ev := range sn.events {
			if ev.Kind.IsStage() {
				continue
			}
			if !header {
				header = true
				_ = enc.Encode(map[string]string{"recorder": sn.name})
			}
			_ = enc.Encode(ev)
		}
	}
}

// handleLatency folds pending spans and renders every scope's per-stage
// latency digest (404 until an aggregator is attached with SetLatency).
func (s *Server) handleLatency(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	a := s.latency
	s.mu.Unlock()
	if a == nil {
		http.Error(w, "no latency aggregator attached", http.StatusNotFound)
		return
	}
	writeJSON(w, a.Snapshot())
}

// handleHealth renders the health detector's latest statuses (404 until
// a detector is attached with SetHealth).
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	h := s.health
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "no health detector attached", http.StatusNotFound)
		return
	}
	writeJSON(w, h.Status())
}
