// Package daemon implements the client-daemon architecture of Spread and
// of the paper's daemon-based prototype: one daemon per host runs the ring
// protocol, local clients connect over a stream socket, and the daemon
// routes totally ordered group messages to the clients that joined the
// target groups. The architecture gives a clean separation between
// middleware and application, lets one daemon set serve several
// applications, and provides open-group semantics (senders need not be
// members).
//
// With Config.Shards > 1 the daemon runs N independent ring instances
// (the Multi-Ring scaling pattern) and routes every group to its owning
// ring by the stable group.RingOf hash; aggregate ordering throughput
// multiplies and the cross-ring merge gives clients back one global
// delivery order. Everything between a ring's ordered stream and the
// client sessions — rings, tables, merge, apply logic, pacing, migration —
// is one groupcore.Host; the daemon is its sink (one ring is just N = 1).
//
// The client path is hardened for the edge of overload:
//
//   - Tiered backpressure: each session's sequenced frames sit in one
//     send window whose unsent backlog is metered against three
//     watermarks: past clientBuffer the session counts as lagging
//     (tier 1, daemon.tier_spill); past throttleAt the client is told to
//     pace itself (tier 2, session.Throttle); only a backlog of
//     spillLimit disconnects (the last resort). Transitions are exported
//     as daemon.tier_* metrics and flight-recorder events.
//   - Reconnect with resume: every delivery carries a per-session
//     sequence number (session.Seqd); a client that loses its TCP
//     connection presents its resume token and last processed sequence
//     (session.Resume) and the daemon re-sends the written-but-unacked
//     part of the window, so delivery is exactly-once across reconnects.
//     Clients acknowledge (session.Ack) to release the window. A
//     detached session that neither resumes nor said Bye within
//     resumeTimeout is disconnected in order.
//   - Graceful drain: Drain flushes every session's queue, hands clients
//     a Detach notice with resume blessing, and emits the final ordered
//     leave per session.
//   - Authenticated frames: with Config.Key set, every session frame
//     carries a truncated HMAC-SHA256 tag (session.Codec); forged frames
//     are counted, flight-recorded, and dropped. Keyed Resume handshakes
//     additionally complete a nonce challenge (session.Challenge), so a
//     captured Resume frame replayed from another connection cannot
//     hijack the session. The ring's own wire frames are authenticated
//     by transport.WithAuth.
package daemon

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/groupcore"
	"accelring/internal/membership"
	"accelring/internal/obs"
	"accelring/internal/ringnode"
	"accelring/internal/session"
	"accelring/internal/transport"
)

// Config configures a daemon.
type Config struct {
	// Ring is the protocol configuration (Self, Transport, windows,
	// timeouts). Its OnEvent and OnMessage fields are owned by the daemon. With Shards
	// > 1 it is the per-ring template: its Transport is ignored and
	// NewTransport opens each ring's own binding.
	Ring ringnode.Config
	// Shards is the ring-instance count (default 1). Each instance is a
	// full protocol stack — engine, membership, transport — and groups
	// are partitioned across them by group.RingOf.
	Shards int
	// NewTransport opens ring r's transport binding; required when
	// Shards > 1 (each ring needs its own ports). A single ring uses
	// Ring.Transport when that is set.
	NewTransport func(ring int) (transport.Transport, error)
	// Listener accepts client connections (TCP or Unix socket). The
	// daemon takes ownership and closes it on Stop.
	Listener net.Listener
	// Key, when non-empty, authenticates every session frame with a
	// truncated HMAC-SHA256 tag; clients must present the same key.
	// Forged frames are counted on daemon.auth_drops and dropped, and
	// Resume handshakes additionally answer a random nonce challenge so
	// a recorded Resume frame cannot be replayed to hijack a session.
	Key []byte
	// Obs, when non-nil, receives daemon.* session metrics. The ring
	// protocol's own metrics are wired through Ring.Observer.
	Obs *obs.Registry
	// Flight, when non-nil, receives black-box client lifecycle events
	// (connect, disconnect, tier transitions, resume, drain). The ring
	// protocol's own flight events are wired through Ring.Observer.
	Flight *obs.Recorder

	// clientBuffer, spillLimit and throttleAt override the session-window
	// watermarks of the same names (tests).
	clientBuffer, spillLimit, throttleAt int
}

// Session-window watermarks, against a session's unsent delivery backlog.
// clientBuffer is the backlog a session may run up at no cost: its send
// window starts out this large, and a backlog past it counts on
// daemon.tier_spill. At throttleAt the client is sent a Throttle
// notification, withdrawn once the backlog halves again. A session
// spillLimit behind is disconnected as the last resort.
const (
	clientBuffer = 1024
	spillLimit   = 16 * clientBuffer
	throttleAt   = spillLimit / 2
)

// Daemon is one host's ordering daemon.
type Daemon struct {
	cfg   Config
	self  evs.ProcID
	ln    net.Listener
	codec session.Codec

	// host runs the rings and the core that turns their ordered streams
	// into one globally ordered stream of ready-to-apply events, delivered
	// to sink; core is host.Core().
	host *groupcore.Host
	core *groupcore.Core

	mu        sync.Mutex
	clients   map[uint32]*clientConn
	nextLocal uint32
	stopped   bool
	draining  bool

	wg sync.WaitGroup
	dm daemonMetrics
}

// daemonMetrics caches the daemon's session-layer metric handles (all
// nil-safe; a nil Config.Obs costs one nil check per update).
type daemonMetrics struct {
	clients       *obs.Gauge
	detached      *obs.Gauge
	spilling      *obs.Gauge
	throttledCli  *obs.Gauge
	backActive    *obs.Gauge
	backQueue     *obs.Gauge
	sessions      *obs.Counter
	submits       *obs.Counter
	errorsSent    *obs.Counter
	slowDisconns  *obs.Counter
	framesRouted  *obs.Counter
	viewsAnnounce *obs.Counter
	tierSpill     *obs.Counter
	tierThrottle  *obs.Counter
	resumes       *obs.Counter
	resumeRejects *obs.Counter
	privateDrops  *obs.Counter
	backWaits     *obs.Counter
	authDrops     *obs.Counter
	drains        *obs.Counter
	fanoutEnc     *obs.Counter
	fanoutShared  *obs.Counter
	writerFlushes *obs.Counter
	writerFrames  *obs.Counter
}

func newDaemonMetrics(reg *obs.Registry) daemonMetrics {
	return daemonMetrics{
		clients:       reg.Gauge("daemon.clients"),
		detached:      reg.Gauge("daemon.sessions_detached"),
		spilling:      reg.Gauge("daemon.clients_spilling"),
		throttledCli:  reg.Gauge("daemon.clients_throttled"),
		backActive:    reg.Gauge("daemon.backpressure_active"),
		backQueue:     reg.Gauge("daemon.backpressure_queue"),
		sessions:      reg.Counter("daemon.sessions_total"),
		submits:       reg.Counter("daemon.submits"),
		errorsSent:    reg.Counter("daemon.errors_sent"),
		slowDisconns:  reg.Counter("daemon.slow_disconnects"),
		framesRouted:  reg.Counter("daemon.frames_routed"),
		viewsAnnounce: reg.Counter("daemon.views_announced"),
		tierSpill:     reg.Counter("daemon.tier_spill"),
		tierThrottle:  reg.Counter("daemon.tier_throttle"),
		resumes:       reg.Counter("daemon.resumes"),
		resumeRejects: reg.Counter("daemon.resume_rejects"),
		privateDrops:  reg.Counter("daemon.private_drops"),
		backWaits:     reg.Counter("daemon.backpressure_waits"),
		authDrops:     reg.Counter("daemon.auth_drops"),
		drains:        reg.Counter("daemon.drains"),
		fanoutEnc:     reg.Counter("daemon.fanout_encodes"),
		fanoutShared:  reg.Counter("daemon.fanout_shared"),
		writerFlushes: reg.Counter("daemon.writer_flushes"),
		writerFrames:  reg.Counter("daemon.writer_frames"),
	}
}

// clientConn is one client session. The session outlives its TCP
// connection: on a connection loss it stays registered (detached) until
// the client resumes, says Bye, or resumeTimeout expires.
type clientConn struct {
	id    group.ClientID
	name  string
	token uint64
	out   *outbox
	// split is the connection's SplitByRing scratch; only the session's
	// reader goroutine touches it, so spanning sends stay alloc-free.
	split []group.RingGroups

	mu       sync.Mutex
	expiry   *time.Timer // resume deadline while detached
	detached bool

	dropOnce sync.Once
}

// newToken mints a session's resume secret.
func newToken() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		panic("daemon: crypto/rand unavailable: " + err.Error())
	}
	return binary.BigEndian.Uint64(b[:]) | 1 // nonzero
}

// Start launches the protocol node(s) and the client accept loop.
func Start(cfg Config) (*Daemon, error) {
	if cfg.Listener == nil {
		return nil, errors.New("daemon: nil listener")
	}
	cfg.Shards = max(cfg.Shards, 1)
	if cfg.clientBuffer == 0 {
		cfg.clientBuffer, cfg.spillLimit, cfg.throttleAt = clientBuffer, spillLimit, throttleAt
	}
	d := &Daemon{
		cfg:     cfg,
		self:    cfg.Ring.Self,
		ln:      cfg.Listener,
		codec:   session.NewCodec(cfg.Key),
		clients: make(map[uint32]*clientConn),
		dm:      newDaemonMetrics(cfg.Obs),
	}
	host, err := groupcore.Start(groupcore.HostConfig{
		Shards:       cfg.Shards,
		Ring:         cfg.Ring,
		NewTransport: cfg.NewTransport,
		Sink:         sink{d},
		Obs:          cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	d.host, d.core = host, host.Core()
	d.wg.Add(1)
	go d.acceptLoop()
	return d, nil
}

// Shards returns the daemon's ring-instance count.
func (d *Daemon) Shards() int { return d.cfg.Shards }

// RingNode exposes ring r's protocol node (status inspection).
func (d *Daemon) RingNode(r int) *ringnode.Node { return d.host.RingNode(r) }

// Addr returns the client listener's address.
func (d *Daemon) Addr() net.Addr { return d.ln.Addr() }

// WaitOperational blocks until every one of the daemon's rings is
// operational.
func (d *Daemon) WaitOperational(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for r := 0; r < d.Shards(); r++ {
		if !d.RingNode(r).WaitState(membership.StateOperational, max(time.Until(deadline), time.Millisecond)) {
			return false
		}
	}
	return true
}

// Stop disconnects clients, stops the listener, then the rings.
func (d *Daemon) Stop() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	clients := make([]*clientConn, 0, len(d.clients))
	for _, c := range d.clients {
		clients = append(clients, c)
	}
	d.mu.Unlock()

	d.ln.Close()
	for _, c := range clients {
		d.shutdownClient(c)
	}
	d.wg.Wait()
	d.host.Stop()
}

// shutdownClient tears the session down without the ordered-disconnect
// bookkeeping: it closes the session's outbox and connection and settles
// the tier gauges it still held — an overflow disconnect by definition
// happens while the session is spilling, so without this clients_spilling
// and clients_throttled would leak upward on every drop.
func (d *Daemon) shutdownClient(c *clientConn) {
	c.mu.Lock()
	if c.expiry != nil {
		c.expiry.Stop()
	}
	c.mu.Unlock()
	conn, spilling, throttled := c.out.shutdown()
	if conn != nil {
		conn.Close()
	}
	if spilling {
		d.dm.spilling.Add(-1)
	}
	if throttled {
		d.dm.throttledCli.Add(-1)
	}
}

func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return // listener closed
		}
		d.wg.Add(1)
		go d.serveClient(conn)
	}
}

// flight records a black-box client event (nil-safe).
func (d *Daemon) flight(note string, local uint32, count int) {
	d.cfg.Flight.Record(obs.Event{Kind: obs.FlightClient, Note: note, Seq: uint64(local), Count: count})
}

// serveClient handles one inbound connection: a Connect handshake opens
// a new session, a Resume handshake reattaches an existing one.
func (d *Daemon) serveClient(conn net.Conn) {
	defer d.wg.Done()
	f, buf, err := d.codec.ReadFramePooled(conn)
	if err != nil {
		if errors.Is(err, session.ErrAuth) {
			d.dm.authDrops.Inc()
			d.flight("auth_drop", 0, 0)
		}
		conn.Close()
		return
	}
	// Handshake frames carry no zero-copy fields past decode (names and
	// tokens are copied), so the read buffer recycles immediately.
	bufpool.Put(buf)
	switch hello := f.(type) {
	case session.Connect:
		d.handleConnect(conn, hello)
	case session.Resume:
		d.handleResume(conn, hello)
	default:
		_ = d.codec.WriteFrame(conn, session.Error{Code: session.CodeBadRequest, Msg: "expected connect or resume"})
		conn.Close()
	}
}

func (d *Daemon) handleConnect(conn net.Conn, hello session.Connect) {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		conn.Close()
		return
	}
	if d.draining {
		d.mu.Unlock()
		_ = d.codec.WriteFrame(conn, session.Error{Code: session.CodeDraining, Msg: "daemon is draining"})
		conn.Close()
		return
	}
	d.nextLocal++
	c := &clientConn{
		id:    group.ClientID{Daemon: d.self, Local: d.nextLocal},
		name:  hello.Name,
		token: newToken(),
		out: newOutbox(d.cfg.clientBuffer,
			d.cfg.throttleAt, d.cfg.spillLimit, sessionRetainLimit),
	}
	d.clients[c.id.Local] = c
	active := len(d.clients)
	d.mu.Unlock()
	d.dm.sessions.Inc()
	d.dm.clients.Add(1)
	d.flight("connect", c.id.Local, active)

	// The Welcome rides the outbox like every other daemon->client frame:
	// attach splices it in as the first control frame under the outbox
	// lock, so seq accounting and notice ordering cannot diverge from the
	// write path (and the writer can never race a delivery ahead of it).
	if !c.out.attach(conn, 0, session.Welcome{Client: c.id, Token: c.token}) {
		conn.Close()
		d.dropClient(c)
		return
	}
	d.wg.Add(1)
	go d.sessionWriter(c)
	d.clientReader(c, conn)
}

// handleResume reattaches a detached session after validating identity,
// token, and send window.
func (d *Daemon) handleResume(conn net.Conn, req session.Resume) {
	reject := func(code session.ErrorCode, msg string) {
		d.dm.resumeRejects.Inc()
		d.flight("resume_reject", req.Client.Local, 0)
		_ = d.codec.WriteFrame(conn, session.Error{Code: code, Msg: msg})
		conn.Close()
	}
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		conn.Close()
		return
	}
	if d.draining {
		d.mu.Unlock()
		reject(session.CodeDraining, "daemon is draining")
		return
	}
	var c *clientConn
	if req.Client.Daemon == d.self {
		c = d.clients[req.Client.Local]
	}
	d.mu.Unlock()
	if c == nil || c.token != req.Token {
		reject(session.CodeSessionUnknown, "unknown session or bad token")
		return
	}
	if err := c.out.canResume(req.LastSeq); err != nil {
		reject(session.CodeSessionUnknown, err.Error())
		return
	}
	if d.codec.Keyed() && !d.challengeResume(conn) {
		d.dm.authDrops.Inc()
		reject(session.CodeSessionUnknown, "resume challenge failed")
		return
	}
	// The Welcome must hit the wire before any Seqd frame on the new
	// connection: attach splices it in as the first control frame under
	// the same lock that installs conn, so it precedes the replayed
	// window and any queued notice while still riding the one outbox
	// write path.
	if !c.out.attach(conn, req.LastSeq, session.Welcome{Client: c.id, Token: c.token, Resumed: true}) {
		conn.Close()
		return
	}
	c.mu.Lock()
	if c.expiry != nil {
		c.expiry.Stop()
		c.expiry = nil
	}
	if c.detached {
		c.detached = false
		d.dm.detached.Add(-1)
	}
	c.mu.Unlock()
	d.dm.resumes.Inc()
	d.flight("resume", c.id.Local, 0)
	d.clientReader(c, conn)
}

// resumeChallengeTimeout bounds how long a Resume handshake may sit on
// the challenge round trip before the daemon gives up the connection.
const resumeChallengeTimeout = 5 * time.Second

// Resume bounds. sessionRetainLimit caps the written-but-unacked frames a
// session keeps for re-sending after a resume; a client whose reconnect
// needs more is refused and must start a fresh session. resumeTimeout is
// how long a detached session is held for resume before its ordered
// disconnect is emitted.
const (
	sessionRetainLimit = 4096
	resumeTimeout      = 30 * time.Second
)

// challengeResume demands fresh proof of key possession before a keyed
// Resume is honored. The Resume frame's HMAC covers only static bytes,
// so an on-path observer could re-send a recorded Resume verbatim from
// its own connection and hijack the session. The daemon therefore sends
// a random nonce and requires a ChallengeAck echoing it: the ack's frame
// MAC covers the nonce, a value no recorded stream contains, so only a
// holder of the session key can complete the handshake.
func (d *Daemon) challengeResume(conn net.Conn) bool {
	var ch session.Challenge
	if _, err := cryptorand.Read(ch.Nonce[:]); err != nil {
		panic("daemon: crypto/rand unavailable: " + err.Error())
	}
	if err := d.codec.WriteFrame(conn, ch); err != nil {
		return false
	}
	conn.SetReadDeadline(time.Now().Add(resumeChallengeTimeout))
	f, buf, err := d.codec.ReadFramePooled(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		return false
	}
	bufpool.Put(buf) // the nonce is an array copy
	ack, ok := f.(session.ChallengeAck)
	return ok && ack.Nonce == ch.Nonce
}

// clientReader turns client requests into ordered envelopes. Frames are
// read into pooled buffers through the connection's own session.Reader
// (a burst of frames per read syscall, interned group names, a Send
// decoded into its scratch) and recycled
// after each request: every path below copies what it keeps (envelope
// encoding copies payloads and group names), so nothing aliases the
// buffer or the reader's scratch once handleRequest returns.
func (d *Daemon) clientReader(c *clientConn, conn net.Conn) {
	rd := d.codec.NewReader()
	for {
		f, buf, err := rd.Read(conn)
		if err != nil {
			if errors.Is(err, session.ErrAuth) {
				d.dm.authDrops.Inc()
				d.flight("auth_drop", c.id.Local, 0)
			}
			d.detachClient(c, conn)
			return
		}
		done := d.handleRequest(c, f)
		bufpool.Put(buf)
		if done {
			return
		}
	}
}

// handleRequest applies one client frame; true means the session ended
// (clean Bye).
func (d *Daemon) handleRequest(c *clientConn, f session.Frame) bool {
	switch req := f.(type) {
	case session.Bye:
		d.dropClient(c)
		return true
	case session.Ack:
		c.out.ack(req.Seq)
	case session.Join:
		d.submitEnvelope(c, d.core.RingOfGroup(req.Group), group.Envelope{
			Kind: group.OpJoin, Sender: c.id, Groups: []string{req.Group},
		}, evs.Agreed)
	case session.Leave:
		d.submitEnvelope(c, d.core.RingOfGroup(req.Group), group.Envelope{
			Kind: group.OpLeave, Sender: c.id, Groups: []string{req.Group},
		}, evs.Agreed)
	case *session.Send:
		svc := req.Service
		if !svc.Valid() {
			d.pushError(c, session.Error{Code: session.CodeInvalidService, Msg: "invalid service"})
			return false
		}
		d.backpressure()
		// A multi-group send spanning several rings becomes one
		// independent ordered message per owning ring, submitted in
		// ascending ring order so identical runs reproduce identically;
		// the cross-ring merger reunifies the per-ring streams into
		// one global delivery order. The single-ring common case
		// reuses the connection's split scratch and does not allocate.
		c.split = d.core.SplitByRing(req.Groups, c.split)
		for _, rg := range c.split {
			d.submitEnvelope(c, rg.Ring, group.Envelope{
				Kind: group.OpMessage, Sender: c.id, Groups: rg.Groups,
				Payload: req.Payload,
			}, svc)
		}
	case session.Private:
		svc := req.Service
		if !svc.Valid() {
			d.pushError(c, session.Error{Code: session.CodeInvalidService, Msg: "invalid service"})
			return false
		}
		d.backpressure()
		d.submitEnvelope(c, group.RingOfClient(req.To.String(), d.Shards()), group.Envelope{
			Kind: group.OpPrivate, Sender: c.id, Target: req.To,
			Payload: req.Payload,
		}, svc)
	default:
		d.pushError(c, session.Error{Code: session.CodeBadRequest, Msg: fmt.Sprintf("unexpected frame %T", f)})
	}
	return false
}

// pushError sends a sequenced Error frame and counts it. An Error goes to
// one session, but takes the same encoded-body path as a fan-out.
func (d *Daemon) pushError(c *clientConn, e session.Error) {
	d.dm.errorsSent.Inc()
	sh, err := session.NewShared(e)
	if err != nil {
		return // oversized; nothing deliverable
	}
	d.afterTier(c, c.out.enqueue(delivery{sh: sh}))
	sh.Unref() // creator's reference; the outbox holds its own
}

func (d *Daemon) submitEnvelope(c *clientConn, ring int, env group.Envelope, svc evs.Service) {
	enc, err := env.Encode()
	if err != nil {
		d.pushError(c, session.Error{Code: session.CodeBadRequest, Msg: err.Error()})
		return
	}
	if err := d.host.Submit(ring, enc, svc); err != nil {
		code := session.CodeGeneric
		if errors.Is(err, membership.ErrNotOperational) {
			code = session.CodeNotReady
		}
		d.pushError(c, session.Error{Code: code, Msg: err.Error()})
		return
	}
	d.dm.submits.Inc()
}

// sessionWriter drains the session's outbox for as long as the session
// lives, across reconnects: a write error detaches the connection and
// the loop parks in nextBatch until the client resumes. Each wakeup
// drains up to writerBatch pending frames and flushes them with one
// vectored write (writev on TCP/unix sockets) instead of a syscall per
// frame, so a backlogged fan-out costs ~1/writerBatch syscalls per
// delivered frame; a shallow queue still flushes immediately.
func (d *Daemon) sessionWriter(c *clientConn) {
	defer d.wg.Done()
	w := newFrameWriter()
	for {
		conn, frames, ok := c.out.nextBatch(w.frames[:0], writerBatch)
		if !ok {
			return
		}
		err := w.flush(conn, d.codec, frames)
		releaseBatch(frames)
		if err != nil {
			d.detachClient(c, conn)
			continue
		}
		d.dm.writerFlushes.Inc()
		d.dm.writerFrames.Add(uint64(len(frames)))
		for i := range frames {
			// Writer-flush stage for a sampled delivery (traceSeq is zero
			// otherwise): the frame's bytes have reached the client
			// socket. Replays after a reconnect re-record; the latency
			// fold keeps the earliest stamp.
			d.host.RingNode(frames[i].traceRing).Observer().Stamp(obs.StageWriterFlush, frames[i].traceSeq, 0)
		}
		d.afterTier(c, c.out.wroteBatch(conn, frames))
	}
}

// afterTier acts on the backpressure tier transitions one enqueue or
// write completion caused.
func (d *Daemon) afterTier(c *clientConn, ch tierChange) {
	if ch.overflow {
		// Last resort: the backlog reached spillLimit.
		d.dm.slowDisconns.Inc()
		d.flight("slow_disconnect", c.id.Local, ch.queued)
		d.dropClient(c)
		return
	}
	if ch.spillStart {
		d.dm.tierSpill.Inc()
		d.dm.spilling.Add(1)
		d.flight("tier_spill", c.id.Local, ch.queued)
	}
	if ch.spillEnd {
		d.dm.spilling.Add(-1)
	}
	if ch.throttleOn {
		// The Throttle notice itself was queued under the outbox lock, so
		// it cannot be reordered against a later Off; only the
		// bookkeeping happens here.
		d.dm.tierThrottle.Inc()
		d.dm.throttledCli.Add(1)
		d.flight("tier_throttle", c.id.Local, ch.queued)
	}
	if ch.throttleOff {
		d.dm.throttledCli.Add(-1)
		d.flight("tier_recover", c.id.Local, ch.queued)
	}
}

// detachClient handles a dead connection: the session stays registered
// for resumeTimeout awaiting a Resume, then is disconnected in order.
// Stale connections (already superseded by a resume) are ignored.
func (d *Daemon) detachClient(c *clientConn, conn net.Conn) {
	conn.Close()
	if !c.out.detach(conn) {
		return
	}
	d.mu.Lock()
	ending := d.stopped
	d.mu.Unlock()
	if ending {
		return
	}
	c.mu.Lock()
	if !c.detached {
		c.detached = true
		d.dm.detached.Add(1)
		if c.expiry != nil {
			c.expiry.Stop()
		}
		c.expiry = time.AfterFunc(resumeTimeout, func() { d.dropClient(c) })
	}
	c.mu.Unlock()
	d.flight("detach", c.id.Local, 0)
}

// dropClient ends the session for good: unregisters it and announces
// its departure in order.
func (d *Daemon) dropClient(c *clientConn) {
	c.dropOnce.Do(func() {
		d.shutdownClient(c)
		d.mu.Lock()
		_, known := d.clients[c.id.Local]
		delete(d.clients, c.id.Local)
		stopped := d.stopped
		d.mu.Unlock()
		c.mu.Lock()
		if c.detached {
			c.detached = false
			d.dm.detached.Add(-1)
		}
		c.mu.Unlock()
		if !known || stopped {
			return
		}
		d.dm.clients.Add(-1)
		d.flight("disconnect", c.id.Local, 0)
		// One copy, applied to every partition at its single emission
		// point, on the first ring that takes it: if none does, none ever
		// took a join of this client either (formation is monotonic).
		bye := group.Envelope{Kind: group.OpDisconnect, Sender: c.id}
		for r := 0; r < d.Shards(); r++ {
			if d.core.Submit(r, &bye, evs.Agreed) == nil {
				break
			}
		}
	})
}

// localClient looks up a session by global ID. Detached sessions count:
// their deliveries keep queuing for the resumed connection.
func (d *Daemon) localClient(id group.ClientID) *clientConn {
	if id.Daemon != d.self {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clients[id.Local]
}

// sink is the Daemon seen as the core's ordered-event sink. Its methods run
// at globally ordered emission points with the merger's lock held; none of
// them blocks (outboxes overflow rather than wait) or reenters the core
// beyond Submit, which only queues on a ring.
type sink struct{ d *Daemon }

// Message fans one ordered delivery out to the local sessions in its
// delivery set. Encode-once: the delivered frame is identical for every
// local recipient, so its body is encoded exactly once into a refcounted
// shared buffer on the first one; every outbox queues a reference and the
// per-session writers prepend only the tiny Seqd header (and MAC, when
// keyed) at write time.
func (k sink) Message(ring int, env *group.Envelope, svc evs.Service, seq uint64, to []group.ClientID) {
	d := k.d
	o := d.host.RingNode(ring).Observer()
	// The span's merge stage: the envelope's globally ordered emission
	// point (a slot copy under the recorder's own lock; nothing blocks).
	o.Stamp(obs.StageMergeOut, seq, 0)
	var sh *session.Shared
	var traceSeq uint64
	for _, rcpt := range to {
		c := d.localClient(rcpt)
		if c == nil {
			continue
		}
		if sh == nil {
			var err error
			sh, err = session.NewSharedMessage(&session.Message{
				Sender:  env.Sender,
				Service: svc,
				Seq:     seq,
				Groups:  env.Groups,
				Payload: env.Payload,
			})
			if err != nil {
				return // oversized or malformed; nothing deliverable
			}
			d.dm.fanoutEnc.Inc()
			// Fan-out start: the first local recipient forced the encode;
			// everything after is queue + write. traceSeq rides the queued
			// frames so the writer can attribute flush time to the span.
			if o.Stamp(obs.StageFanout, seq, 0) {
				traceSeq = seq
			}
		}
		d.dm.fanoutShared.Inc()
		d.afterTier(c, c.out.enqueue(delivery{sh: sh, traceSeq: traceSeq, traceRing: ring}))
		d.dm.framesRouted.Inc()
	}
	if sh != nil {
		sh.Unref() // creator's reference; outboxes hold their own
	} else if env.Kind == group.OpPrivate && env.Target.Daemon == d.self {
		d.rejectPrivate(ring, env)
	}
}

// View pushes a group's new membership to its local members, encoded once
// for all of them. Views are rare next to messages, so unlike Message it
// does not wait for the first local member to encode.
func (k sink) View(g string, members []group.ClientID, _ group.ClientID) {
	k.d.dm.viewsAnnounce.Inc()
	sh, err := session.NewShared(session.View{Group: g, Members: members})
	if err != nil {
		return // oversized; nothing deliverable
	}
	defer sh.Unref() // creator's reference; outboxes hold their own
	for _, m := range members {
		if c := k.d.localClient(m); c != nil {
			k.d.afterTier(c, c.out.enqueue(delivery{sh: sh}))
		}
	}
}

// Config is a no-op: clients see ring membership only through the group
// views it changes.
func (sink) Config(int, evs.ConfigChange) {}

// Rejected tells a local client, in order, that its operation did not
// apply.
func (k sink) Rejected(id group.ClientID, op group.OpKind, err error) {
	c := k.d.localClient(id)
	if c == nil {
		return
	}
	code := session.CodeBadRequest
	switch op {
	case group.OpLeave:
		code = session.CodeNotMember // the client left a group it is not in
	case group.OpPrivateReject:
		code = session.CodeNoRecipient
	}
	k.d.pushError(c, session.Error{Code: code, Msg: err.Error()})
}

func (k sink) Migrated(g string, from, to int) {
	k.d.flight("migrated "+g, 0, to)
}

// Migrate re-homes a group onto another ring with no loss, duplication,
// or reordering, blocking until the migration's globally ordered close
// point has been emitted locally (see groupcore.Core.Migrate).
func (d *Daemon) Migrate(g string, ring int) error { return d.core.Migrate(g, ring) }

// RingOfGroup reports which ring currently owns a group (hash home or
// migration override).
func (d *Daemon) RingOfGroup(g string) int { return d.core.RingOfGroup(g) }

// rejectPrivate handles a Private whose target — one of ours — is gone:
// count it, flight-record it, and send the sender a non-fatal rejection.
// Only the target's host daemon detects this, so for remote senders the
// rejection rides the carrier ring (formed: it just delivered the private)
// as an ordered OpPrivateReject.
func (d *Daemon) rejectPrivate(ring int, env *group.Envelope) {
	d.dm.privateDrops.Inc()
	d.flight("private_drop", env.Target.Local, 0)
	if c := d.localClient(env.Sender); c != nil {
		d.pushError(c, session.Error{
			Code: session.CodeNoRecipient, Msg: groupcore.ErrNoRecipient.Error(),
		})
		return
	}
	if env.Sender.Daemon == d.self {
		return // sender is also gone; nobody to tell
	}
	_ = d.core.Submit(ring, &group.Envelope{Kind: group.OpPrivateReject, Sender: env.Target, Target: env.Sender}, evs.Agreed)
}

// backpressureMaxWait bounds how long backpressure holds a client reader
// per frame: a wedged ring must not hang client readers forever.
const backpressureMaxWait = groupcore.PaceMaxWait

// backpressure paces client ingestion while the protocol's send queue is
// deep: not reading from the client socket makes TCP push back on the
// sender, which is Spread's session flow control in spirit. Without it a
// flooding client would balloon the daemon's memory. The wait is the
// host's (groupcore.Host.Paced), which the facade's senders meet too.
// Each wait tick is counted on daemon.backpressure_waits;
// daemon.backpressure_active holds how many client readers are pacing
// right now and daemon.backpressure_queue the deepest queue last seen.
func (d *Daemon) backpressure() {
	if deepest := d.host.Backlog(); deepest < groupcore.PaceBacklog {
		d.dm.backQueue.Set(int64(deepest))
		return
	}
	d.dm.backActive.Add(1)
	d.dm.backWaits.Add(uint64(d.host.Paced()))
	d.dm.backActive.Add(-1)
	d.dm.backQueue.Set(int64(d.host.Backlog()))
}
