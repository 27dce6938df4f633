// Package client is the application-side library for the ordering daemon:
// the equivalent of Spread's client library. A client connects to a local
// daemon, joins groups, multicasts to any groups (open-group semantics),
// and receives totally ordered messages and agreed group views.
//
// Sessions are resilient: every delivery carries a per-session sequence
// number, the client acknowledges periodically, and — with
// Config.Reconnect — a dropped connection is redialed and resumed from
// the last processed sequence, giving exactly-once delivery across the
// reconnect. The application sees a typed *Reconnected event instead of
// a dead session. Backpressure notices from the daemon surface as
// *Throttled events, graceful drains as *Detached events, and with
// Config.Key every frame is authenticated with HMAC-SHA256.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"accelring/internal/bufpool"
	"accelring/internal/evs"
	"accelring/internal/group"
	"accelring/internal/obs"
	"accelring/internal/session"
	"accelring/internal/slab"
)

// Event is a delivery to the client: a *Message, *View, *Rejection,
// *Reconnected, *Throttled, or *Detached.
type Event interface{ isEvent() }

// Message is a totally ordered group message. It is the application's
// own, but it and its slices are carved from chunks shared with other
// deliveries, which stay alive while it does: an application that keeps
// a few messages long-term should copy them.
type Message struct {
	// Sender is the originating client.
	Sender group.ClientID
	// Service is the delivery level it was sent with.
	Service evs.Service
	// Groups are the destination groups.
	Groups []string
	// Payload is the application data.
	Payload []byte
	// Seq is the ring sequence number that ordered this delivery (0 when
	// the daemon predates sequence propagation). With a shared tracer
	// sampling cadence it keys this delivery into a cross-node span.
	Seq uint64
}

func (*Message) isEvent() {}

// View is a group's agreed membership after a join, leave, disconnect, or
// daemon membership change.
type View struct {
	Group   string
	Members []group.ClientID
}

func (*View) isEvent() {}

// Rejection is a daemon-reported, request-scoped failure that does not
// terminate the session (e.g. leaving a group this client never joined,
// or a private message to a client that disconnected). Err is typed:
// branch with errors.Is (group.ErrNotMember, session.ErrInvalidService,
// session.ErrNotReady, session.ErrNoRecipient) or errors.As
// (*evs.MembershipChangedError). Protocol-level daemon errors remain
// fatal and surface through Client.Err instead.
type Rejection struct{ Err error }

func (*Rejection) isEvent() {}

// Reconnected reports that the connection died and was transparently
// re-established. With Resumed the session continued exactly where it
// left off (no delivery lost or duplicated). Without it the daemon could
// not resume (restarted daemon, replay window overrun): the client holds
// a fresh identity — check ID() — and must re-join its groups.
type Reconnected struct {
	// Attempts is how many dials the outage cost.
	Attempts int
	// Resumed says whether the session was resumed (vs started fresh).
	Resumed bool
}

func (*Reconnected) isEvent() {}

// Throttled is the daemon's backpressure notice: while On the session is
// queue-heavy daemon-side and the application should pace itself; an Off
// notice follows once the backlog drains.
type Throttled struct {
	On     bool
	Queued int
}

func (*Throttled) isEvent() {}

// Detached is the daemon's goodbye before releasing the connection (a
// graceful drain). With CanResume the resume token stays valid for a
// restarted daemon.
type Detached struct {
	Reason    string
	CanResume bool
}

func (*Detached) isEvent() {}

// Sentinel errors returned by the request methods.
var (
	// ErrClosed is returned after the connection is closed.
	ErrClosed = errors.New("client: connection closed")
	// ErrInvalidService rejects an unknown service level.
	ErrInvalidService = errors.New("client: invalid service level")
	// ErrNeedTarget rejects a private message without a destination.
	ErrNeedTarget = errors.New("client: private message needs a target")
	// ErrBadGroupCount rejects a multicast with zero or too many groups.
	ErrBadGroupCount = fmt.Errorf("client: need 1..%d groups", group.MaxGroups)
)

// Config configures a resilient daemon connection for DialWith.
type Config struct {
	// Network is the listener's network (default "tcp").
	Network string
	// Addr is the daemon's address.
	Addr string
	// Addrs are fallback addresses (peer daemons) tried round-robin
	// after Addr during reconnects.
	Addrs []string
	// Name is the client's private name (diagnostics only).
	Name string
	// Key, when non-empty, authenticates every session frame with a
	// truncated HMAC-SHA256 tag; must match the daemon's key. Resume
	// handshakes also answer the daemon's nonce challenge, so a recorded
	// handshake cannot be replayed by an observer.
	Key []byte
	// Reconnect redials and resumes the session after a connection
	// loss instead of failing the client.
	Reconnect bool
	// MaxAttempts bounds the dials per outage (default 8).
	MaxAttempts int
	// Backoff is the initial retry delay, doubling up to 2s (default
	// 50ms).
	Backoff time.Duration
	// AckEvery is how many deliveries go unacknowledged before an Ack
	// frame prunes the daemon's replay window (default 64).
	AckEvery int
	// EventBuffer is the Events channel capacity (default 1024).
	EventBuffer int
	// Dialer overrides net.Dial (tests and chaos harnesses).
	Dialer func(network, addr string) (net.Conn, error)
	// Tracer, when non-nil, records the client_recv lifecycle stage for
	// deliveries whose ring sequence it samples, closing the span a
	// daemon-side tracer with the same cadence opened. Nil disables
	// client-side latency attribution at zero cost.
	Tracer *obs.MsgTracer
}

func (cfg *Config) fillDefaults() {
	if cfg.Network == "" {
		cfg.Network = "tcp"
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 64
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 1024
	}
	if cfg.Dialer == nil {
		cfg.Dialer = net.Dial
	}
}

// Client is a connection to an ordering daemon.
type Client struct {
	cfg   Config
	codec session.Codec

	mu        sync.Mutex // guards conn, id, token, closing
	conn      net.Conn   // nil while reconnecting
	connGone  *sync.Cond // signaled on conn swaps and close
	id        group.ClientID
	token     uint64
	resumable bool
	closing   bool // Close started; read errors are the daemon's goodbye

	writeMu sync.Mutex
	events  chan Event

	// Delivery bookkeeping; readLoop-only.
	lastSeq uint64
	unacked int

	closeOnce sync.Once
	closeErr  error
	done      chan struct{}
}

// Dial connects to a daemon at network/addr (e.g. "tcp",
// "127.0.0.1:4803" or "unix", "/tmp/ring.sock") with a private name. The
// session does not auto-reconnect; use DialWith for that.
func Dial(network, addr, name string) (*Client, error) {
	return DialWith(Config{Network: network, Addr: addr, Name: name})
}

// DialWith connects with full control over resilience: reconnect with
// resume, fallback addresses, frame authentication, ack cadence.
func DialWith(cfg Config) (*Client, error) {
	cfg.fillDefaults()
	conn, err := cfg.Dialer(cfg.Network, cfg.Addr)
	if err != nil {
		return nil, err
	}
	c := newClient(cfg)
	w, err := c.connectHandshake(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.adopt(conn, w)
	go c.readLoop(conn)
	return c, nil
}

// Attach runs the session handshake over an established connection (no
// reconnect: the dial target is unknown).
func Attach(conn net.Conn, name string) (*Client, error) {
	c := newClient(Config{Name: name})
	c.cfg.fillDefaults()
	w, err := c.connectHandshake(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.adopt(conn, w)
	go c.readLoop(conn)
	return c, nil
}

func newClient(cfg Config) *Client {
	c := &Client{
		cfg:    cfg,
		codec:  session.NewCodec(cfg.Key),
		events: make(chan Event, cfg.EventBuffer),
		done:   make(chan struct{}),
	}
	if c.events == nil || cap(c.events) == 0 {
		c.events = make(chan Event, 1024)
	}
	c.connGone = sync.NewCond(&c.mu)
	return c
}

// connectHandshake opens a fresh session on conn.
func (c *Client) connectHandshake(conn net.Conn) (session.Welcome, error) {
	if err := c.codec.WriteFrame(conn, session.Connect{Name: c.cfg.Name}); err != nil {
		return session.Welcome{}, err
	}
	return c.readWelcome(conn)
}

// resumeHandshake reattaches the existing session on conn.
func (c *Client) resumeHandshake(conn net.Conn) (session.Welcome, error) {
	c.mu.Lock()
	req := session.Resume{Client: c.id, Token: c.token, LastSeq: c.lastSeq}
	c.mu.Unlock()
	if err := c.codec.WriteFrame(conn, req); err != nil {
		return session.Welcome{}, err
	}
	return c.readWelcome(conn)
}

func (c *Client) readWelcome(conn net.Conn) (session.Welcome, error) {
	for {
		f, buf, err := c.codec.ReadFramePooled(conn)
		if err != nil {
			return session.Welcome{}, err
		}
		// No handshake frame aliases its read buffer (identities, tokens,
		// and nonces are value copies), so the buffer recycles right away.
		bufpool.Put(buf)
		switch v := f.(type) {
		case session.Welcome:
			return v, nil
		case session.Challenge:
			// Keyed resume freshness probe: echo the nonce so our frame
			// MAC proves we hold the key right now (not in a recording).
			if err := c.codec.WriteFrame(conn, session.ChallengeAck{Nonce: v.Nonce}); err != nil {
				return session.Welcome{}, err
			}
		case session.Error:
			return session.Welcome{}, fmt.Errorf("client: handshake refused: %w", v.Err())
		default:
			return session.Welcome{}, fmt.Errorf("client: unexpected handshake frame %T", f)
		}
	}
}

// adopt installs a fresh session's identity and connection.
func (c *Client) adopt(conn net.Conn, w session.Welcome) {
	c.mu.Lock()
	c.conn = conn
	c.id = w.Client
	c.token = w.Token
	c.resumable = w.Token != 0
	c.lastSeq = 0
	c.unacked = 0
	c.connGone.Broadcast()
	c.mu.Unlock()
}

// ID returns the globally unique client identifier assigned by the
// daemon. It changes if a reconnect could not resume (see Reconnected).
func (c *Client) ID() group.ClientID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.id
}

// Events returns the delivery stream. The channel is closed when the
// connection ends; Err explains why.
func (c *Client) Events() <-chan Event { return c.events }

// Err returns the terminal error after Events is closed (nil on clean
// Close).
func (c *Client) Err() error {
	select {
	case <-c.done:
		if errors.Is(c.closeErr, net.ErrClosed) {
			return nil
		}
		return c.closeErr
	default:
		return nil
	}
}

// readLoop processes deliveries, surviving connection losses when
// reconnect is on. Frames are read through one session.Reader, a burst
// per read syscall; after a reconnect it reads the new connection and
// drops what the old one left buffered. Every frame lands in a pooled
// buffer that goes back to the pool once the frame is dispatched: what
// the application receives is copied out of it into the inbox's slabs.
func (c *Client) readLoop(conn net.Conn) {
	defer close(c.events)
	in := inbox{rd: c.codec.NewReader()}
	for {
		body, buf, err := in.rd.ReadBody(conn)
		if err == nil {
			var open bool
			open, err = c.dispatch(&in, conn, body)
			bufpool.Put(buf)
			if !open {
				return
			}
			if err == nil {
				continue
			}
		}
		select {
		case <-c.done:
			c.shutdown(err)
			return
		default:
		}
		if c.closingNow() {
			// Orderly close: the daemon acted on our Bye and closed
			// its side. Treat the EOF as clean and unblock Close.
			c.shutdown(net.ErrClosed)
			return
		}
		if !c.cfg.Reconnect {
			c.shutdown(err)
			return
		}
		next, rerr := c.reconnect(conn, err)
		if rerr != nil {
			c.shutdown(rerr)
			return
		}
		conn = next
	}
}

// dispatch decodes one frame body and acts on it. Nothing it hands the
// application aliases body. It returns false once the session is over (a
// fatal daemon error) and a decode error as err, which readLoop treats
// like a read error.
func (c *Client) dispatch(in *inbox, conn net.Conn, body []byte) (bool, error) {
	if session.IsSeqdMessage(body) {
		// The per-delivery frame, decoded unboxed.
		seq, err := in.decode(body)
		if err != nil {
			return true, err
		}
		if seq <= c.lastSeq {
			return true, nil // duplicate from a resume replay
		}
		c.lastSeq = seq
		c.deliver(in.keep(&in.m))
		c.counted(conn)
		return true, nil
	}
	f, err := in.rd.Decode(body)
	if err != nil {
		return true, err
	}
	switch v := f.(type) {
	case session.Seqd:
		if v.Seq <= c.lastSeq {
			return true, nil // duplicate from a resume replay
		}
		c.lastSeq = v.Seq
		if !c.handleDelivery(in, v.Frame) {
			return false, nil
		}
		c.counted(conn)
	case session.Throttle:
		c.events <- &Throttled{On: v.On, Queued: int(v.Queued)}
	case session.Detach:
		c.events <- &Detached{Reason: v.Reason, CanResume: v.CanResume}
		// The daemon closes the connection right after; the next
		// read error runs the normal reconnect path.
	default:
		// Unsequenced Message/View/Error (pre-resume daemons).
		return c.handleDelivery(in, f), nil
	}
	return true, nil
}

// inbox is readLoop's decode state: the connection's Reader, a scratch
// Message that a sequenced delivery decodes into, and the slabs every
// delivered Message is carved from.
type inbox struct {
	rd     *session.Reader
	m      session.Message
	groups [group.MaxGroups]string
	slab   slab.Set[Message]
}

// decode decodes a sequenced Message body into the scratch message, whose
// Payload then aliases body.
func (in *inbox) decode(body []byte) (seq uint64, err error) {
	in.m.Groups = in.groups[:0]
	return in.rd.DecodeSeqdMessage(body, &in.m)
}

// keep copies a decoded message into the slabs: the Message the
// application receives, which shares nothing with the read buffer and
// nothing an append could reach with any other delivery.
func (in *inbox) keep(m *session.Message) *Message {
	ev := in.slab.New()
	*ev = Message(*m) // the two share one underlying struct type
	ev.Groups = in.slab.Names(m.Groups)
	ev.Payload = in.slab.Payload(m.Payload)
	return ev
}

// counted counts one processed sequenced delivery, acknowledging every
// AckEvery of them.
func (c *Client) counted(conn net.Conn) {
	c.unacked++
	if c.unacked >= c.cfg.AckEvery {
		c.ack(conn)
	}
}

// deliver hands a Message event to the application.
func (c *Client) deliver(m *Message) {
	c.cfg.Tracer.Stamp(obs.Event{Kind: obs.StageClientRecv, Seq: m.Seq})
	c.events <- m
}

// handleDelivery dispatches one delivered frame; false means the session
// is over (fatal daemon error).
func (c *Client) handleDelivery(in *inbox, f session.Frame) bool {
	switch v := f.(type) {
	case session.Message:
		c.deliver(in.keep(&v))
	case session.View:
		c.events <- &View{Group: v.Group, Members: v.Members}
	case session.Error:
		switch v.Code {
		case session.CodeInvalidService, session.CodeNotMember,
			session.CodeNotReady, session.CodeMembershipChanged,
			session.CodeNoRecipient:
			// Request-scoped: the session stays up.
			c.events <- &Rejection{Err: v.Err()}
		default:
			c.shutdown(fmt.Errorf("client: daemon error: %w", v.Err()))
			return false
		}
	}
	return true
}

// ack tells the daemon every delivery up to lastSeq arrived.
func (c *Client) ack(conn net.Conn) {
	c.unacked = 0
	c.writeMu.Lock()
	_ = c.codec.WriteFrame(conn, session.Ack{Seq: c.lastSeq})
	c.writeMu.Unlock()
}

// reconnect redials (Addr, then the fallback Addrs round-robin) and
// resumes. If the daemon no longer knows the session — a restart, or a
// replay window overrun — it falls back to a fresh Connect: the
// Reconnected event then carries Resumed=false and the application must
// re-join its groups.
func (c *Client) reconnect(old net.Conn, cause error) (net.Conn, error) {
	c.dropConn(old)
	addrs := append([]string{c.cfg.Addr}, c.cfg.Addrs...)
	backoff := c.cfg.Backoff
	tryResume := c.resumableNow()
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		select {
		case <-c.done:
			return nil, ErrClosed
		default:
		}
		conn, err := c.cfg.Dialer(c.cfg.Network, addrs[(attempt-1)%len(addrs)])
		if err == nil {
			if tryResume {
				w, herr := c.resumeHandshake(conn)
				if herr == nil {
					c.installConn(conn)
					c.events <- &Reconnected{Attempts: attempt, Resumed: w.Resumed}
					c.ack(conn) // prune the daemon's freshly replayed window
					return conn, nil
				}
				conn.Close()
				if errors.Is(herr, session.ErrSessionUnknown) {
					tryResume = false // fresh session on the next dial
					continue          // no backoff: the daemon answered
				}
			} else {
				w, herr := c.connectHandshake(conn)
				if herr == nil {
					c.adopt(conn, w)
					c.events <- &Reconnected{Attempts: attempt, Resumed: false}
					return conn, nil
				}
				conn.Close()
			}
		}
		select {
		case <-c.done:
			return nil, ErrClosed
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
	return nil, fmt.Errorf("client: reconnect failed after %d attempts: %w", c.cfg.MaxAttempts, cause)
}

func (c *Client) resumableNow() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumable
}

func (c *Client) closingNow() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closing
}

// dropConn clears the current connection (write calls park until the
// next installConn/adopt).
func (c *Client) dropConn(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.mu.Unlock()
}

// installConn publishes a resumed connection (same identity).
func (c *Client) installConn(conn net.Conn) {
	c.mu.Lock()
	c.conn = conn
	c.connGone.Broadcast()
	c.mu.Unlock()
}

func (c *Client) shutdown(err error) {
	c.closeOnce.Do(func() {
		c.closeErr = err
		close(c.done)
		c.mu.Lock()
		if c.conn != nil {
			c.conn.Close()
		}
		c.connGone.Broadcast()
		c.mu.Unlock()
	})
}

// awaitConn returns the current connection, waiting out a reconnect.
func (c *Client) awaitConn() (net.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.conn == nil {
		select {
		case <-c.done:
			return nil, ErrClosed
		default:
		}
		c.connGone.Wait()
	}
	select {
	case <-c.done:
		return nil, ErrClosed
	default:
	}
	return c.conn, nil
}

func (c *Client) write(f session.Frame) error {
	return c.writeWith(func(conn net.Conn) error { return c.codec.WriteFrame(conn, f) })
}

// writeWith runs one frame write on the current connection under writeMu,
// retrying across reconnects.
func (c *Client) writeWith(write func(net.Conn) error) error {
	for {
		conn, err := c.awaitConn()
		if err != nil {
			return err
		}
		c.writeMu.Lock()
		err = write(conn)
		c.writeMu.Unlock()
		if err == nil {
			return nil
		}
		if !c.cfg.Reconnect {
			c.shutdown(err)
			return ErrClosed
		}
		// The write raced a dying connection: let the readLoop
		// re-establish it and retry.
		c.dropConn(conn)
	}
}

// Join adds this client to a group. The resulting agreed view arrives as
// a *View event.
func (c *Client) Join(groupName string) error {
	if !group.ValidGroupName(groupName) {
		return group.ErrBadGroup
	}
	return c.write(session.Join{Group: groupName})
}

// Leave removes this client from a group.
func (c *Client) Leave(groupName string) error {
	if !group.ValidGroupName(groupName) {
		return group.ErrBadGroup
	}
	return c.write(session.Leave{Group: groupName})
}

// SendPrivate sends payload to exactly one client (Spread's private
// messages), still ordered relative to all group traffic. The target's
// ClientID is learned from group views. A target that disconnected comes
// back as a non-fatal *Rejection carrying session.ErrNoRecipient.
func (c *Client) SendPrivate(to group.ClientID, service evs.Service, payload []byte) error {
	if to == (group.ClientID{}) {
		return ErrNeedTarget
	}
	if !service.Valid() {
		return ErrInvalidService
	}
	return c.write(session.Private{To: to, Service: service, Payload: payload})
}

// Multicast sends payload to the members of the given groups with the
// given service level. The sender need not be a member (open groups); if
// it is, it receives its own message in order like everyone else.
func (c *Client) Multicast(service evs.Service, payload []byte, groups ...string) error {
	if len(groups) == 0 || len(groups) > group.MaxGroups {
		return ErrBadGroupCount
	}
	for _, g := range groups {
		if !group.ValidGroupName(g) {
			return group.ErrBadGroup
		}
	}
	if !service.Valid() {
		return ErrInvalidService
	}
	// The per-message write: encoded straight from the Send, not boxed
	// into a Frame.
	s := session.Send{Service: service, Groups: groups, Payload: payload}
	return c.writeWith(func(conn net.Conn) error { return c.codec.WriteSend(conn, &s) })
}

// closeGrace bounds how long Close waits for the daemon to act on the
// Bye before tearing the socket down anyway.
const closeGrace = 250 * time.Millisecond

// Close tears the session down cleanly: a Bye tells the daemon to emit
// the ordered disconnect immediately instead of holding the session for
// resume. The socket is then half-closed, not closed: a full close would
// let any in-flight daemon write elicit a TCP RST, and an RST flushes
// the daemon's receive buffer — discarding a Bye it had not read yet, so
// the daemon would see a crash (detach + resume hold) instead of a clean
// goodbye. With the read side open, Close waits (bounded by closeGrace)
// for the daemon to drop the session and close its end.
func (c *Client) Close() error {
	c.mu.Lock()
	conn := c.conn
	first := !c.closing
	c.closing = true
	c.mu.Unlock()
	if conn != nil && first {
		c.writeMu.Lock()
		conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		_ = c.codec.WriteFrame(conn, session.Bye{})
		conn.SetWriteDeadline(time.Time{})
		c.writeMu.Unlock()
		// TCP and unix sockets support the half-close; anything else
		// (test pipes, chaos wrappers) falls back to an immediate close.
		if cw, ok := conn.(interface{ CloseWrite() error }); ok {
			_ = cw.CloseWrite()
			select {
			case <-c.done:
			case <-time.After(closeGrace):
			}
		}
	}
	c.shutdown(net.ErrClosed)
	return nil
}
