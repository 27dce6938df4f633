// Package session defines the client-daemon protocol: length-prefixed
// binary frames over a stream connection (Unix socket or TCP), mirroring
// Spread's client library model. Clients connect to a local daemon, join
// and leave named groups, send (multi-group) multicasts with a chosen
// service level, and receive ordered messages and group view updates.
package session

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"accelring/internal/evs"
	"accelring/internal/group"
)

// MaxFrame bounds one session frame (headers + payload).
const MaxFrame = 1 << 20

// MaxClientName bounds the client's private name.
const MaxClientName = 64

// Kind discriminates session frames.
type Kind uint8

const (
	// KindConnect (client->daemon) opens a session.
	KindConnect Kind = iota + 1
	// KindJoin (client->daemon) joins a group.
	KindJoin
	// KindLeave (client->daemon) leaves a group.
	KindLeave
	// KindSend (client->daemon) multicasts to one or more groups.
	KindSend
	// KindWelcome (daemon->client) acknowledges Connect with the ID.
	KindWelcome
	// KindMessage (daemon->client) delivers an ordered message.
	KindMessage
	// KindView (daemon->client) announces a group's agreed membership.
	KindView
	// KindError (daemon->client) reports a request failure.
	KindError
	// KindPrivate (client->daemon) sends a point-to-point message to one
	// client, ordered like everything else. Delivery uses KindMessage
	// with no groups.
	KindPrivate
	// KindResume (client->daemon) reopens an existing session after a
	// connection loss, identified by client ID and resume token.
	KindResume
	// KindAck (client->daemon) acknowledges Seqd deliveries up to a
	// sequence number, letting the daemon prune its replay window.
	KindAck
	// KindBye (client->daemon) announces a clean close: the daemon drops
	// the session immediately instead of holding it for resume.
	KindBye
	// KindDetach (daemon->client) announces the daemon is releasing the
	// connection (e.g. a graceful drain); CanResume says whether the
	// session may be picked up again with Resume.
	KindDetach
	// KindThrottle (daemon->client) reports a backpressure tier change:
	// the client should pace itself while On, resume at full rate after
	// an Off.
	KindThrottle
	// KindSeqd (daemon->client) wraps one delivery frame with the
	// session's delivery sequence number for resume/ack bookkeeping.
	KindSeqd
	// KindChallenge (daemon->client) demands fresh proof of key
	// possession before a keyed Resume is honored: the nonce must come
	// back in a ChallengeAck.
	KindChallenge
	// KindChallengeAck (client->daemon) echoes a Challenge nonce; its
	// frame MAC covers the nonce, defeating handshake replay.
	KindChallengeAck
)

// Errors shared by codec users.
var (
	ErrTruncated   = errors.New("session: truncated frame")
	ErrTooLarge    = errors.New("session: frame exceeds limit")
	ErrBadFrame    = errors.New("session: malformed frame")
	ErrNameTooLong = fmt.Errorf("session: client name exceeds %d bytes", MaxClientName)
)

// ErrorCode classifies a daemon-reported failure so the client library can
// map Error frames back to typed errors (errors.Is/As).
type ErrorCode uint8

const (
	// CodeGeneric is an unclassified failure; only Msg describes it.
	CodeGeneric ErrorCode = iota
	// CodeInvalidService rejects an unknown service level.
	CodeInvalidService
	// CodeNotMember rejects an operation requiring group membership.
	CodeNotMember
	// CodeNotReady means the daemon's ring has not formed yet.
	CodeNotReady
	// CodeMembershipChanged means the operation was interrupted by a
	// daemon membership change; OldView/NewView carry the transition.
	CodeMembershipChanged
	// CodeBadRequest rejects a malformed or unexpected request frame.
	CodeBadRequest
	// CodeNoRecipient rejects a Private whose target client is gone.
	// Non-fatal: the session stays up.
	CodeNoRecipient
	// CodeDraining rejects a Connect while the daemon is draining.
	CodeDraining
	// CodeSessionUnknown rejects a Resume the daemon cannot honor: no
	// such session, wrong token, or the replay window has moved past the
	// client's LastSeq.
	CodeSessionUnknown
)

// Connect opens a session.
type Connect struct {
	// Name is the client's private name (diagnostics only).
	Name string
}

// Join and Leave address one group.
type Join struct{ Group string }

// Leave mirrors Join.
type Leave struct{ Group string }

// Send multicasts Payload to the members of Groups with the given service.
type Send struct {
	Service evs.Service
	Groups  []string
	Payload []byte
}

// Welcome acknowledges a Connect or a Resume.
type Welcome struct {
	Client group.ClientID
	// Token is the session's resume secret: presenting it with Resume
	// after a connection loss reattaches to the same session.
	Token uint64
	// Resumed is set when this Welcome answers a Resume rather than a
	// Connect.
	Resumed bool
}

// Message is an ordered delivery.
type Message struct {
	Sender  group.ClientID
	Service evs.Service
	Groups  []string
	Payload []byte
	// Seq is the ring sequence number that ordered this delivery (0 from
	// daemons predating it). It is the cross-node span key of message
	// tracing: a client that knows it can stamp client-side lifecycle
	// stages onto the same span the daemons record. Distinct from the
	// per-session delivery sequence carried by Seqd.
	Seq uint64
}

// View is a group's agreed membership after a change.
type View struct {
	Group   string
	Members []group.ClientID
}

// Error reports a failed request. OldView/NewView are carried only for
// CodeMembershipChanged.
type Error struct {
	Code ErrorCode
	Msg  string
	// OldView and NewView describe a membership transition
	// (CodeMembershipChanged only). NewView may be zero while the new
	// configuration is still forming.
	OldView, NewView evs.ViewID
}

// Sentinel errors the daemon reports through Error frames; Err maps codes
// back to them so callers can branch with errors.Is/As.
var (
	ErrInvalidService = errors.New("session: invalid service level")
	ErrNotReady       = errors.New("session: ring not operational yet")
	ErrNoRecipient    = errors.New("session: private target disconnected")
	ErrDraining       = errors.New("session: daemon is draining")
	ErrSessionUnknown = errors.New("session: cannot resume session")
)

// Err converts the frame into a typed error: sentinels for the fixed
// codes, *evs.MembershipChangedError for membership transitions, and a
// plain error wrapping Msg otherwise.
func (e Error) Err() error {
	switch e.Code {
	case CodeInvalidService:
		return ErrInvalidService
	case CodeNotReady:
		return ErrNotReady
	case CodeNotMember:
		return group.ErrNotMember
	case CodeMembershipChanged:
		return &evs.MembershipChangedError{OldView: e.OldView, NewView: e.NewView}
	case CodeNoRecipient:
		return ErrNoRecipient
	case CodeDraining:
		return ErrDraining
	case CodeSessionUnknown:
		return ErrSessionUnknown
	default:
		return errors.New(e.Msg)
	}
}

// Private sends Payload to exactly one client, in total order.
type Private struct {
	To      group.ClientID
	Service evs.Service
	Payload []byte
}

// Resume reopens the session identified by Client after a connection
// loss. Token must match the secret from the original Welcome; LastSeq
// is the highest Seqd sequence the client has processed, so the daemon
// replays exactly the frames after it.
type Resume struct {
	Client  group.ClientID
	Token   uint64
	LastSeq uint64
}

// Ack acknowledges every Seqd delivery with sequence <= Seq.
type Ack struct{ Seq uint64 }

// ChallengeNonceLen is the size of a resume-challenge nonce.
const ChallengeNonceLen = 16

// Challenge is the daemon's freshness probe during a keyed Resume
// handshake: the per-frame HMAC alone cannot stop an observer from
// replaying a recorded Resume verbatim, so the daemon issues a random
// nonce the client must echo. Only sent on keyed sessions.
type Challenge struct{ Nonce [ChallengeNonceLen]byte }

// ChallengeAck answers a Challenge by echoing its nonce; the frame's
// MAC then covers a value no previously recorded stream contains.
type ChallengeAck struct{ Nonce [ChallengeNonceLen]byte }

// Bye announces a clean client close (no resume intended).
type Bye struct{}

// Detach tells the client the daemon is releasing the connection.
type Detach struct {
	// Reason is a short diagnostic tag ("drain", ...).
	Reason string
	// CanResume says whether Resume will be honored afterwards (by this
	// daemon after a restart, or by a peer).
	CanResume bool
}

// Throttle reports a backpressure tier change for this session. While On
// the client should pace submissions; Queued is the daemon-side queue
// depth at the transition.
type Throttle struct {
	On     bool
	Queued uint32
}

// Seqd wraps one daemon->client delivery with the session's delivery
// sequence number. Frame must be a deliverable kind, never another Seqd.
type Seqd struct {
	Seq   uint64
	Frame Frame
}

// Frame is any session frame.
type Frame interface{ kind() Kind }

func (Connect) kind() Kind  { return KindConnect }
func (Join) kind() Kind     { return KindJoin }
func (Leave) kind() Kind    { return KindLeave }
func (Send) kind() Kind     { return KindSend }
func (Welcome) kind() Kind  { return KindWelcome }
func (Message) kind() Kind  { return KindMessage }
func (View) kind() Kind     { return KindView }
func (Error) kind() Kind    { return KindError }
func (Private) kind() Kind  { return KindPrivate }
func (Resume) kind() Kind   { return KindResume }
func (Ack) kind() Kind      { return KindAck }
func (Bye) kind() Kind      { return KindBye }
func (Detach) kind() Kind   { return KindDetach }
func (Throttle) kind() Kind { return KindThrottle }
func (Seqd) kind() Kind     { return KindSeqd }

func (Challenge) kind() Kind    { return KindChallenge }
func (ChallengeAck) kind() Kind { return KindChallengeAck }

func appendString8(b []byte, s string) []byte {
	b = append(b, byte(len(s)))
	return append(b, s...)
}

func appendGroups(b []byte, groups []string) []byte {
	b = append(b, byte(len(groups)))
	for _, g := range groups {
		b = appendString8(b, g)
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendClientID(b []byte, c group.ClientID) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(c.Daemon))
	return binary.BigEndian.AppendUint32(b, c.Local)
}

func appendViewID(b []byte, v evs.ViewID) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(v.Rep))
	return binary.BigEndian.AppendUint64(b, v.Seq)
}

// Encode serializes a frame body (without the length prefix).
func Encode(f Frame) ([]byte, error) {
	return AppendEncode(nil, f)
}

// AppendEncode serializes a frame body (without the length prefix) onto
// dst and returns the extended slice, so callers with a scratch or pooled
// buffer can encode without a fresh allocation per frame. The MaxFrame
// check covers the appended body only, not dst's existing contents.
func AppendEncode(dst []byte, f Frame) ([]byte, error) {
	start := len(dst)
	b := append(dst, byte(f.kind()))
	switch v := f.(type) {
	case Connect:
		if len(v.Name) > MaxClientName {
			return nil, ErrNameTooLong
		}
		b = appendString8(b, v.Name)
	case Join:
		b = appendString8(b, v.Group)
	case Leave:
		b = appendString8(b, v.Group)
	case Send:
		b = appendSend(b, &v)
	case Welcome:
		b = appendClientID(b, v.Client)
		b = binary.BigEndian.AppendUint64(b, v.Token)
		b = appendBool(b, v.Resumed)
	case Message:
		b = appendMessage(b, &v)
	case View:
		b = appendString8(b, v.Group)
		b = binary.BigEndian.AppendUint16(b, uint16(len(v.Members)))
		for _, m := range v.Members {
			b = appendClientID(b, m)
		}
	case Error:
		b = append(b, byte(v.Code))
		b = appendString8(b, v.Msg)
		if v.Code == CodeMembershipChanged {
			b = appendViewID(b, v.OldView)
			b = appendViewID(b, v.NewView)
		}
	case Private:
		b = appendClientID(b, v.To)
		b = append(b, byte(v.Service))
		b = binary.BigEndian.AppendUint32(b, uint32(len(v.Payload)))
		b = append(b, v.Payload...)
	case Resume:
		b = appendClientID(b, v.Client)
		b = binary.BigEndian.AppendUint64(b, v.Token)
		b = binary.BigEndian.AppendUint64(b, v.LastSeq)
	case Ack:
		b = binary.BigEndian.AppendUint64(b, v.Seq)
	case Bye:
		// Kind byte only.
	case Detach:
		b = appendString8(b, v.Reason)
		b = appendBool(b, v.CanResume)
	case Throttle:
		b = appendBool(b, v.On)
		b = binary.BigEndian.AppendUint32(b, v.Queued)
	case Seqd:
		if v.Frame == nil {
			return nil, fmt.Errorf("%w: empty Seqd", ErrBadFrame)
		}
		if _, nested := v.Frame.(Seqd); nested {
			return nil, fmt.Errorf("%w: nested Seqd", ErrBadFrame)
		}
		b = binary.BigEndian.AppendUint64(b, v.Seq)
		var err error
		if b, err = AppendEncode(b, v.Frame); err != nil {
			return nil, err
		}
	case Challenge:
		b = append(b, v.Nonce[:]...)
	case ChallengeAck:
		b = append(b, v.Nonce[:]...)
	default:
		return nil, fmt.Errorf("session: unknown frame %T", f)
	}
	return bounded(b, start)
}

// bounded applies the MaxFrame check to the body appended at b[start:].
func bounded(b []byte, start int) ([]byte, error) {
	if len(b)-start > MaxFrame {
		return nil, ErrTooLarge
	}
	return b, nil
}

// AppendSend is AppendEncode for a Send, without boxing it into a Frame:
// a client's per-message encode.
func AppendSend(dst []byte, s *Send) ([]byte, error) {
	return bounded(appendSend(append(dst, byte(KindSend)), s), len(dst))
}

// AppendMessage is AppendEncode for a Message, without boxing it into a
// Frame: a daemon's per-delivery encode.
func AppendMessage(dst []byte, m *Message) ([]byte, error) {
	return bounded(appendMessage(append(dst, byte(KindMessage)), m), len(dst))
}

func appendSend(b []byte, s *Send) []byte {
	b = append(b, byte(s.Service))
	b = appendGroups(b, s.Groups)
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Payload)))
	return append(b, s.Payload...)
}

func appendMessage(b []byte, m *Message) []byte {
	b = appendClientID(b, m.Sender)
	b = append(b, byte(m.Service))
	b = binary.BigEndian.AppendUint64(b, m.Seq)
	b = appendGroups(b, m.Groups)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Payload)))
	return append(b, m.Payload...)
}

type cursor struct {
	b   []byte
	off int
	err error
	// names interns decoded group names when set (a Reader's decode);
	// without it every name is a fresh copy.
	names *group.Names
}

func (c *cursor) u8() uint8 {
	if c.err != nil {
		return 0
	}
	if c.off+1 > len(c.b) {
		c.err = ErrTruncated
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u16() uint16 {
	if c.err != nil {
		return 0
	}
	if c.off+2 > len(c.b) {
		c.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *cursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if c.off+4 > len(c.b) {
		c.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

// bool reads a strict boolean: any byte other than 0 or 1 is rejected,
// so every frame has exactly one valid encoding.
func (c *cursor) bool() bool {
	v := c.u8()
	if c.err == nil && v > 1 {
		c.err = ErrBadFrame
	}
	return v == 1
}

// bytes8 reads a one-byte length and that many bytes, aliasing the frame.
func (c *cursor) bytes8() []byte {
	n := int(c.u8())
	if c.err != nil {
		return nil
	}
	if c.off+n > len(c.b) {
		c.err = ErrTruncated
		return nil
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) string8() string { return string(c.bytes8()) }

// groups reads a group list, appending the names to dst (nil for none).
func (c *cursor) groups(dst []string) []string {
	n := int(c.u8())
	if n > group.MaxGroups {
		c.err = ErrBadFrame
		return nil
	}
	if n == 0 {
		return nil
	}
	gs := dst[:0]
	for i := 0; i < n; i++ {
		b := c.bytes8()
		if c.err != nil {
			return nil
		}
		if c.names != nil {
			gs = append(gs, c.names.Name(b))
		} else {
			gs = append(gs, string(b))
		}
	}
	return gs
}

// send decodes a Send's fields into s, its group names appended to groups.
func (c *cursor) send(s *Send, groups []string) {
	s.Service = evs.Service(c.u8())
	s.Groups = c.groups(groups)
	s.Payload = c.payload()
}

// message decodes a Message's fields into m, its group names appended to
// groups.
func (c *cursor) message(m *Message, groups []string) {
	m.Sender = c.clientID()
	m.Service = evs.Service(c.u8())
	m.Seq = c.u64()
	m.Groups = c.groups(groups)
	m.Payload = c.payload()
}

func (c *cursor) clientID() group.ClientID {
	d := c.u32()
	l := c.u32()
	return group.ClientID{Daemon: evs.ProcID(d), Local: l}
}

func (c *cursor) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.b) {
		c.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) nonce() (n [ChallengeNonceLen]byte) {
	if c.err != nil {
		return n
	}
	if c.off+ChallengeNonceLen > len(c.b) {
		c.err = ErrTruncated
		return n
	}
	copy(n[:], c.b[c.off:])
	c.off += ChallengeNonceLen
	return n
}

func (c *cursor) viewID() evs.ViewID {
	rep := c.u32()
	seq := c.u64()
	return evs.ViewID{Rep: evs.ProcID(rep), Seq: seq}
}

func (c *cursor) payload() []byte {
	n := int(c.u32())
	if c.err != nil {
		return nil
	}
	if n > MaxFrame || c.off+n > len(c.b) {
		c.err = ErrTruncated
		return nil
	}
	p := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return p
}

func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("%w: trailing bytes", ErrBadFrame)
	}
	return nil
}

// Decode parses a frame body. Group names are fresh copies and the
// payload aliases b.
func Decode(b []byte) (Frame, error) { return decode(b, nil) }

// decode parses a frame body, interning group names into names when it
// is non-nil.
func decode(b []byte, names *group.Names) (Frame, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	c := &cursor{b: b, off: 1, names: names}
	var f Frame
	switch Kind(b[0]) {
	case KindConnect:
		f = Connect{Name: c.string8()}
	case KindJoin:
		f = Join{Group: c.string8()}
	case KindLeave:
		f = Leave{Group: c.string8()}
	case KindSend:
		var s Send
		c.send(&s, nil)
		f = s
	case KindWelcome:
		f = Welcome{Client: c.clientID(), Token: c.u64(), Resumed: c.bool()}
	case KindMessage:
		var m Message
		c.message(&m, nil)
		f = m
	case KindView:
		g := c.string8()
		n := int(c.u16())
		members := make([]group.ClientID, 0, n)
		for i := 0; i < n && c.err == nil; i++ {
			members = append(members, c.clientID())
		}
		f = View{Group: g, Members: members}
	case KindError:
		e := Error{Code: ErrorCode(c.u8()), Msg: c.string8()}
		if e.Code == CodeMembershipChanged {
			e.OldView = c.viewID()
			e.NewView = c.viewID()
		}
		f = e
	case KindPrivate:
		to := c.clientID()
		svc := evs.Service(c.u8())
		f = Private{To: to, Service: svc, Payload: c.payload()}
	case KindResume:
		f = Resume{Client: c.clientID(), Token: c.u64(), LastSeq: c.u64()}
	case KindAck:
		f = Ack{Seq: c.u64()}
	case KindBye:
		f = Bye{}
	case KindDetach:
		f = Detach{Reason: c.string8(), CanResume: c.bool()}
	case KindThrottle:
		f = Throttle{On: c.bool(), Queued: c.u32()}
	case KindSeqd:
		seq := c.u64()
		if c.err != nil {
			return nil, c.err
		}
		rest := b[c.off:]
		if len(rest) == 0 {
			return nil, ErrTruncated
		}
		if Kind(rest[0]) == KindSeqd {
			return nil, fmt.Errorf("%w: nested Seqd", ErrBadFrame)
		}
		inner, err := decode(rest, names)
		if err != nil {
			return nil, err
		}
		return Seqd{Seq: seq, Frame: inner}, nil
	case KindChallenge:
		f = Challenge{Nonce: c.nonce()}
	case KindChallengeAck:
		f = ChallengeAck{Nonce: c.nonce()}
	default:
		return nil, fmt.Errorf("%w: kind %d", ErrBadFrame, b[0])
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// WriteFrame writes a length-prefixed frame to w as a single Write call
// (see Codec.WriteFrame).
func WriteFrame(w io.Writer, f Frame) error { return Codec{}.WriteFrame(w, f) }

// ReadFrame reads one length-prefixed frame from r (see Codec.ReadFrame).
func ReadFrame(r io.Reader) (Frame, error) { return Codec{}.ReadFrame(r) }

// ReadFramePooled reads one length-prefixed frame from r into a pooled
// buffer (see Codec.ReadFramePooled).
func ReadFramePooled(r io.Reader) (Frame, []byte, error) { return Codec{}.ReadFramePooled(r) }
