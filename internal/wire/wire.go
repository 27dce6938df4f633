// Package wire defines the binary encoding of every frame exchanged by the
// ring protocol: regular tokens, data messages, membership join messages,
// and commit tokens.
//
// All integers are big-endian. Every frame begins with a four-byte header
// (magic, protocol version, frame type). Encoders are append-style so
// callers can reuse buffers; decoders validate lengths and never panic on
// truncated or corrupt input.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"accelring/internal/evs"
)

// Magic identifies accelring frames on the wire.
const Magic uint16 = 0xAC47

// Version is the wire protocol version emitted by this implementation.
const Version uint8 = 1

// FrameType discriminates the frame kinds carried on the wire.
type FrameType uint8

const (
	// FrameToken is the regular-token frame (ordering protocol).
	FrameToken FrameType = iota + 1
	// FrameData is a data (application message) frame.
	FrameData
	// FrameJoin is a membership join/attempt frame.
	FrameJoin
	// FrameCommit is a membership commit-token frame.
	FrameCommit
)

func (t FrameType) String() string {
	switch t {
	case FrameToken:
		return "token"
	case FrameData:
		return "data"
	case FrameJoin:
		return "join"
	case FrameCommit:
		return "commit"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// Limits protect decoders from hostile or corrupt length fields.
const (
	// MaxRtr is the maximum number of retransmission requests one token
	// may carry.
	MaxRtr = 4096
	// MaxPayload is the maximum data-message payload, sized to fit a
	// 64 KiB UDP datagram with headers to spare.
	MaxPayload = 64 * 1024
	// MaxMembers is the maximum configuration size.
	MaxMembers = 1024
)

// Decode errors. Callers match with errors.Is.
var (
	ErrTruncated = errors.New("wire: truncated frame")
	ErrBadMagic  = errors.New("wire: bad magic")
	ErrBadFrame  = errors.New("wire: malformed frame")
	ErrVersion   = errors.New("wire: unsupported protocol version")
)

const headerLen = 4

func appendHeader(b []byte, t FrameType) []byte {
	b = binary.BigEndian.AppendUint16(b, Magic)
	b = append(b, Version, byte(t))
	return b
}

// PeekType returns the frame type of an encoded frame without decoding it.
func PeekType(b []byte) (FrameType, error) {
	if len(b) < headerLen {
		return 0, ErrTruncated
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return 0, ErrBadMagic
	}
	if b[2] != Version {
		return 0, fmt.Errorf("%w: %d", ErrVersion, b[2])
	}
	return FrameType(b[3]), nil
}

// reader is a cursor over an encoded frame body.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(r.b)-r.off)
	}
	return nil
}

// init points r at the frame's body after validating the header. It exists
// separately from newReader so the hot-path DecodeFrom methods can use a
// stack-allocated reader value (a heap-returned *reader costs an
// allocation per decoded frame).
func (r *reader) init(b []byte, want FrameType) error {
	t, err := PeekType(b)
	if err != nil {
		return err
	}
	if t != want {
		return fmt.Errorf("%w: got %v, want %v", ErrBadFrame, t, want)
	}
	r.b = b
	r.off = headerLen
	r.err = nil
	return nil
}

func newReader(b []byte, want FrameType) (*reader, error) {
	r := new(reader)
	if err := r.init(b, want); err != nil {
		return nil, err
	}
	return r, nil
}

func appendViewID(b []byte, v evs.ViewID) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(v.Rep))
	b = binary.BigEndian.AppendUint64(b, v.Seq)
	return b
}

func (r *reader) viewID() evs.ViewID {
	rep := r.u32()
	seq := r.u64()
	return evs.ViewID{Rep: evs.ProcID(rep), Seq: seq}
}

// Token is the regular token circulating the ring. It carries everything
// needed to order new messages, detect loss, and run flow control.
type Token struct {
	// RingID identifies the configuration this token belongs to. Tokens
	// from other rings are discarded.
	RingID evs.ViewID
	// TokenSeq increases by one on every hop, so a participant can discard
	// duplicate tokens caused by token retransmission.
	TokenSeq uint32
	// Round counts complete rotations; the representative increments it.
	Round uint64
	// Seq is the highest sequence number assigned to any message. The
	// receiver may initiate messages starting at Seq+1.
	Seq uint64
	// Aru (all-received-up-to) is the highest sequence number such that
	// every participant is known to have received all messages at or below
	// it, per the lowering/raising rules of the protocol.
	Aru uint64
	// AruID is the participant that last lowered Aru, or 0 if Aru is not
	// currently lowered. Only AruID may raise a lowered Aru.
	AruID evs.ProcID
	// Fcc (flow control count) is the total number of multicasts —
	// new messages plus retransmissions — sent during the last rotation.
	Fcc uint32
	// Rtr lists sequence numbers that some participant is missing and that
	// must be retransmitted.
	Rtr []uint64
}

// AppendTo appends the encoded token to b and returns the extended slice.
func (t *Token) AppendTo(b []byte) []byte {
	b = appendHeader(b, FrameToken)
	b = appendViewID(b, t.RingID)
	b = binary.BigEndian.AppendUint32(b, t.TokenSeq)
	b = binary.BigEndian.AppendUint64(b, t.Round)
	b = binary.BigEndian.AppendUint64(b, t.Seq)
	b = binary.BigEndian.AppendUint64(b, t.Aru)
	b = binary.BigEndian.AppendUint32(b, uint32(t.AruID))
	b = binary.BigEndian.AppendUint32(b, t.Fcc)
	b = binary.BigEndian.AppendUint32(b, uint32(len(t.Rtr)))
	for _, s := range t.Rtr {
		b = binary.BigEndian.AppendUint64(b, s)
	}
	return b
}

// EncodedLen returns the exact encoded size of the token.
func (t *Token) EncodedLen() int { return headerLen + 12 + 4 + 8*3 + 4 + 4 + 4 + 8*len(t.Rtr) }

// DecodeToken parses an encoded token frame into a fresh Token.
func DecodeToken(b []byte) (*Token, error) {
	var t Token
	if err := t.DecodeFrom(b); err != nil {
		return nil, err
	}
	return &t, nil
}

// DecodeFrom parses an encoded token frame into t, reusing t's Rtr backing
// array when it has the capacity (the scratch-decode hot path: one Token
// per receiver, reused for every frame). Nothing in the decoded token
// aliases b, so the frame buffer may be recycled as soon as DecodeFrom
// returns. On error t is left in an unspecified state.
func (t *Token) DecodeFrom(b []byte) error {
	var r reader
	if err := r.init(b, FrameToken); err != nil {
		return err
	}
	t.RingID = r.viewID()
	t.TokenSeq = r.u32()
	t.Round = r.u64()
	t.Seq = r.u64()
	t.Aru = r.u64()
	t.AruID = evs.ProcID(r.u32())
	t.Fcc = r.u32()
	n := r.u32()
	if n > MaxRtr {
		return fmt.Errorf("%w: rtr count %d exceeds %d", ErrBadFrame, n, MaxRtr)
	}
	t.Rtr = t.Rtr[:0]
	for i := uint32(0); i < n; i++ {
		t.Rtr = append(t.Rtr, r.u64())
	}
	return r.done()
}

// Data flag bits.
const (
	// FlagPostToken marks a message multicast after its sender passed the
	// token for the round (used by token-priority method 2).
	FlagPostToken uint8 = 1 << iota
	// FlagRetrans marks a retransmission.
	FlagRetrans
	// FlagControl marks a protocol-internal message (membership recovery
	// traffic); it is consumed by the membership layer, never delivered to
	// applications.
	FlagControl
)

// Data is an application message multicast on the ring. The sequence number
// is final at send time: the message occupies position Seq in the total
// order of configuration RingID.
type Data struct {
	RingID  evs.ViewID
	Seq     uint64
	Sender  evs.ProcID
	Round   uint64
	Service evs.Service
	Flags   uint8
	Payload []byte
	// Frame is the received frame Payload aliases, when the receiver
	// decoded it zero-copy and hands the frame over with the message
	// (membership.Machine.HandleDataFrame), or the payload of a message
	// its sender submitted owned (core.Engine.SubmitHeld); nil otherwise.
	// It is never encoded.
	Frame []byte
}

// PostToken reports whether the message was sent after the token.
func (d *Data) PostToken() bool { return d.Flags&FlagPostToken != 0 }

// Retrans reports whether the message is a retransmission.
func (d *Data) Retrans() bool { return d.Flags&FlagRetrans != 0 }

// Control reports whether the message is protocol-internal.
func (d *Data) Control() bool { return d.Flags&FlagControl != 0 }

// AppendTo appends the encoded data frame to b and returns the result.
func (d *Data) AppendTo(b []byte) []byte {
	b = appendHeader(b, FrameData)
	b = appendViewID(b, d.RingID)
	b = binary.BigEndian.AppendUint64(b, d.Seq)
	b = binary.BigEndian.AppendUint32(b, uint32(d.Sender))
	b = binary.BigEndian.AppendUint64(b, d.Round)
	b = append(b, byte(d.Service), d.Flags)
	b = binary.BigEndian.AppendUint32(b, uint32(len(d.Payload)))
	b = append(b, d.Payload...)
	return b
}

// EncodedLen returns the exact encoded size of the data frame.
func (d *Data) EncodedLen() int { return headerLen + 12 + 8 + 4 + 8 + 2 + 4 + len(d.Payload) }

// DataOverhead is the number of header bytes a data frame adds on top of
// its payload.
const DataOverhead = headerLen + 12 + 8 + 4 + 8 + 2 + 4

// DecodeData parses an encoded data frame into a fresh Data whose Payload
// is copied out of b: the returned message owns its memory, so the frame
// buffer may be recycled (or mutated) freely afterwards. This is the safe
// mode for callers that retain the decoded message indefinitely. Hot paths
// that control the frame's lifetime should use (*Data).DecodeFrom, the
// zero-copy mode.
func DecodeData(b []byte) (*Data, error) {
	var d Data
	if err := d.DecodeFrom(b); err != nil {
		return nil, err
	}
	if len(d.Payload) > 0 {
		d.Payload = append([]byte(nil), d.Payload...)
	}
	return &d, nil
}

// DecodeFrom parses an encoded data frame into d, zero-copy: d.Payload
// aliases b's payload region, no bytes are copied. Ownership rules:
//
//   - b must not be mutated or recycled (bufpool.Put) while d.Payload —
//     or anything it was handed to — is still referenced. Passing d to
//     core.Engine.HandleData transfers ownership of the payload (and
//     hence the frame) to the engine when it reports the message
//     buffered. With d.Frame set to b, the engine hands the frame back
//     (core.Releaser) once the message is stable and delivered; from
//     then on the receiver decides when b is free (ringnode.Step).
//   - d itself does not retain b beyond Payload; all other fields are
//     copied out (Frame is left as it was), and d may be reused as a
//     decode scratch for the next frame once the previous payload's
//     ownership has been handed off.
//
// On error d is left in an unspecified state.
func (d *Data) DecodeFrom(b []byte) error {
	var r reader
	if err := r.init(b, FrameData); err != nil {
		return err
	}
	d.RingID = r.viewID()
	d.Seq = r.u64()
	d.Sender = evs.ProcID(r.u32())
	d.Round = r.u64()
	d.Service = evs.Service(r.u8())
	d.Flags = r.u8()
	n := r.u32()
	if n > MaxPayload {
		return fmt.Errorf("%w: payload %d exceeds %d", ErrBadFrame, n, MaxPayload)
	}
	d.Payload = r.bytes(int(n))
	if err := r.done(); err != nil {
		return err
	}
	if !d.Service.Valid() {
		return fmt.Errorf("%w: invalid service %d", ErrBadFrame, d.Service)
	}
	return nil
}

// Join is the membership message broadcast while a participant attempts to
// form a new ring. It states which participants the sender currently
// considers reachable and which it has declared failed.
type Join struct {
	// Sender is the participant broadcasting the join.
	Sender evs.ProcID
	// Alive lists participants the sender believes are reachable and
	// participating in this membership attempt (including itself).
	Alive []evs.ProcID
	// Failed lists participants the sender has declared failed; they are
	// excluded even if their joins are heard.
	Failed []evs.ProcID
	// RingSeq is the highest configuration sequence number the sender has
	// seen, so the new ring's ViewID exceeds every old one.
	RingSeq uint64
	// Attempt distinguishes successive membership attempts by the sender.
	Attempt uint32
}

func appendIDSet(b []byte, set []evs.ProcID) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(set)))
	for _, p := range set {
		b = binary.BigEndian.AppendUint32(b, uint32(p))
	}
	return b
}

func (r *reader) idSet() []evs.ProcID {
	n := r.u16()
	if int(n) > MaxMembers {
		r.err = fmt.Errorf("%w: id set %d exceeds %d", ErrBadFrame, n, MaxMembers)
		return nil
	}
	if n == 0 || r.err != nil {
		return nil
	}
	set := make([]evs.ProcID, n)
	for i := range set {
		set[i] = evs.ProcID(r.u32())
	}
	return set
}

// AppendTo appends the encoded join frame to b and returns the result.
func (j *Join) AppendTo(b []byte) []byte {
	b = appendHeader(b, FrameJoin)
	b = binary.BigEndian.AppendUint32(b, uint32(j.Sender))
	b = appendIDSet(b, j.Alive)
	b = appendIDSet(b, j.Failed)
	b = binary.BigEndian.AppendUint64(b, j.RingSeq)
	b = binary.BigEndian.AppendUint32(b, j.Attempt)
	return b
}

// DecodeJoin parses an encoded join frame.
func DecodeJoin(b []byte) (*Join, error) {
	r, err := newReader(b, FrameJoin)
	if err != nil {
		return nil, err
	}
	var j Join
	j.Sender = evs.ProcID(r.u32())
	j.Alive = r.idSet()
	j.Failed = r.idSet()
	j.RingSeq = r.u64()
	j.Attempt = r.u32()
	if err := r.done(); err != nil {
		return nil, err
	}
	return &j, nil
}

// CommitInfo is the per-member state gathered on the commit token's first
// rotation, used to plan old-ring message recovery.
type CommitInfo struct {
	// PID is the member this entry describes.
	PID evs.ProcID
	// OldRing is the member's previous regular configuration.
	OldRing evs.ViewID
	// Aru is the member's local all-received-up-to in the old ring.
	Aru uint64
	// HighSeq is the highest sequence number the member received or
	// assigned in the old ring.
	HighSeq uint64
	// HighDelivered is the highest sequence the member already delivered.
	HighDelivered uint64
	// Received is set once the member has seen the commit token.
	Received bool
}

// Commit is the membership commit token passed around the agreed new
// membership. Two full rotations commit the new ring: the first gathers
// CommitInfo, the second confirms everyone saw it.
type Commit struct {
	// NewRing is the configuration being formed.
	NewRing evs.Configuration
	// Seq orders commit token hops (duplicate suppression).
	Seq uint32
	// Rotation is 1 on the gathering rotation, 2 on the confirming one.
	Rotation uint8
	// Info has one entry per member of NewRing, in ring order.
	Info []CommitInfo
}

// AppendTo appends the encoded commit frame to b and returns the result.
func (c *Commit) AppendTo(b []byte) []byte {
	b = appendHeader(b, FrameCommit)
	b = appendViewID(b, c.NewRing.ID)
	b = appendIDSet(b, c.NewRing.Members)
	b = binary.BigEndian.AppendUint32(b, c.Seq)
	b = append(b, c.Rotation)
	b = binary.BigEndian.AppendUint16(b, uint16(len(c.Info)))
	for i := range c.Info {
		in := &c.Info[i]
		b = binary.BigEndian.AppendUint32(b, uint32(in.PID))
		b = appendViewID(b, in.OldRing)
		b = binary.BigEndian.AppendUint64(b, in.Aru)
		b = binary.BigEndian.AppendUint64(b, in.HighSeq)
		b = binary.BigEndian.AppendUint64(b, in.HighDelivered)
		var rcv byte
		if in.Received {
			rcv = 1
		}
		b = append(b, rcv)
	}
	return b
}

// DecodeCommit parses an encoded commit frame.
func DecodeCommit(b []byte) (*Commit, error) {
	r, err := newReader(b, FrameCommit)
	if err != nil {
		return nil, err
	}
	var c Commit
	id := r.viewID()
	members := r.idSet()
	c.NewRing = evs.Configuration{ID: id, Members: members}
	c.Seq = r.u32()
	c.Rotation = r.u8()
	n := r.u16()
	if int(n) > MaxMembers {
		return nil, fmt.Errorf("%w: info count %d exceeds %d", ErrBadFrame, n, MaxMembers)
	}
	c.Info = make([]CommitInfo, n)
	for i := range c.Info {
		in := &c.Info[i]
		in.PID = evs.ProcID(r.u32())
		in.OldRing = r.viewID()
		in.Aru = r.u64()
		in.HighSeq = r.u64()
		in.HighDelivered = r.u64()
		in.Received = r.u8() != 0
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &c, nil
}
