package session

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"

	"accelring/internal/bufpool"
	"accelring/internal/group"
	"accelring/internal/wire"
)

// ErrAuth reports a frame whose authentication tag did not verify — a
// forged or corrupted frame, or a key mismatch between client and daemon.
var ErrAuth = errors.New("session: frame failed authentication")

// Codec frames session traffic on one connection, optionally
// authenticating every frame with a truncated HMAC-SHA256 tag (the same
// construction the ring's wire transport uses, see wire.Auth). The zero
// Codec is the plain protocol; NewCodec with a key appends a wire.MacLen
// tag to each frame body and rejects inbound frames whose tag does not
// verify.
//
// The tag sits inside the length prefix, so a keyed and an unkeyed
// endpoint detect the mismatch on the first frame instead of desyncing
// the stream.
type Codec struct {
	auth *wire.Auth
}

// NewCodec returns a codec for key; an empty key yields the plain codec.
func NewCodec(key []byte) Codec { return Codec{auth: wire.NewAuth(key)} }

// Keyed reports whether the codec authenticates frames.
func (c Codec) Keyed() bool { return c.auth != nil }

// Auth exposes the codec's authenticator (nil when unkeyed), for writers
// that assemble frames from discontiguous parts and need to compute the
// tag themselves (wire.Auth.SumParts).
func (c Codec) Auth() *wire.Auth { return c.auth }

// Overhead is the per-frame byte cost of authentication: wire.MacLen when
// keyed, zero otherwise.
func (c Codec) Overhead() int { return c.auth.Overhead() }

// writeScratch is the pooled rent size for one-shot frame writes: large
// enough that handshake and control frames encode without growing past
// the pooled backing.
const writeScratch = 1024

// WriteFrame writes one length-prefixed (and, when keyed, authenticated)
// frame to w as a single Write call. Header and body are assembled in one
// pooled buffer: two Write syscalls per frame would double the syscall
// bill of every handshake and control frame, and a split header/body
// write lets the kernel emit a 4-byte TCP segment under TCP_NODELAY.
func (c Codec) WriteFrame(w io.Writer, f Frame) error {
	buf := bufpool.Get(writeScratch)[:4]
	b, err := AppendEncode(buf, f)
	return c.write(w, buf, b, err)
}

// WriteSend is WriteFrame for a Send, without boxing it into a Frame.
func (c Codec) WriteSend(w io.Writer, s *Send) error {
	buf := bufpool.Get(writeScratch)[:4]
	b, err := AppendSend(buf, s)
	return c.write(w, buf, b, err)
}

// write finishes a frame encoded after buf's 4-byte length slot — b is
// the grown buffer, err the encode's result — and writes it, returning
// the buffer to the pool either way.
func (c Codec) write(w io.Writer, buf, b []byte, err error) error {
	if err != nil {
		bufpool.Put(buf)
		return err
	}
	if c.auth != nil {
		b = c.auth.SumParts(b, b[4:])
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	_, err = w.Write(b)
	bufpool.Put(b)
	return err
}

// ReadFrame reads one frame from r, verifying the tag when keyed. The
// frame owns its backing: a pooled buffer it never gives back. Use
// ReadFramePooled on hot paths.
func (c Codec) ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := c.ReadFramePooled(r)
	return f, err
}

// ReadFramePooled reads one frame from r into a buffer rented from bufpool
// (verifying the tag when keyed) and returns the frame together with that
// buffer. It reads exactly the frame's bytes and no more, which is what a
// handshake needs: whatever follows stays on the connection for the
// session's Reader. Zero-copy fields of the decoded frame
// (Message.Payload and friends) alias buf, so the caller owns buf under
// the retained-or-Put convention: bufpool.Put(buf) once the frame is
// fully consumed, or let the garbage collector reclaim it when a payload
// escapes. Never both.
func (c Codec) ReadFramePooled(r io.Reader) (Frame, []byte, error) {
	var hdr [4]byte
	body, buf, err := c.readBody(r, &hdr)
	if err != nil {
		return nil, nil, err
	}
	f, err := Decode(body)
	if err != nil {
		bufpool.Put(buf)
		return nil, nil, err
	}
	return f, buf, nil
}

// readBody reads one length-prefixed frame into a pooled buffer, using
// hdr as the length prefix's scratch, and returns its verified body (the
// tag stripped) together with the buffer to recycle.
func (c Codec) readBody(r io.Reader, hdr *[4]byte) (body, buf []byte, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > uint32(MaxFrame+c.Overhead()) {
		return nil, nil, ErrTooLarge
	}
	buf = bufpool.Get(int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		bufpool.Put(buf)
		return nil, nil, err
	}
	body = buf
	if c.auth != nil {
		var ok bool
		if body, ok = c.auth.Verify(buf); !ok {
			bufpool.Put(buf)
			return nil, nil, ErrAuth
		}
	}
	return body, buf, nil
}

// readBufSize is a Reader's read buffer: one read takes in a full
// daemon writer batch of delivery frames and more.
const readBufSize = 64 << 10

// Reader reads one connection's inbound frames into pooled buffers without
// the per-frame allocations of ReadFramePooled: it keeps the length
// prefix's scratch, interns the group names the connection carries, and
// decodes the two per-message kinds unboxed — a Send into the reader's own
// scratch, a sequenced Message into the caller's struct
// (DecodeSeqdMessage).
//
// A Reader reads its connection a burst at a time through one buffered
// reader, so a run of small frames costs one read syscall, not two per
// frame. It therefore belongs to one connection at a time: reading from a
// different source (a reconnect) drops whatever the previous one left
// buffered. Sources are told apart with ==, so they must be comparable;
// a connection is. One goroutine owns a Reader.
type Reader struct {
	codec  Codec
	src    io.Reader
	br     *bufio.Reader
	hdr    [4]byte
	names  group.Names
	send   Send
	groups [group.MaxGroups]string
}

// NewReader returns a Reader for connections framed by c. Its read buffer
// is allocated on the first read.
func (c Codec) NewReader() *Reader { return &Reader{codec: c} }

// ReadBody reads one frame from src into a pooled buffer and returns its
// verified body, undecoded, with the buffer under ReadFramePooled's
// convention.
func (r *Reader) ReadBody(src io.Reader) (body, buf []byte, err error) {
	switch {
	case r.br == nil:
		r.br = bufio.NewReaderSize(src, readBufSize)
	case src != r.src:
		r.br.Reset(src)
	}
	r.src = src
	return r.codec.readBody(r.br, &r.hdr)
}

// Read is ReadFramePooled through the reader (see Decode).
func (r *Reader) Read(src io.Reader) (Frame, []byte, error) {
	body, buf, err := r.ReadBody(src)
	if err != nil {
		return nil, nil, err
	}
	f, err := r.Decode(body)
	if err != nil {
		bufpool.Put(buf)
		return nil, nil, err
	}
	return f, buf, nil
}

// Decode is the package's Decode with group names interned. A Send comes
// back as a *Send in the reader's scratch, valid until the next Decode.
func (r *Reader) Decode(body []byte) (Frame, error) {
	if len(body) == 0 || Kind(body[0]) != KindSend {
		return decode(body, &r.names)
	}
	c := cursor{b: body, off: 1, names: &r.names}
	c.send(&r.send, r.groups[:0])
	if err := c.done(); err != nil {
		return nil, err
	}
	return &r.send, nil
}

// IsSeqdMessage reports whether body is a sequenced Message: the frame
// every delivery arrives in.
func IsSeqdMessage(body []byte) bool {
	return len(body) > 9 && Kind(body[0]) == KindSeqd && Kind(body[9]) == KindMessage
}

// DecodeSeqdMessage decodes a body IsSeqdMessage accepts into *m and
// returns its delivery sequence. The interned group names are appended to
// m.Groups[:0], so room the caller leaves there saves an allocation;
// Payload aliases body.
func (r *Reader) DecodeSeqdMessage(body []byte, m *Message) (seq uint64, err error) {
	c := cursor{b: body, off: 1, names: &r.names}
	seq = c.u64()
	c.off++ // the inner kind, which IsSeqdMessage checked
	c.message(m, m.Groups[:0])
	return seq, c.done()
}
