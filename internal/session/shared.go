package session

import (
	"sync"
	"sync/atomic"

	"accelring/internal/bufpool"
)

// Shared is a refcounted, pool-backed, pre-encoded frame body shared by
// several sessions' outboxes: when a daemon fans one delivered group
// message out to N member sessions, the inner frame (a Message, most of
// the time) is encoded exactly once here and every outbox queues a
// reference instead of re-encoding per subscriber. The per-session parts
// that differ — the length prefix, the Seqd sequence number, and (keyed)
// the MAC — are tiny and live in per-writer scratch, so the payload bytes
// are written to every subscriber straight from this one buffer.
//
// Lifecycle: NewShared returns the body with one reference owned by the
// creator. Each outbox that queues the body takes its own reference
// (Ref) and releases it (Unref) when the frame finally leaves its send
// window — on ack, window eviction, resume fast-forward, or session
// shutdown — never merely on write, because a reconnecting client may
// need the bytes re-sent; a writer holds one more per frame for the
// duration of a write. The creator drops its reference after the
// fan-out loop. The last Unref returns the buffer to
// bufpool and the Shared itself to an internal pool.
//
// The encoded bytes are immutable for the Shared's whole life; Bytes
// must not be written to or retained past the caller's reference.
type Shared struct {
	buf  []byte
	refs atomic.Int32
}

var sharedPool = sync.Pool{New: func() any { return new(Shared) }}

// sharedLive counts Shareds whose buffer has not been released yet. It
// exists for leak gates: after any amount of fan-out, churn, and
// reconnect, a quiesced daemon must settle back to the value observed
// before (every reference eventually dropped).
var sharedLive atomic.Int64

// SharedLive returns the number of live (unreleased) shared buffers.
func SharedLive() int64 { return sharedLive.Load() }

// sharedEncodeScratch is the rent size for a shared body when the frame's
// encoded size is not known up front; bodies that outgrow it just grow
// past the pooled backing (append) and are recycled under the larger
// capacity class on release.
const sharedEncodeScratch = 2048

// NewShared encodes f once into a pooled buffer and returns it with one
// reference (the creator's). f must be a deliverable frame, never a Seqd:
// the per-session Seqd wrapper is what stays out of the shared bytes.
func NewShared(f Frame) (*Shared, error) {
	switch v := f.(type) {
	case Seqd:
		return nil, ErrBadFrame
	case Message:
		return NewSharedMessage(&v)
	}
	buf := bufpool.Get(sharedEncodeScratch)[:0]
	b, err := AppendEncode(buf, f)
	return share(buf, b, err)
}

// NewSharedMessage is NewShared for a Message, without boxing it into a
// Frame: a daemon's per-delivery encode.
func NewSharedMessage(m *Message) (*Shared, error) {
	buf := bufpool.Get(max(sharedEncodeScratch, len(m.Payload)+64))[:0]
	b, err := AppendMessage(buf, m)
	return share(buf, b, err)
}

// share wraps an encoded body — b, grown from the pooled buf, or the
// encode's err — in a Shared holding the creator's reference.
func share(buf, b []byte, err error) (*Shared, error) {
	if err != nil {
		bufpool.Put(buf)
		return nil, err
	}
	s := sharedPool.Get().(*Shared)
	s.buf = b
	s.refs.Store(1)
	sharedLive.Add(1)
	return s, nil
}

// Bytes returns the encoded frame body (no length prefix, no Seqd
// wrapper, no MAC). Read-only; valid only while the caller holds a
// reference.
func (s *Shared) Bytes() []byte { return s.buf }

// Len returns the encoded body length.
func (s *Shared) Len() int { return len(s.buf) }

// Ref takes one additional reference.
func (s *Shared) Ref() { s.refs.Add(1) }

// Unref drops one reference; the last one returns the buffer to bufpool
// and recycles the Shared.
func (s *Shared) Unref() {
	if n := s.refs.Add(-1); n == 0 {
		b := s.buf
		s.buf = nil
		sharedLive.Add(-1)
		bufpool.Put(b)
		sharedPool.Put(s)
	} else if n < 0 {
		panic("session: Shared over-released")
	}
}
