package pack

import (
	"fmt"
	"time"
)

// DefaultMaxDelay bounds how long an open bundle may wait for companions
// before it is flushed regardless of backlog. One millisecond is on the
// order of a token rotation under load, so the bound is invisible next to
// ordering latency.
const DefaultMaxDelay = time.Millisecond

// Adaptive accumulates small messages into bundles under the control of
// its driver: the driver decides when to hold (backlog present) and when
// to flush (batch full, class change, latency bound, or a protocol event
// that must observe everything submitted so far). One bundle is open at
// a time, tagged with the service class of its messages — classes are
// never mixed, since unpacked messages inherit the bundle's delivery
// guarantee. A bundle holds at most DefaultLimit bytes and MaxMessages
// messages, and waits at most DefaultMaxDelay. Not safe for concurrent
// use.
type Adaptive struct {
	p     *Packer
	svc   uint8
	since time.Time
}

// NewAdaptive returns an empty bundler.
func NewAdaptive() *Adaptive {
	return &Adaptive{p: NewPacker(DefaultLimit)}
}

// Empty reports whether no bundle is open.
func (a *Adaptive) Empty() bool { return a.p.Count() == 0 }

// Service returns the service class of the open bundle (meaningless when
// Empty).
func (a *Adaptive) Service() uint8 { return a.svc }

// Since returns when the open bundle's first message was staged (the
// start of its hold; meaningless when Empty). Latency attribution
// backdates the pack stage of sampled spans to it.
func (a *Adaptive) Since() time.Time { return a.since }

// Expired reports whether the open bundle has waited past
// DefaultMaxDelay.
func (a *Adaptive) Expired(now time.Time) bool {
	return a.p.Count() > 0 && now.Sub(a.since) >= DefaultMaxDelay
}

// Oversize reports whether a payload of n bytes can never join a bundle
// and must be framed solo (see AppendSolo).
func (a *Adaptive) Oversize(n int) bool {
	return headerLen+perMsgLen+n > DefaultLimit
}

// Add appends a payload of service class svc to the open bundle. It
// returns false when the payload cannot join — bundle full, message cap
// reached, or service mismatch — in which case the caller must Flush and
// retry. Oversize payloads (see Oversize) are rejected with false
// forever; callers frame those with AppendSolo instead.
func (a *Adaptive) Add(payload []byte, svc uint8, now time.Time) bool {
	if a.p.Count() > 0 && svc != a.svc {
		return false
	}
	ok, err := a.p.Add(payload)
	if err != nil || !ok {
		return false
	}
	if a.p.Count() == 1 {
		a.svc = svc
		a.since = now
	}
	return true
}

// Flush closes the open bundle and returns its encoding (nil when
// Empty). The caller owns the returned slice.
func (a *Adaptive) Flush() []byte { return a.p.Flush() }

// SoloOverhead is how many framing bytes AppendSolo adds to a payload.
const SoloOverhead = headerLen + perMsgLen

// AppendSolo appends a single-message bundle framing payload to dst and
// returns the extended slice. Unlike Packer, it ignores any size limit:
// it exists so oversize payloads can share the bundle wire format when a
// ring runs with packing enabled (every data payload is then a bundle,
// and the magic byte is unambiguous).
func AppendSolo(dst, payload []byte) []byte {
	dst = append(dst, Magic, 0, 1)
	dst = appendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// Each visits every message of bundle b in packing order without
// allocating. It returns ErrCorrupt (wrapped) on malformed input; fn is
// not called again after an error is detected, but messages visited
// before the corruption stand.
func Each(b []byte, fn func(msg []byte)) error {
	if len(b) < headerLen || b[0] != Magic {
		return ErrCorrupt
	}
	count := int(uint16(b[1])<<8 | uint16(b[2]))
	if count == 0 || count > MaxMessages {
		return fmt.Errorf("%w: count %d", ErrCorrupt, count)
	}
	off := headerLen
	for i := 0; i < count; i++ {
		if off+perMsgLen > len(b) {
			return fmt.Errorf("%w: truncated length at message %d", ErrCorrupt, i)
		}
		n := int(uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3]))
		off += perMsgLen
		if n < 0 || off+n > len(b) {
			return fmt.Errorf("%w: truncated payload at message %d", ErrCorrupt, i)
		}
		fn(b[off : off+n : off+n])
		off += n
	}
	if off != len(b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-off)
	}
	return nil
}

func appendUint32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
