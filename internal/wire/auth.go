package wire

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"hash"
	"sync"
)

// MacLen is the length of the truncated HMAC-SHA256 tag appended to
// authenticated frames. 16 bytes (128 bits) keeps the wire overhead small
// while leaving forgery attempts hopeless; truncating HMAC output is an
// explicitly supported use (RFC 2104 §5).
const MacLen = 16

// Auth signs and verifies frames with a truncated HMAC-SHA256 trailer. A
// nil *Auth is the "authentication off" mode: Sign and Verify pass frames
// through unchanged, so callers can hold one pointer and never branch.
//
// Methods are safe for concurrent use: each call takes a keyed MAC state
// of its own from a pool and resets it, so a frame costs neither an
// allocation nor the two key-pad compressions a fresh HMAC would.
type Auth struct {
	key  []byte
	macs sync.Pool // of *mac
}

// mac is one reusable HMAC-SHA256 state under an Auth's key, with room
// for its sum.
type mac struct {
	h   hash.Hash
	sum [sha256.Size]byte
}

// NewAuth returns an authenticator for key, or nil when key is empty
// (authentication disabled).
func NewAuth(key []byte) *Auth {
	if len(key) == 0 {
		return nil
	}
	a := &Auth{key: append([]byte(nil), key...)}
	a.macs.New = func() any { return &mac{h: hmac.New(sha256.New, a.key)} }
	return a
}

// sum appends the truncated tag of the concatenation of parts to dst,
// computed in a pooled MAC state.
func (a *Auth) sum(dst []byte, parts ...[]byte) []byte {
	m := a.macs.Get().(*mac)
	m.h.Reset()
	for _, p := range parts {
		m.h.Write(p)
	}
	dst = append(dst, m.h.Sum(m.sum[:0])[:MacLen]...)
	a.macs.Put(m)
	return dst
}

// Overhead returns the per-frame byte cost of authentication: MacLen when
// keyed, zero when a is nil.
func (a *Auth) Overhead() int {
	if a == nil {
		return 0
	}
	return MacLen
}

// AppendMAC appends frame followed by its authentication tag to dst and
// returns the extended slice. With a nil receiver only the frame is
// appended.
func (a *Auth) AppendMAC(dst, frame []byte) []byte {
	dst = append(dst, frame...)
	if a == nil {
		return dst
	}
	return a.sum(dst, frame)
}

// SumParts appends the authentication tag of the concatenation of parts
// to dst and returns the extended slice. It lets a caller MAC a frame
// assembled from discontiguous pieces (a per-session header plus a shared
// encode-once body) without first copying them together. With a nil
// receiver dst is returned unchanged.
func (a *Auth) SumParts(dst []byte, parts ...[]byte) []byte {
	if a == nil {
		return dst
	}
	return a.sum(dst, parts...)
}

// Verify checks the trailing tag of a received frame and returns the
// frame body with the tag stripped. The returned slice aliases frame's
// backing array (same capacity class, so bufpool recycling still works).
// A nil receiver accepts everything unchanged.
func (a *Auth) Verify(frame []byte) ([]byte, bool) {
	if a == nil {
		return frame, true
	}
	if len(frame) < MacLen {
		return nil, false
	}
	body := frame[:len(frame)-MacLen]
	var tag [MacLen]byte
	if subtle.ConstantTimeCompare(a.sum(tag[:0], body), frame[len(frame)-MacLen:]) != 1 {
		return nil, false
	}
	return body, true
}

// DeriveKey derives a labeled subkey from a master key, so each ring of a
// sharded deployment (and the client-session layer) signs with its own
// key: DeriveKey(master, "ring3"), DeriveKey(master, "session"), …
func DeriveKey(master []byte, label string) []byte {
	m := hmac.New(sha256.New, master)
	m.Write([]byte(label))
	return m.Sum(nil)
}
