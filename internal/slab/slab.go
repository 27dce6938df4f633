// Package slab carves what a delivery hands to an application — the
// message it receives, the message's group list and its payload — out of
// shared chunks, so a delivered message costs a small fraction of an
// allocation instead of one allocation per object. The client library
// decodes each connection's deliveries into one Set; the library facade
// keeps one per Node.
//
// Every carved object is independent: a group list or payload comes back
// with its capacity clipped to its length, so an append by its owner
// copies it elsewhere and cannot write into a neighbour. The chunks are
// never reused: a carved object lives as long as anything refers to it,
// and so does the chunk it was carved from. An application that keeps a
// few deliveries long-term keeps their chunks alive (up to 32 KB of
// payload, 64 messages and 256 group names for each) and should copy
// what it keeps.
package slab

// The chunk sizes. A payload larger than ByteChunk gets a chunk of its
// own.
const (
	// MsgChunk is how many messages one chunk of them holds.
	MsgChunk = 64
	// ByteChunk is a payload chunk's size in bytes.
	ByteChunk = 32 << 10
	// NameChunk is how many group names one chunk of them holds.
	NameChunk = 256
)

// Set is one consumer's chunks for deliveries of type M. The zero value is
// ready to use. A Set is not safe for concurrent use: one goroutine (or
// one lock) owns it.
type Set[M any] struct {
	msgs  []M
	names []string
	bytes []byte
}

// New returns a zeroed *M carved from the message chunk.
func (s *Set[M]) New() *M {
	if len(s.msgs) == 0 {
		s.msgs = make([]M, MsgChunk)
	}
	m := &s.msgs[0]
	s.msgs = s.msgs[1:]
	return m
}

// Names returns a copy of gs carved from the name chunk.
func (s *Set[M]) Names(gs []string) []string { return carve(&s.names, gs, NameChunk) }

// Payload returns a copy of p carved from the byte chunk.
func (s *Set[M]) Payload(p []byte) []byte { return carve(&s.bytes, p, ByteChunk) }

// carve copies src into the free tail of *chunk, starting a new chunk of
// max(size, len(src)) when the tail is too short, and returns the copy
// with its capacity clipped. Like slices.Clone, nil stays nil and an empty
// src comes back empty but non-nil (without allocating).
func carve[T any](chunk *[]T, src []T, size int) []T {
	n := len(src)
	if n == 0 {
		if src == nil {
			return nil
		}
		return make([]T, 0)
	}
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]T, 0, max(size, n))
	}
	off := len(*chunk)
	*chunk = append(*chunk, src...)
	return (*chunk)[off : off+n : off+n]
}
