// Package bufpool provides size-classed, sync.Pool-backed frame buffers
// for the protocol's hot paths. At the paper's Figure 4/5 rates (tens of
// thousands of ~1350-byte frames per second) allocating a fresh buffer per
// datagram makes the garbage collector the per-packet processing cost the
// paper says dominates ring protocols; renting and recycling buffers keeps
// the steady-state receive and delayed-send paths allocation-free.
//
// # Ownership rules
//
// A buffer obtained from Get is owned by the caller. Ownership moves with
// the buffer: whoever holds a rented frame last is responsible for either
// calling Put exactly once or letting the garbage collector reclaim it.
// The cardinal rules:
//
//   - Never Put a buffer that anything else might still read: Put
//     transfers the memory to an unrelated future Get.
//   - Never Put the same buffer twice.
//   - Never use a buffer (or any slice aliasing it, e.g. a zero-copy
//     decoded payload) after Put.
//   - Put is always optional. Dropping a buffer on the floor only costs a
//     future pool miss; a wrong Put corrupts frames. When in doubt, don't.
//
// The owners here: a transport rents each received frame and
// groupcore.Core.Submit each envelope it encodes; the ring node Puts both
// back once its ring is done with them. The session package Puts its own.
//
// Put accepts any byte slice, including slices that did not come from Get:
// it files the buffer under the largest size class its capacity can serve
// (buffers smaller than the smallest class are discarded).
//
// Built with -tags poison (make poison), Put fills the buffer's whole
// capacity with a pattern and Get checks the pattern is intact before
// handing the buffer out, panicking with the class when it is not: a
// buffer written after Put is caught at its next Get, and one read after
// Put reads the pattern.
package bufpool

import (
	"sync"
	"sync/atomic"

	"accelring/internal/obs"
)

// classes are the rentable capacities. 2048 covers the paper's 1350-byte
// payload frames with headers; 66*1024 covers wire.MaxPayload plus
// headers (the transports' maximum datagram).
var classSizes = [...]int{256, 1024, 2048, 4096, 16384, 66 * 1024}

// MaxCap is the largest pooled capacity. Get(n) with n > MaxCap falls back
// to a plain allocation; Put files such a buffer under the largest class,
// like any buffer whose capacity exceeds its class.
const MaxCap = 66 * 1024

var pools [len(classSizes)]sync.Pool

// item carries a pooled buffer through sync.Pool. Pooling a bare []byte
// would box its header on every Put (an allocation on the hot path the
// zero-alloc gates measure); instead the headers themselves are pooled
// and cycle between itemPool and the class pools without allocating.
type item struct{ b []byte }

var itemPool = sync.Pool{New: func() any { return new(item) }}

// Stats is a point-in-time snapshot of pool activity. Gets = Hits + Misses
// + Oversize. A healthy steady state shows Hits tracking Gets and Puts
// tracking Gets: received frames, token and data alike, and submitted
// envelopes come back once the ring is done with them (a data frame or an
// envelope when its message is stable), and a client's session reads come
// back once decoded (what it delivers is copied out). Misses then count
// the pool's refills after a garbage collection empties it, and buffers a
// consumer kept.
type Stats struct {
	// Gets counts Get calls (derived: Hits + Misses + Oversize).
	Gets uint64 `json:"gets"`
	// Hits counts Gets served from a pool.
	Hits uint64 `json:"hits"`
	// Misses counts Gets that had to allocate.
	Misses uint64 `json:"misses"`
	// Oversize counts Gets beyond MaxCap, which always allocate.
	Oversize uint64 `json:"oversize"`
	// Puts counts buffers returned to a pool.
	Puts uint64 `json:"puts"`
}

var hits, misses, oversize, puts atomic.Uint64

// classFor returns the index of the smallest class with capacity >= n, or
// -1 if n exceeds every class.
func classFor(n int) int {
	for i, s := range classSizes {
		if n <= s {
			return i
		}
	}
	return -1
}

// putClassFor returns the index of the largest class with capacity <= c,
// or -1 if c is smaller than every class.
func putClassFor(c int) int {
	for i := len(classSizes) - 1; i >= 0; i-- {
		if c >= classSizes[i] {
			return i
		}
	}
	return -1
}

// Get returns a buffer with len n. Its contents are undefined; the caller
// owns it until Put (or abandonment).
func Get(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		oversize.Add(1)
		return make([]byte, n)
	}
	if v := pools[ci].Get(); v != nil {
		hits.Add(1)
		it := v.(*item)
		b := it.b
		it.b = nil
		itemPool.Put(it)
		checkPoison(b, ci)
		return b[:n]
	}
	misses.Add(1)
	return make([]byte, n, classSizes[ci])
}

// Put returns a buffer to the pool serving the largest class its capacity
// fits. Buffers below the smallest class (or nil) are discarded. See the
// package comment for the ownership rules; in particular, never Put a
// buffer anything else might still reference.
func Put(b []byte) {
	ci := putClassFor(cap(b))
	if ci < 0 {
		return
	}
	poison(b)
	puts.Add(1)
	it := itemPool.Get().(*item)
	it.b = b[:0]
	pools[ci].Put(it)
}

// Snapshot returns the current pool counters.
func Snapshot() Stats {
	st := Stats{
		Hits:     hits.Load(),
		Misses:   misses.Load(),
		Oversize: oversize.Load(),
		Puts:     puts.Load(),
	}
	st.Gets = st.Hits + st.Misses + st.Oversize
	return st
}

// PublishTo exposes the pool counters in reg under "bufpool": a live
// snapshot taken on every registry read, so /debug/vars always shows
// current hit/miss values. No-op on a nil registry; safe to call more than
// once (later calls replace the published function with an identical one).
func PublishTo(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Publish("bufpool", func() any { return Snapshot() })
}
